"""Discrete-event simulation engine.

A small process-based DES kernel (in the style of SimPy, implemented from
scratch): *processes* are Python generators that yield :class:`Event`
objects; the simulator advances virtual time, firing events in timestamp
order with FIFO tie-breaking.

Everything in the data-plane substrate — CPU cores, NICs, links, RPC
queues — is built from three primitives here: :class:`Event`,
:class:`Process`, and the resources in :mod:`repro.sim.resources`.

Time is in **seconds** (floats); cost-model constants are microseconds
and converted at the call site via :data:`US`.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, Generator, List, Optional, Tuple

from ..errors import SimulationError

#: one microsecond, in simulator seconds
US = 1e-6
#: one millisecond
MS = 1e-3


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once (``succeed``/``fail``); callbacks run at
    the simulated time of triggering. Yielding an event from a process
    suspends the process until the event triggers.
    """

    __slots__ = ("sim", "callbacks", "value", "triggered", "fired", "ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: object = None
        self.triggered = False  # outcome decided (or scheduled, for timeouts)
        self.fired = False  # callbacks have run
        self.ok = True

    def succeed(self, value: object = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._sequence), self._fire))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.sim._schedule_at(self.sim.now, self._fire)
        return self

    def _fire(self) -> None:
        self.fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.fired:
            self.sim._schedule_at(self.sim.now, lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        # one comparison rejects negative, NaN and infinite delays alike
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"timeout delay {delay} is not finite and >= 0"
            )
        Event.__init__(self, sim)
        self.triggered = True  # scheduled, cannot be re-succeeded
        self.value = value
        heappush(sim._heap, (sim.now + delay, next(sim._sequence), self._fire))


class Process(Event):
    """A running generator; also an event that triggers when it returns."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        self.generator = generator
        sim._schedule_at(sim.now, lambda: self._step(None, True))

    def _step(self, value: object, ok: bool) -> None:
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)  # type: ignore[arg-type]
        except StopIteration as stop:
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                self.sim._schedule_at(self.sim.now, self._fire)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        if target.fired:
            target.add_callback(self._resume)
        else:
            target.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        self._step(event.value, event.ok)


class AllOf(Event):
    """Triggers when every child event has triggered."""

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        self.value = [None] * len(events)
        for index, event in enumerate(events):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int):
        def on_child(event: Event) -> None:
            self.value[index] = event.value  # type: ignore[index]
            self._pending -= 1
            if self._pending == 0 and not self.triggered:
                self.triggered = True
                self.sim._schedule_at(self.sim.now, self._fire)

        return on_child


class AnyOf(Event):
    """Triggers when the first child event triggers (others are ignored)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self.triggered:
            self.triggered = True
            self.value = event.value
            self.sim._schedule_at(self.sim.now, self._fire)


class Simulator:
    """The event loop: a time-ordered heap of callbacks."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    # -- scheduling ---------------------------------------------------------

    def _schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        # one comparison rejects the past, NaN and infinity alike: a NaN
        # in the heap would silently reorder every later event
        if not self.now - 1e-15 <= when < math.inf:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self.now})"
            )
        heappush(self._heap, (when, next(self._sequence), callback))

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``."""
        heap = self._heap
        if until is None:
            while heap:
                self.now, _seq, callback = heappop(heap)
                callback()
            return
        while heap:
            when, _seq, callback = heap[0]
            if when > until:
                self.now = until
                return
            heappop(heap)
            self.now = when
            callback()
        # when the heap drains before ``until``, time stays at the last
        # event — advancing to an arbitrary horizon would corrupt
        # elapsed-time metrics

    def run_until_complete(self, process: Process, limit: float = 1e6) -> object:
        """Run until ``process`` finishes; returns its value."""
        self.run(until=limit)
        if not process.triggered:
            raise SimulationError(
                f"process did not finish within {limit} simulated seconds"
            )
        return process.value
