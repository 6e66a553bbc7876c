"""Discrete-event simulation engine.

A small process-based DES kernel (in the style of SimPy, implemented from
scratch): *processes* are Python generators that yield :class:`Event`
objects; the simulator advances virtual time, firing events in timestamp
order with FIFO tie-breaking.

Entries due later wait in a heap ordered by (time, push sequence).
Entries due *now* (a triggered event, a starting process) go to a FIFO
ready queue instead: each was pushed after every heap entry due at the
same instant, so the loop runs those heap entries first and then the
ready queue in order, which is the order one heap would give, without
a heap push and pop per zero-time hand-off.

Everything in the data-plane substrate — CPU cores, NICs, links, RPC
queues — is built from three primitives here: :class:`Event`,
:class:`Process`, and the resources in :mod:`repro.sim.resources`.

Time is in **seconds** (floats); cost-model constants are microseconds
and converted at the call site via :data:`US`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Generator, List, Optional, Tuple

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

    __slots__ = ("sim", "callbacks", "value", "triggered", "ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: waiters to call when the event fires; None once it has fired
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.value: object = None
        self.triggered = False  # outcome decided (or scheduled, for timeouts)
        self.ok = True

    def succeed(self, value: object = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self.sim._ready.append(self._fire)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.sim._ready.append(self._fire)
        return self

    def _fire(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:  # fired already: call back in a hand-off
            self.sim._ready.append(lambda: callback(self))
        else:
            callbacks.append(callback)


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
        sim._push(sim.now + delay, self._fire)


class _Start:
    """What a new process is resumed with: ``send(None)``."""

    __slots__ = ()
    ok = True
    value = None


_START = _Start()


class Process(Event):
    """A running generator; also an event that triggers when it returns.

    Starting and finishing are zero-time hand-offs: each queues one
    entry at ``now``, so a process runs its first step, and its waiters
    learn it returned, in FIFO order with everything else due then.
    """

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator):
        Event.__init__(self, sim)
        self.generator = generator
        sim._ready.append(self._start)

    def _start(self) -> None:
        self._resume(_START)  # type: ignore[arg-type]

    def _resume(self, event: Event) -> None:
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)  # type: ignore[arg-type]
        except StopIteration as stop:
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                self.sim._ready.append(self._fire)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)


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
                self.sim._ready.append(self._fire)

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
            self.sim._ready.append(self._fire)


class Simulator:
    """The event loop: a time-ordered heap of callbacks due later, and a
    FIFO queue of callbacks due now."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._ready: Deque[Callable[[], None]] = deque()
        self._sequence = itertools.count()

    # -- scheduling ---------------------------------------------------------

    def _schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        # one comparison rejects the past, NaN and infinity alike: a NaN
        # in the heap would silently reorder every later event
        if not self.now - 1e-15 <= when < math.inf:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self.now})"
            )
        self._push(when, callback)

    def _push(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule a checked time: an entry due now joins the ready
        queue, one due later the heap."""
        if when == self.now:
            self._ready.append(callback)
        else:
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
        """Run until nothing is scheduled or simulated time reaches
        ``until``."""
        heap = self._heap
        ready = self._ready
        pop_ready = ready.popleft
        horizon = math.inf if until is None else until
        if self.now > horizon:
            if heap or ready:
                self.now = horizon
            return
        while True:
            if ready:
                # a heap entry due now was pushed before this instant
                # began, so it precedes everything in the ready queue
                if heap and heap[0][0] <= self.now:
                    self.now, _seq, callback = heappop(heap)
                else:
                    callback = pop_ready()
            elif heap:
                if heap[0][0] > horizon:
                    self.now = horizon
                    return
                self.now, _seq, callback = heappop(heap)
            else:
                # when everything drains before ``until``, time stays at
                # the last event — advancing to an arbitrary horizon
                # would corrupt elapsed-time metrics
                return
            callback()

    def run_until_complete(self, process: Process, limit: float = 1e6) -> object:
        """Run until nothing is left to run or the clock reaches
        ``limit``, then return ``process``'s value. Events scheduled
        after ``process`` finishes (background processes, leftover
        timers) still run, up to ``limit``; raises
        :class:`SimulationError` when ``process`` has not finished by
        then."""
        self.run(until=limit)
        if not process.triggered:
            raise SimulationError(
                f"process did not finish within {limit} simulated seconds"
            )
        return process.value
