"""Outside-in tracer: times calls into each layer's public functions
without changing any file of the simulator.

The tracer replaces class attributes (methods) of the simulator with
wrappers for the lifetime of one traced run. Every wrapped call is a
*span* tagged with the layer (module) it belongs to. Spans nest on one
stack, so a layer's *self time* is its spans' durations minus the part
covered by spans opened inside them: time that ``call_raw`` spends
inside ``Resource.use`` counts for ``sim.resources``, not for
``runtime.mrpc``.

Generator functions (``call_raw``, ``execute``, ``traverse``,
``Resource.use``) do their work only when the simulator resumes them,
so timing the call would measure generator creation alone. Their
result is wrapped in :class:`TracedGenerator`, which opens a span
around every ``send``/``throw``, including the ones ``yield from``
forwards from an enclosing generator. Generators the simulator starts
through ``Simulator.process`` that no patch wraps (workload generators,
retry filters, fault injectors, graph fan-out) are wrapped too and
tagged with the module that defined them, so their time is attributed
rather than charged to the event loop.
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from repro.baselines.envoy import EnvoyMeshStack, EnvoySidecar
from repro.baselines.grpc_stack import GrpcStack
from repro.graph.runtime import GraphRuntime
from repro.net.wire import AdnWireCodec
from repro.overload.admission import AdmissionController
from repro.runtime.mrpc import AdnMrpcStack
from repro.runtime.processor import ProcessorRuntime
from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.resources import Resource, Store

#: hook run on a wrapped call's result: ``hook(tracer, result)``
ResultHook = Callable[["Tracer", object], None]


def _count_encoded(tracer: "Tracer", encoded: object) -> None:
    tracer.counts["net.wire.encoded_bytes"] += len(encoded)  # type: ignore[arg-type]


def _count_drop(tracer: "Tracer", result: object) -> None:
    if getattr(result, "dropped_by", None):
        tracer.counts["runtime.processor.drops"] += 1


def _count_shed(tracer: "Tracer", reason: object) -> None:
    if reason is not None:
        tracer.counts["overload.admission.sheds"] += 1


# (owner class, attribute, layer, count key or None, result hook or None)
_CALLS = [
    (Simulator, "run", "sim.engine", None, None),
    (Simulator, "timeout", "sim.engine", None, None),
    (Simulator, "event", "sim.engine", None, None),
    (Simulator, "all_of", "sim.engine", None, None),
    (Simulator, "any_of", "sim.engine", None, None),
    (Event, "succeed", "sim.engine", None, None),
    (Event, "fail", "sim.engine", None, None),
    (Resource, "request", "sim.resources", None, None),
    (Resource, "release", "sim.resources", None, None),
    (Resource, "reject", "sim.resources", None, None),
    (Resource, "set_capacity", "sim.resources", None, None),
    (Store, "put", "sim.resources", None, None),
    (Store, "get", "sim.resources", None, None),
    (AdnWireCodec, "encode", "net.wire", "net.wire.encodes", _count_encoded),
    (AdnWireCodec, "decode", "net.wire", "net.wire.decodes", None),
    (AdnWireCodec, "encoded_size", "net.wire", None, None),
    (GrpcStack, "encode", "baselines.grpc_stack",
     "baselines.grpc_stack.encodes", None),
    (GrpcStack, "decode", "baselines.grpc_stack",
     "baselines.grpc_stack.decodes", None),
    (AdnMrpcStack, "apply_plan", "runtime.mrpc", None, None),
    (AdmissionController, "admit", "overload.admission",
     "overload.admission.admits", _count_shed),
]

_GENERATORS = [
    (Resource, "use", "sim.resources", None, None),
    (GrpcStack, "call", "baselines.grpc_stack", None, None),
    (EnvoyMeshStack, "call", "baselines.envoy", None, None),
    (EnvoySidecar, "traverse", "baselines.envoy",
     "baselines.envoy.traversals", None),
    (AdnMrpcStack, "call_raw", "runtime.mrpc", "runtime.mrpc.attempts", None),
    (ProcessorRuntime, "execute", "runtime.processor",
     "runtime.processor.executes", _count_drop),
    (GraphRuntime, "entry_call", "graph.runtime", None, None),
]

# constructors counted (not timed): every event, and the two kinds the
# engine schedules most
_CONSTRUCTORS = [
    (Event, "sim.engine.events"),
    (Timeout, "sim.engine.timeouts"),
    (Process, "sim.engine.processes"),
]


def module_layer(generator: types.GeneratorType) -> str:
    """The layer a bare generator belongs to: its defining module,
    without the package prefix (``repro.sim.workload`` -> ``sim.workload``)."""
    frame = generator.gi_frame
    name = frame.f_globals.get("__name__", "?") if frame is not None else "?"
    return name[len("repro."):] if name.startswith("repro.") else name


class TracedGenerator:
    """A generator stand-in that opens a span around each resumption.

    Implements the iterator protocol ``yield from`` and
    :class:`~repro.sim.engine.Process` use: ``send``, ``throw``,
    ``close`` and ``__next__``. ``StopIteration`` (the generator's
    return value) passes through unchanged.
    """

    __slots__ = ("_generator", "_layer", "_tracer", "_on_result")

    def __init__(
        self,
        generator,
        layer: str,
        tracer: "Tracer",
        on_result: Optional[ResultHook] = None,
    ):
        self._generator = generator
        self._layer = layer
        self._tracer = tracer
        self._on_result = on_result

    def __iter__(self) -> "TracedGenerator":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)

    def close(self) -> None:
        self._generator.close()

    def _resume(self, step, *args):
        tracer = self._tracer
        stack = tracer.stack
        frame = [0.0]
        stack.append(frame)
        started = tracer.clock()
        try:
            return step(*args)
        except StopIteration as stop:
            if self._on_result is not None:
                self._on_result(tracer, stop.value)
            raise
        finally:
            tracer.close_span(self._layer, frame, started)


class Tracer:
    """Span stack, per-layer self time and call counts for one run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: one ``[child_seconds]`` cell per open span
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._saved: List[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def close_span(self, layer: str, frame: List[float], started: float) -> None:
        elapsed = self.clock() - started
        self.stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def traced_call(
        self,
        fn: Callable,
        layer: str,
        count: Optional[str] = None,
        on_result: Optional[ResultHook] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            started = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(layer, frame, started)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def traced_generator_function(
        self,
        fn: Callable,
        layer: str,
        count: Optional[str] = None,
        on_result: Optional[ResultHook] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            return TracedGenerator(fn(*args, **kwargs), layer, tracer, on_result)

        return wrapper

    def _traced_process(self, fn: Callable) -> Callable:
        """``Simulator.process``: an engine span that also tags bare
        generators with their module's layer."""
        tracer = self
        timed = self.traced_call(fn, "sim.engine")

        def process(sim, generator):
            if isinstance(generator, types.GeneratorType):
                generator = TracedGenerator(
                    generator, module_layer(generator), tracer
                )
            return timed(sim, generator)

        return process

    def _counted_init(self, fn: Callable, count: str) -> Callable:
        counts = self.counts

        def __init__(obj, *args, **kwargs):
            counts[count] += 1
            fn(obj, *args, **kwargs)

        return __init__

    # -- installing the patches --------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Patch every traced entry point. Call before the workload's
        stacks are built: stacks bind ``call_raw`` at construction."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, layer, count, hook in _CALLS:
            fn = owner.__dict__[attribute]
            self._patch(owner, attribute, self.traced_call(fn, layer, count, hook))
        for owner, attribute, layer, count, hook in _GENERATORS:
            fn = owner.__dict__[attribute]
            self._patch(
                owner,
                attribute,
                self.traced_generator_function(fn, layer, count, hook),
            )
        self._patch(
            Simulator, "process", self._traced_process(Simulator.__dict__["process"])
        )
        for owner, count in _CONSTRUCTORS:
            fn = owner.__dict__["__init__"]
            self._patch(owner, "__init__", self._counted_init(fn, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def wrap_instance_generator(self, obj, attribute: str, layer: str) -> None:
        """Trace a generator function held by one object (a graph
        service handler installed on a stack)."""
        fn = getattr(obj, attribute)
        if fn is not None:
            setattr(obj, attribute, self.traced_generator_function(fn, layer))

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Forget what set-up did, so the results cover the run alone."""
        self.self_s.clear()
        self.counts.clear()

    def check_closed(self) -> List[str]:
        """Bookkeeping invariants: every span closed, no negative self
        time beyond clock resolution."""
        errors = []
        if self.stack:
            errors.append(f"tracer: {len(self.stack)} spans left open")
        for layer, seconds in self.self_s.items():
            if seconds < -1e-6:
                errors.append(f"tracer: negative self time {seconds} s in {layer}")
        return errors
