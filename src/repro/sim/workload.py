"""Workload generators.

The paper's evaluation uses a closed-loop client: one thread keeping 128
concurrent RPCs in flight, short byte-string request/response (§6). The
closed-loop generator reproduces that. The one open-loop (Poisson)
generator steps through ``(rate, duration)`` phases: a single phase
drives the latency-vs-load sweep and the overload and offload goodput
sweeps (which tally per-outcome detail by wrapping their call), several
phases make the autoscaling experiment's load spike.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..runtime.message import RpcOutcome
from .engine import Simulator
from .metrics import RunMetrics

#: An RPC path: a generator function taking per-call app fields and
#: yielding simulation events, returning an RpcOutcome.
CallFn = Callable[..., Generator]


def _default_fields(rng: random.Random, index: int) -> Dict[str, object]:
    """The paper's workload: short byte strings, with the fields the
    evaluated elements inspect."""
    return {
        "payload": b"x" * 64,
        "username": "usr2" if rng.random() < 0.9 else "usr1",
        "obj_id": rng.randrange(1 << 16),
    }


class ClosedLoopClient:
    """``concurrency`` logical workers, each looping issue→wait→repeat
    until ``total_rpcs`` complete across all workers."""

    def __init__(
        self,
        sim: Simulator,
        call: CallFn,
        concurrency: int = 128,
        total_rpcs: int = 2000,
        seed: int = 1,
        fields_fn: Optional[Callable[[random.Random, int], Dict[str, object]]] = None,
        warmup_rpcs: int = 0,
        think_s: float = 0.0,
    ):
        self.sim = sim
        self.call = call
        self.concurrency = concurrency
        self.total_rpcs = total_rpcs
        self.warmup_rpcs = warmup_rpcs
        #: per-worker pause between completions. Zero keeps the paper's
        #: tight closed loop; a positive think time matters when the path
        #: can answer instantly (an open circuit breaker short-circuits
        #: with no simulated delay, and a zero-think loop would then
        #: drain the whole workload in zero simulated time)
        self.think_s = think_s
        self.rng = random.Random(seed)
        self.fields_fn = fields_fn or _default_fields
        self.metrics = RunMetrics()
        self._remaining = total_rpcs + warmup_rpcs
        self._started_at: Optional[float] = None

    def run(self, limit_s: float = 300.0) -> RunMetrics:
        """Run to completion; returns the metrics."""
        workers = [
            self.sim.process(self._worker()) for _ in range(self.concurrency)
        ]
        done = self.sim.all_of(workers)
        self.sim.run_until_complete(
            self.sim.process(self._await(done)), limit=limit_s
        )
        if self._started_at is not None:
            self.metrics.elapsed_s = self.sim.now - self._started_at
        return self.metrics

    def _await(self, event) -> Generator:
        yield event

    def _worker(self) -> Generator:
        while self._remaining > 0:
            self._remaining -= 1
            index = (self.total_rpcs + self.warmup_rpcs) - self._remaining
            warmup = index <= self.warmup_rpcs
            if not warmup and self._started_at is None:
                self._started_at = self.sim.now
            fields = self.fields_fn(self.rng, index)
            self.metrics.issued += 1
            outcome: RpcOutcome = yield self.sim.process(self.call(**fields))
            if warmup:
                continue
            # an aborted RPC still completes from the client's view (the
            # network answered it); it is counted in the rate and also
            # tallied as aborted
            self.metrics.completed += 1
            self.metrics.latency.record(outcome.latency_s)
            if not outcome.ok:
                self.metrics.aborted += 1
            if self.think_s > 0:
                yield self.sim.timeout(self.think_s)


class OpenLoopClient:
    """Poisson arrivals, unbounded concurrency, stepping through
    ``phases`` of ``(rate_rps, duration_s)``. One phase is a plain
    open-loop run at one rate; several make a load step (the autoscaling
    experiment's spike). ``per_phase`` holds each phase's own metrics."""

    def __init__(
        self,
        sim: Simulator,
        call: CallFn,
        phases: Sequence[Tuple[float, float]],
        seed: int = 1,
        fields_fn: Optional[Callable[[random.Random, int], Dict[str, object]]] = None,
    ):
        self.sim = sim
        self.call = call
        self.phases = list(phases)
        self.rng = random.Random(seed)
        self.fields_fn = fields_fn or _default_fields
        self.metrics = RunMetrics()
        self.per_phase: List[RunMetrics] = []

    def run(self, drain_s: float = 1.0) -> RunMetrics:
        total = sum(duration for _rate, duration in self.phases)
        self.sim.process(self._arrivals())
        self.sim.run(until=self.sim.now + total + drain_s)
        self.metrics.elapsed_s = total
        return self.metrics

    def _arrivals(self) -> Generator:
        index = 0
        for rate, duration in self.phases:
            phase_metrics = RunMetrics()
            phase_metrics.elapsed_s = duration
            self.per_phase.append(phase_metrics)
            started = self.sim.now
            while self.sim.now - started < duration:
                yield self.sim.timeout(self.rng.expovariate(rate))
                index += 1
                fields = self.fields_fn(self.rng, index)
                self.metrics.issued += 1
                phase_metrics.issued += 1
                self.sim.process(self._one(fields, phase_metrics))

    def _one(self, fields, phase_metrics) -> Generator:
        outcome: RpcOutcome = yield self.sim.process(self.call(**fields))
        for metrics in (self.metrics, phase_metrics):
            metrics.completed += 1
            if not outcome.ok:
                metrics.aborted += 1
            metrics.latency.record(outcome.latency_s)


#: the autoscaling experiment's name for a multi-phase open-loop run
SteppedLoadClient = OpenLoopClient
