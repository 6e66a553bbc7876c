"""Mesh workload model: what a production service graph actually sees.

Three properties distinguish mesh traffic from the paper's closed-loop
microbenchmark, and each one exercises a different part of the graph
layer:

* **open-loop arrivals with diurnal shaping** — a nonhomogeneous
  Poisson process (rate modulated by a sinusoidal day curve) generated
  by thinning, so overload control is tested against load that *keeps
  arriving* while the mesh degrades;
* **hot-key skew** — users are drawn from a Zipf distribution over a
  population of millions, via Devroye's rejection method: O(1) memory
  and O(1) expected time per draw, no precomputed CDF, so "millions of
  simulated users" costs nothing;
* **priority mix** — a configurable fraction of requests carry an
  elevated ``priority`` field, which rides the schema end to end and
  lets admission controllers anywhere in the graph shed the cheap
  traffic first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..runtime.message import RpcOutcome
from ..sim.engine import Simulator
from ..sim.metrics import RunMetrics
from .runtime import GraphRuntime


class ZipfSampler:
    """Zipf(s) over ``{1..n}`` by rejection (Devroye 1986, the method
    numpy uses), valid for ``s > 1``. Expected iterations per draw is a
    small constant independent of ``n``, so a population of millions is
    as cheap as one of dozens."""

    def __init__(self, n: int, s: float = 1.2):
        if n < 1:
            raise ValueError("population must be >= 1")
        if s <= 1.0:
            raise ValueError("rejection sampling needs s > 1")
        self.n = n
        self.s = s
        self._b = 2.0 ** (s - 1.0)

    def sample(self, rng: random.Random) -> int:
        while True:
            u = 1.0 - rng.random()  # (0, 1]
            v = rng.random()
            x = math.floor(u ** (-1.0 / (self.s - 1.0)))
            if x < 1 or x > self.n:
                continue
            t = (1.0 + 1.0 / x) ** (self.s - 1.0)
            if v * x * (t - 1.0) / (self._b - 1.0) <= t / self._b:
                return int(x)


@dataclass
class MeshWorkloadConfig:
    """Knobs for one mesh workload run."""

    #: simulated user population; arrival user ids are Zipf-skewed over
    #: it, so a tiny hot set dominates (cache-busting realism)
    users: int = 1_000_000
    zipf_s: float = 1.2
    #: mean arrival rate before diurnal shaping
    base_rps: float = 2_000.0
    #: peak-to-mean swing of the day curve (0 = flat Poisson)
    diurnal_amplitude: float = 0.3
    #: one simulated "day"; short by default so tests see full cycles
    diurnal_period_s: float = 1.0
    duration_s: float = 1.0
    #: fraction of requests issued at elevated priority
    priority_high_ratio: float = 0.1
    #: priority value of the elevated tier (>= admission's threshold)
    high_priority: int = 1
    seed: int = 1


class MeshWorkload:
    """Open-loop driver for a :class:`~repro.graph.runtime.GraphRuntime`
    (or any call function) with diurnal Poisson arrivals and Zipf users.

    The diurnal rate is ``base * (1 + amp * sin(2*pi*t/period))``,
    realized by thinning: candidate arrivals at the peak rate, each
    accepted with probability ``rate(t)/peak``. Thinning preserves the
    Poisson property exactly — no time-discretization artifacts.
    """

    def __init__(
        self,
        sim: Simulator,
        call,
        config: Optional[MeshWorkloadConfig] = None,
    ):
        if isinstance(call, GraphRuntime):
            call = call.entry_call
        self.sim = sim
        self.call = call
        self.config = config or MeshWorkloadConfig()
        self.rng = random.Random(self.config.seed)
        self.zipf = ZipfSampler(self.config.users, self.config.zipf_s)
        self.metrics = RunMetrics()
        #: goodput accounting by priority tier
        self.ok_by_priority: Dict[int, int] = {}
        self.issued_by_priority: Dict[int, int] = {}

    def _rate(self, t: float) -> float:
        config = self.config
        if config.diurnal_amplitude <= 0.0:
            return config.base_rps
        phase = 2.0 * math.pi * t / config.diurnal_period_s
        return config.base_rps * (
            1.0 + config.diurnal_amplitude * math.sin(phase)
        )

    def fields_for(self, index: int) -> Dict[str, object]:
        """One arrival's application fields: Zipf-skewed user identity
        (hot keys), a small payload, and the priority tier."""
        high = self.rng.random() < self.config.priority_high_ratio
        return {
            "payload": b"x" * 64,
            "username": f"user{self.zipf.sample(self.rng)}",
            "obj_id": self.rng.randrange(1 << 16),
            "priority": self.config.high_priority if high else 0,
        }

    def run(self, drain_s: float = 0.5) -> RunMetrics:
        self.sim.process(self._arrivals())
        self.sim.run(until=self.sim.now + self.config.duration_s + drain_s)
        self.metrics.elapsed_s = self.config.duration_s
        return self.metrics

    def _arrivals(self) -> Generator:
        config = self.config
        peak = config.base_rps * (1.0 + max(0.0, config.diurnal_amplitude))
        started = self.sim.now
        index = 0
        while self.sim.now - started < config.duration_s:
            yield self.sim.timeout(self.rng.expovariate(peak))
            # thinning: accept this candidate with rate(t)/peak
            t = self.sim.now - started
            if self.rng.random() * peak > self._rate(t):
                continue
            index += 1
            fields = self.fields_for(index)
            self.metrics.issued += 1
            priority = int(fields.get("priority", 0))
            self.issued_by_priority[priority] = (
                self.issued_by_priority.get(priority, 0) + 1
            )
            self.sim.process(self._one(fields, priority))

    def _one(self, fields: Dict[str, object], priority: int) -> Generator:
        outcome: RpcOutcome = yield from self.call(**fields)
        self.metrics.completed += 1
        self.metrics.latency.record(outcome.latency_s)
        if outcome.ok:
            self.ok_by_priority[priority] = (
                self.ok_by_priority.get(priority, 0) + 1
            )
        else:
            self.metrics.aborted += 1

    # -- derived -------------------------------------------------------------

    def goodput_rps(self) -> float:
        if self.metrics.elapsed_s <= 0:
            return 0.0
        ok = self.metrics.completed - self.metrics.aborted
        return ok / self.metrics.elapsed_s

    def goodput_ratio(self, priority: Optional[int] = None) -> float:
        """Fraction of issued requests answered ok (optionally for one
        priority tier)."""
        if priority is None:
            issued = self.metrics.issued
            ok = self.metrics.completed - self.metrics.aborted
        else:
            issued = self.issued_by_priority.get(priority, 0)
            ok = self.ok_by_priority.get(priority, 0)
        return ok / issued if issued else 0.0
