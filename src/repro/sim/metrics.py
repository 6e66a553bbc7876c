"""Metric collection: latency samples, throughput, CPU accounting.

The recorders are deliberately simple (lists + sorting) because bench
runs are a few thousand RPCs; exactness beats streaming quantile sketches
at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class LatencySeries:
    """Latency samples with percentile queries (values in seconds)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def median_us(self) -> float:
        return self.median * 1e6


@dataclass
class RunMetrics:
    """Everything measured in one experiment run."""

    #: end-to-end request→response latency at the client
    latency: LatencySeries = field(default_factory=LatencySeries)
    completed: int = 0
    aborted: int = 0
    issued: int = 0
    elapsed_s: float = 0.0
    #: cumulative CPU busy seconds by machine name
    cpu_busy_s: Dict[str, float] = field(default_factory=dict)
    #: wire bytes sent per hop label
    wire_bytes: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def throughput_krps(self) -> float:
        return self.throughput_rps / 1e3

    def cpu_us_per_rpc(self, machine: Optional[str] = None) -> float:
        """Average CPU microseconds consumed per completed RPC."""
        if self.completed == 0:
            return math.nan
        if machine is not None:
            busy = self.cpu_busy_s.get(machine, 0.0)
        else:
            busy = sum(self.cpu_busy_s.values())
        return busy / self.completed * 1e6

    def check_littles_law(self, concurrency: int, tolerance: float = 0.25) -> bool:
        """Sanity invariant for closed-loop runs: N ≈ X · R."""
        if self.completed == 0 or not self.latency.samples:
            return False
        implied = self.throughput_rps * self.latency.mean
        return abs(implied - concurrency) / concurrency <= tolerance

    def summary(self) -> str:
        return (
            f"completed={self.completed} aborted={self.aborted} "
            f"rate={self.throughput_krps:.1f} krps "
            f"median={self.latency.median_us():.1f} us "
            f"p99={self.latency.percentile(99) * 1e6:.1f} us"
        )
