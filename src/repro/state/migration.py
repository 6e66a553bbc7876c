"""Live state migration (paper §5.2).

"The decoupling of code and state, and the tabular nature of state,
enables us to reconfigure the network without disrupting applications.
To migrate or scale out a load balancer, the controller can copy over
its state and start running a new instance; while reducing the number of
load balancer instances, it can merge their states."

The protocol implemented here is the standard two-phase live migration:

1. **warm copy** — start the source's delta log, snapshot the table, and
   load the snapshot into the target while the source keeps serving;
2. **flip** — pause the source (a short blackout during which the data
   plane buffers, not drops), replay the accumulated deltas on the
   target, switch routing, resume.

Disruption = the flip duration only, which is proportional to the delta
backlog, not the table size — the property the scaling benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

from ..errors import StateError
from .table import StateTable


@dataclass
class MigrationReport:
    """What one migration did and what it cost."""

    table: str
    rows_copied: int = 0
    deltas_replayed: int = 0
    warm_copy_s: float = 0.0
    pause_s: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0


@dataclass
class MigrationTiming:
    """Cost parameters for migration work (microseconds)."""

    per_row_copy_us: float = 0.5
    per_delta_replay_us: float = 0.3
    flip_fixed_us: float = 50.0  # routing switch propagation


class Migrator:
    """Runs live migrations inside the simulator.

    ``pause_hook``/``resume_hook`` let the data plane buffer traffic
    during the flip (the processor wires these to its queue).
    """

    def __init__(
        self,
        sim,
        timing: Optional[MigrationTiming] = None,
        pause_hook: Optional[Callable[[], None]] = None,
        resume_hook: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.timing = timing or MigrationTiming()
        self.pause_hook = pause_hook or (lambda: None)
        self.resume_hook = resume_hook or (lambda: None)

    def migrate(
        self, source: StateTable, target: StateTable
    ) -> Generator:
        """Simulation process: move ``source``'s contents to ``target``.
        Returns a :class:`MigrationReport`."""
        if source.name != target.name:
            raise StateError(
                f"cannot migrate {source.name!r} into {target.name!r}"
            )
        report = MigrationReport(table=source.name, started_at=self.sim.now)
        # phase 1: warm copy under a delta log
        source.start_delta_log()
        snapshot = source.snapshot()
        report.rows_copied = len(snapshot)
        warm_copy_s = (
            report.rows_copied * self.timing.per_row_copy_us * 1e-6
        )
        if warm_copy_s > 0:
            yield self.sim.timeout(warm_copy_s)
        report.warm_copy_s = warm_copy_s
        target.load_snapshot(snapshot)
        # phase 2: flip — pause, replay deltas, switch, resume
        self.pause_hook()
        pause_started = self.sim.now
        deltas = source.drain_delta_log()
        report.deltas_replayed = len(deltas)
        replay_s = (
            len(deltas) * self.timing.per_delta_replay_us
            + self.timing.flip_fixed_us
        ) * 1e-6
        yield self.sim.timeout(replay_s)
        target.apply_deltas(deltas)
        self.resume_hook()
        report.pause_s = self.sim.now - pause_started
        report.finished_at = self.sim.now
        return report

    def scale_out(
        self, source: StateTable, ways: int
    ) -> Generator:
        """Split a keyed table across ``ways`` fresh instances.

        Returns (tables, report). The source is left empty (its rows now
        live in the partitions)."""
        if ways < 2:
            raise StateError("scale_out needs ways >= 2")
        report = MigrationReport(table=source.name, started_at=self.sim.now)
        source.start_delta_log()
        parts = source.split(ways)
        report.rows_copied = sum(len(p) for p in parts)
        warm_copy_s = report.rows_copied * self.timing.per_row_copy_us * 1e-6
        if warm_copy_s > 0:
            yield self.sim.timeout(warm_copy_s)
        report.warm_copy_s = warm_copy_s
        self.pause_hook()
        pause_started = self.sim.now
        deltas = source.drain_delta_log()
        report.deltas_replayed = len(deltas)
        replay_s = (
            len(deltas) * self.timing.per_delta_replay_us
            + self.timing.flip_fixed_us
        ) * 1e-6
        yield self.sim.timeout(replay_s)
        for delta in deltas:
            row = delta.as_row()
            index = parts[0].partition_key_for(row) % ways if parts[0].keyed else 0
            parts[index].apply_deltas([delta])
        source.clear()
        self.resume_hook()
        report.pause_s = self.sim.now - pause_started
        report.finished_at = self.sim.now
        return parts, report

    def scale_in(
        self, decl, sources: Sequence[StateTable]
    ) -> Generator:
        """Merge several instances' tables into one (scale-in)."""
        report = MigrationReport(
            table=decl.name, started_at=self.sim.now
        )
        self.pause_hook()
        pause_started = self.sim.now
        merged = StateTable.merge(decl, sources)
        report.rows_copied = len(merged)
        merge_s = (
            report.rows_copied * self.timing.per_row_copy_us
            + self.timing.flip_fixed_us
        ) * 1e-6
        yield self.sim.timeout(merge_s)
        self.resume_hook()
        report.pause_s = self.sim.now - pause_started
        report.finished_at = self.sim.now
        return merged, report
