"""Fault plans: declarative, seeded schedules of infrastructure faults.

A :class:`FaultPlan` is data, not code — a list of timestamped
:class:`FaultEvent` entries plus a seed — so an experiment's failure
scenario round-trips through JSON (``python -m repro faults --plan
plan.json``) and replays bit-identically: the injector applies events in
timestamp order and seeds every stochastic knob (link loss) from the
plan's seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AdnError


class FaultPlanError(AdnError):
    """A malformed fault plan."""


#: fault kinds the injector understands
MACHINE_CRASH = "machine_crash"
PROCESSOR_HANG = "processor_hang"
PROCESSOR_SLOWDOWN = "processor_slowdown"
LINK_PARTITION = "link_partition"
LINK_LOSS = "link_loss"
LINK_LATENCY = "link_latency"
#: control-plane faults (repro.control.resilience): the machine keeps
#: serving dataplane traffic but its heartbeat/command channel to the
#: controller is severed …
CONTROL_PARTITION = "control_partition"
#: … or the machine is alive and reachable but 10-50x slow — the gray
#: failure a crash-only detector never sees
GRAY_DEGRADE = "gray_degrade"

FAULT_KINDS = (
    MACHINE_CRASH,
    PROCESSOR_HANG,
    PROCESSOR_SLOWDOWN,
    LINK_PARTITION,
    LINK_LOSS,
    LINK_LATENCY,
    CONTROL_PARTITION,
    GRAY_DEGRADE,
)

#: the original substrate faults (no control-plane kinds) — the default
#: universe for the single-fault chaos soak, so historical seeds keep
#: replaying bit-identically
DATAPLANE_FAULT_KINDS = (
    MACHINE_CRASH,
    PROCESSOR_HANG,
    PROCESSOR_SLOWDOWN,
    LINK_PARTITION,
    LINK_LOSS,
    LINK_LATENCY,
)

#: kinds whose target is a machine name ("" targets the fabric)
_MACHINE_KINDS = (
    MACHINE_CRASH,
    PROCESSOR_HANG,
    PROCESSOR_SLOWDOWN,
    CONTROL_PARTITION,
    GRAY_DEGRADE,
)


def _seed_problem(seed: object) -> Optional[str]:
    """Why a plan's ``"seed"`` is unusable, or ``None``: it must be a
    JSON integer (not a string, float, boolean or object)."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        return f'"seed" must be an integer, got {seed!r}'
    return None


def _event_problems(
    at_s: float,
    kind: str,
    target: str,
    duration_s: Optional[float],
    magnitude: float,
) -> List[str]:
    """Every validation problem with one event's field values, in a
    stable order. :class:`FaultEvent` raises on the first; the plan
    loader reports them all."""
    problems: List[str] = []
    if kind not in FAULT_KINDS:
        problems.append(
            f"unknown fault kind {kind!r} (choose from "
            f"{', '.join(FAULT_KINDS)})"
        )
    # isfinite first: every comparison with NaN is false
    if not math.isfinite(at_s) or at_s < 0:
        problems.append(f"fault at_s must be finite and >= 0, got {at_s}")
    if duration_s is not None and (
        not math.isfinite(duration_s) or duration_s <= 0
    ):
        problems.append(
            f"fault duration_s must be finite and positive, got {duration_s}"
        )
    if not math.isfinite(magnitude):
        problems.append(f"fault magnitude must be finite, got {magnitude}")
    if kind in _MACHINE_KINDS and not target:
        problems.append(f"{kind} needs a target machine")
    if kind == LINK_LOSS and not (0.0 < magnitude <= 1.0):
        problems.append(
            f"link_loss magnitude is a probability in (0, 1], "
            f"got {magnitude}"
        )
    if kind == LINK_LATENCY and magnitude <= 0:
        problems.append("link_latency magnitude (extra us) must be > 0")
    if kind == PROCESSOR_SLOWDOWN and magnitude <= 1.0:
        problems.append(
            "processor_slowdown magnitude is a cost multiplier > 1"
        )
    if kind == GRAY_DEGRADE and magnitude <= 1.0:
        problems.append(
            "gray_degrade magnitude is a slowdown multiplier > 1 "
            "(typically 10-50)"
        )
    return problems


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``duration_s`` bounds transient faults (the injector reverts them);
    ``None`` means permanent for the run. ``magnitude`` is the
    kind-specific knob: loss probability for ``link_loss``, extra
    microseconds for ``link_latency``, cost multiplier for
    ``processor_slowdown``; ignored otherwise.
    """

    at_s: float
    kind: str
    target: str = ""
    duration_s: Optional[float] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        problems = _event_problems(
            self.at_s, self.kind, self.target, self.duration_s, self.magnitude
        )
        if problems:
            raise FaultPlanError(problems[0])

    def to_dict(self) -> Dict[str, object]:
        return {
            "at_s": self.at_s,
            "kind": self.kind,
            "target": self.target,
            "duration_s": self.duration_s,
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        try:
            return cls(
                at_s=float(data["at_s"]),  # type: ignore[arg-type]
                kind=str(data["kind"]),
                target=str(data.get("target", "")),
                duration_s=(
                    float(data["duration_s"])  # type: ignore[arg-type]
                    if data.get("duration_s") is not None
                    else None
                ),
                magnitude=float(data.get("magnitude", 0.0)),  # type: ignore[arg-type]
            )
        except KeyError as missing:
            raise FaultPlanError(f"fault event missing field {missing}") from None


@dataclass
class FaultPlan:
    """A full failure scenario: events in time order plus the seed for
    every stochastic decision the faults introduce."""

    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda event: event.at_s)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "events": [event.to_dict() for event in self.events],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")
        if not isinstance(data, dict) or "events" not in data:
            raise FaultPlanError('fault plan JSON needs an "events" list')
        events = [FaultEvent.from_dict(entry) for entry in data["events"]]
        seed = data.get("seed", 0)
        seed_problem = _seed_problem(seed)
        if seed_problem:
            raise FaultPlanError(seed_problem)
        return cls(events=events, seed=seed)

    def validate(self) -> List[str]:
        """Plan-level problems the per-event constructor cannot see:
        two *transient* events of the same (kind, target) whose active
        windows overlap. The injector's reverts are single-valued
        resets (slowdown factor back to 1.0, link conditions back to
        clean), so the first window's revert would silently cancel the
        second fault mid-flight — such plans are rejected rather than
        replayed wrong."""
        problems: List[str] = []
        windows: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for event in self.events:  # already sorted by at_s
            if event.duration_s is None:
                continue
            key = (event.kind, event.target)
            previous = windows.get(key)
            if previous is not None and event.at_s < previous[1]:
                problems.append(
                    f"overlapping transient {event.kind} on "
                    f"{event.target or 'fabric'}: window starting at "
                    f"{event.at_s}s begins before the window "
                    f"[{previous[0]}s, {previous[1]}s) reverts"
                )
            end = event.at_s + event.duration_s
            if previous is None or end > previous[1]:
                windows[key] = (event.at_s, end)
        return problems


def load_fault_plan(path: str):
    """Load a fault-plan JSON file, turning every failure mode —
    unreadable file, invalid JSON, bad kinds, negative times,
    overlapping transient reverts — into span-free ``ADN610``
    diagnostics instead of raised exceptions, mirroring
    :func:`repro.graph.lint.load_graph_spec`. Returns
    ``(plan, diagnostics)``; ``plan`` is ``None`` exactly when loading
    failed."""
    from ..lint.diagnostics import Diagnostic, Severity

    def problem(message: str) -> Diagnostic:
        return Diagnostic(
            code="ADN610",
            severity=Severity.ERROR,
            message=message,
            path=path,
            fix="fix the fault plan; see docs/faults.md for the JSON "
            "shape and the fault-kind catalog",
        )

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return None, [problem(f"cannot read fault plan: {exc}")]
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [problem(f"invalid JSON: {exc}")]
    if not isinstance(data, dict) or "events" not in data:
        return None, [problem('fault plan JSON needs an "events" list')]
    if not isinstance(data["events"], list):
        return None, [problem('"events" must be a list of event objects')]
    diagnostics = []
    events: List[FaultEvent] = []
    for index, raw in enumerate(data["events"]):
        if not isinstance(raw, dict):
            diagnostics.append(
                problem(f"events[{index}]: each event must be a JSON object")
            )
            continue
        missing = [key for key in ("at_s", "kind") if key not in raw]
        if missing:
            diagnostics.append(
                problem(
                    f"events[{index}]: missing required field(s) "
                    f"{', '.join(missing)}"
                )
            )
            continue
        try:
            at_s = float(raw.get("at_s", 0.0))
            kind = str(raw.get("kind", ""))
            target = str(raw.get("target", ""))
            duration_s = (
                float(raw["duration_s"])
                if raw.get("duration_s") is not None
                else None
            )
            magnitude = float(raw.get("magnitude", 0.0))
        except (TypeError, ValueError) as exc:
            diagnostics.append(problem(f"events[{index}]: {exc}"))
            continue
        field_problems = _event_problems(
            at_s, kind, target, duration_s, magnitude
        )
        if field_problems:
            diagnostics.extend(
                problem(f"events[{index}]: {entry}")
                for entry in field_problems
            )
            continue
        events.append(
            FaultEvent(
                at_s=at_s,
                kind=kind,
                target=target,
                duration_s=duration_s,
                magnitude=magnitude,
            )
        )
    seed = data.get("seed", 0)
    seed_problem = _seed_problem(seed)
    if seed_problem:
        diagnostics.append(problem(seed_problem))
    if diagnostics:
        return None, diagnostics
    plan = FaultPlan(events=events, seed=seed)
    overlap_problems = plan.validate()
    if overlap_problems:
        return None, [problem(text) for text in overlap_problems]
    return plan, []


def random_single_fault_plan(
    seed: int,
    horizon_s: float,
    machines: List[str],
    kinds: tuple = DATAPLANE_FAULT_KINDS,
) -> FaultPlan:
    """One random transient fault inside ``horizon_s`` — the chaos
    soak's unit of trouble. Deterministic in ``seed``. Times scale with
    the horizon: the fault lands in the first half of the run and heals
    within a quarter of it."""
    rng = random.Random(seed)
    kind = rng.choice(list(kinds))
    at_s = rng.uniform(horizon_s * 0.05, horizon_s * 0.5)
    duration_s = rng.uniform(horizon_s * 0.05, horizon_s * 0.25)
    target = rng.choice(machines) if kind in _MACHINE_KINDS else ""
    magnitude = 0.0
    if kind == LINK_LOSS:
        magnitude = rng.uniform(0.05, 0.4)
    elif kind == LINK_LATENCY:
        magnitude = rng.uniform(20.0, 200.0)
    elif kind == PROCESSOR_SLOWDOWN:
        magnitude = rng.uniform(2.0, 8.0)
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=at_s,
                kind=kind,
                target=target,
                duration_s=duration_s,
                magnitude=magnitude,
            )
        ],
        seed=seed,
    )


def _random_magnitude(rng: random.Random, kind: str) -> float:
    if kind == LINK_LOSS:
        return rng.uniform(0.05, 0.4)
    if kind == LINK_LATENCY:
        return rng.uniform(20.0, 200.0)
    if kind == PROCESSOR_SLOWDOWN:
        return rng.uniform(2.0, 8.0)
    if kind == GRAY_DEGRADE:
        return rng.uniform(10.0, 50.0)
    return 0.0


def random_multi_fault_plan(
    seed: int,
    horizon_s: float,
    machines: List[str],
    kinds: tuple = FAULT_KINDS,
    events: int = 3,
) -> FaultPlan:
    """``events`` overlapping transient faults inside ``horizon_s`` —
    the concurrent-fault chaos schedule. Deterministic in ``seed``.
    Faults of *different* (kind, target) may overlap freely; repeated
    transients of the same (kind, target) are serialized so the plan
    passes :meth:`FaultPlan.validate` (the injector's reverts are
    single-valued)."""
    rng = random.Random(seed)
    out: List[FaultEvent] = []
    windows: Dict[Tuple[str, str], float] = {}
    for _ in range(max(1, events)):
        kind = rng.choice(list(kinds))
        at_s = rng.uniform(horizon_s * 0.05, horizon_s * 0.6)
        duration_s = rng.uniform(horizon_s * 0.05, horizon_s * 0.25)
        target = rng.choice(machines) if kind in _MACHINE_KINDS else ""
        key = (kind, target)
        busy_until = windows.get(key)
        if busy_until is not None and at_s < busy_until:
            at_s = busy_until + horizon_s * 0.01
        windows[key] = at_s + duration_s
        out.append(
            FaultEvent(
                at_s=at_s,
                kind=kind,
                target=target,
                duration_s=duration_s,
                magnitude=_random_magnitude(rng, kind),
            )
        )
    return FaultPlan(events=out, seed=seed)


def double_crash_plan(
    machines: List[str],
    at_s: float,
    stagger_s: float,
    outage_s: float,
    seed: int = 0,
) -> FaultPlan:
    """Two machine crashes in one blackout window: the second lands
    while the first is still down, so detection and recovery for both
    overlap (the correlated-failure case a single-fault soak never
    exercises)."""
    if len(machines) < 2:
        raise FaultPlanError("double_crash_plan needs two machines")
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=at_s,
                kind=MACHINE_CRASH,
                target=machines[0],
                duration_s=outage_s,
            ),
            FaultEvent(
                at_s=at_s + stagger_s,
                kind=MACHINE_CRASH,
                target=machines[1],
                duration_s=outage_s,
            ),
        ],
        seed=seed,
    )


def partition_during_recovery_plan(
    data_machine: str,
    controller_machine: str,
    crash_at_s: float,
    partition_at_s: float,
    partition_for_s: float,
    seed: int = 0,
) -> FaultPlan:
    """Crash a data machine, then sever the *leader controller's*
    control channel while its recovery is in flight: the leader cannot
    renew its lease or land the re-solved plan, and the standby must
    finish the job — with the epoch fence rejecting the old leader's
    late push when the partition heals."""
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=crash_at_s, kind=MACHINE_CRASH, target=data_machine
            ),
            FaultEvent(
                at_s=partition_at_s,
                kind=CONTROL_PARTITION,
                target=controller_machine,
                duration_s=partition_for_s,
            ),
        ],
        seed=seed,
    )


def controller_crash_during_failover_plan(
    data_machine: str,
    leader_machine: str,
    crash_at_s: float,
    leader_crash_at_s: float,
    leader_outage_s: Optional[float] = None,
    seed: int = 0,
) -> FaultPlan:
    """Crash a data machine and then the leader controller itself while
    it is mid-recovery: the classic orphaned-recovery scenario. With a
    warm standby the journaled recovery resumes after lease expiry;
    without one the mesh stays broken."""
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=crash_at_s, kind=MACHINE_CRASH, target=data_machine
            ),
            FaultEvent(
                at_s=leader_crash_at_s,
                kind=MACHINE_CRASH,
                target=leader_machine,
                duration_s=leader_outage_s,
            ),
        ],
        seed=seed,
    )
