"""The canonical recovery scenario (CLI demo, E2E test, benchmark).

One stateful element — ``SessionTally``, a per-user read-modify-write
hit counter, the least replication-friendly state class
(:mod:`repro.ir.replication` calls it blocking) — is deliberately placed
on a third machine, ``stats-host``, away from both application hosts.
A fault plan crashes that machine mid-workload. What should happen,
end to end:

1. the data plane blackholes RPCs routed at the dead processor; the
   stack's :class:`~repro.runtime.filters.RetryPolicy` converts each
   silent loss into a timed-out attempt and retries;
2. telemetry falls silent for ``stats-host``; the phi-accrual detector
   marks it suspect;
3. the recovery orchestrator re-solves placement on the surviving
   cluster (the solver only knows the ClusterSpec hosts, so the dead
   machine drops out naturally), swaps the plan into the live stack,
   and restores the tally from the checkpointer's warm standby —
   paying only the delta backlog, never the table size;
4. the workload finishes with every issued RPC completed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..compiler.compiler import AdnCompiler
from ..dsl.ast_nodes import ChainDecl
from ..dsl.functions import FunctionRegistry
from ..dsl.parser import parse
from ..dsl.schema import FieldType, RpcSchema
from ..dsl.stdlib import load_stdlib
from ..dsl.validator import validate_program
from ..platforms import Platform
from ..runtime.filters import RetryPolicy
from ..runtime.mrpc import AdnMrpcStack
from ..runtime.message import reset_rpc_ids
from ..runtime.processor import PlacementPlan, PlacementSegment
from ..runtime.telemetry import TelemetryCollector
from ..sim.cluster import Cluster, Simulator, two_machine_cluster
from ..sim.metrics import RunMetrics
from ..sim.workload import ClosedLoopClient
from ..state.checkpoint import Checkpointer
from .detector import HeartbeatFailureDetector
from .injector import FaultInjector, TimelineEntry
from .plan import MACHINE_CRASH, FaultEvent, FaultPlan

if TYPE_CHECKING:
    from ..control.controller import RecoveryOrchestrator, RecoveryReport

#: the machine the stateful element lives on pre-fault
STATS_MACHINE = "stats-host"

#: the workload's users: each RPC bumps one of these tally keys
KEY_SPACE = 16
#: telemetry window, which is also the detector's heartbeat interval
TELEMETRY_INTERVAL_S = 0.005
#: how often the checkpointer streams the tally's delta log
STREAM_INTERVAL_S = 0.002
#: how long the recovery scenario's background processes run
HORIZON_S = 2.0

SCENARIO_SCHEMA = RpcSchema.of(
    "t",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)

#: per-user RMW counter: non-replicable state (UPDATE x = x + 1 cannot
#: run on two replicas), so recovery-by-restore is its only safety net —
#: which is exactly what ``meta { checkpoint: true; }`` requests
SESSION_TALLY_SOURCE = """
element SessionTally {
    meta { checkpoint: true; }
    state tally (username: str KEY, hits: int);
    on request {
        INSERT INTO tally SELECT input.username, 0 FROM input
            WHERE NOT contains(tally, input.username);
        UPDATE tally SET hits = hits + 1 WHERE username == input.username;
        SELECT * FROM input;
    }
    on response {
        SELECT * FROM input;
    }
}
"""


def default_crash_plan(seed: int = 1, crash_at_s: float = 0.01) -> FaultPlan:
    """Crash ``stats-host`` for good (recovery re-homes the element)."""
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=crash_at_s, kind=MACHINE_CRASH, target=STATS_MACHINE
            )
        ],
        seed=seed,
    )


def default_retry_policy(seed: int = 1) -> RetryPolicy:
    """Tuned to outlive the scenario's detection + recovery window."""
    return RetryPolicy(
        max_attempts=12,
        per_attempt_timeout_ms=5.0,
        base_backoff_ms=1.0,
        backoff_multiplier=2.0,
        max_backoff_ms=10.0,
        jitter=0.5,
        deadline_budget_ms=None,
        seed=seed,
    )


@dataclass
class TallyWorld:
    """The SessionTally world both scenario runners share: the cluster
    with ``stats-host``, the stack running the tally there, the
    checkpointer, telemetry, failure detector and fault injector, and
    the closed-loop client that drives it (run by the caller)."""

    sim: Simulator
    cluster: Cluster
    stack: AdnMrpcStack
    fault_plan: FaultPlan
    checkpointer: Checkpointer
    telemetry: TelemetryCollector
    detector: HeartbeatFailureDetector
    injector: FaultInjector
    client: ClosedLoopClient
    total_rpcs: int

    @property
    def metrics(self) -> RunMetrics:
        return self.client.metrics

    @property
    def timeline(self) -> List[TimelineEntry]:
        return self.injector.timeline

    def tally_hits(self) -> int:
        """Total hits currently recorded by the (possibly re-homed)
        SessionTally instance, workload keys only."""
        store = self._tally_store()
        if store is None:
            return 0
        return sum(
            int(row["hits"])
            for row in store.table("tally").rows()
            if str(row["username"]).startswith("user")
        )

    def _tally_store(self):
        for processor in self.stack.processors:
            if "SessionTally" in processor.segment.elements:
                return processor.element_state("SessionTally")
        return None


def _build_tally_world(
    seed: int,
    total_rpcs: int,
    table_rows: int,
    fault_plan: Optional[FaultPlan],
    horizon_s: float,
    concurrency: int = 4,
    retry_policy: Optional[RetryPolicy] = None,
    fold_every: int = 4,
    gray_factor: float = 0.0,
    client_think_s: float = 0.0,
    **protection,
) -> TallyWorld:
    """Build the shared world and start its background processes
    (telemetry, detector, checkpointer, fault injector, in that order)
    for ``horizon_s``. ``protection`` (breaker, retry budget, queue
    limit) goes to the stack. The caller wires a controller to
    ``detector.on_suspect`` and runs ``client``."""
    reset_rpc_ids()
    plan = fault_plan or default_crash_plan(seed=seed)
    policy = retry_policy or default_retry_policy(seed=seed)

    sim = Simulator()
    cluster = two_machine_cluster(sim)
    cluster.add_machine(STATS_MACHINE)

    registry = FunctionRegistry(rng=random.Random(seed))
    program = load_stdlib().merged(parse(SESSION_TALLY_SOURCE))
    program = validate_program(
        program, schema=SCENARIO_SCHEMA, registry=registry
    )
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=("SessionTally",)),
        program,
        SCENARIO_SCHEMA,
    )
    placement = PlacementPlan(
        segments=[
            PlacementSegment(
                platform=Platform.MRPC,
                machine=STATS_MACHINE,
                elements=("SessionTally",),
            )
        ],
        description=f"SessionTally on {STATS_MACHINE} (pre-fault)",
    )
    stack = AdnMrpcStack(
        sim,
        cluster,
        chain,
        SCENARIO_SCHEMA,
        registry,
        plan=placement,
        retry_policy=policy,
        **protection,
    )

    # resident state: rows that predate the workload. They ride the
    # checkpointer's initial shadow, so a crash later must NOT pay for
    # them again — that is the property the benchmark pins.
    store = stack.processors[0].element_state("SessionTally")
    for index in range(table_rows):
        store.table("tally").insert_values([f"resident{index}", 1])

    checkpointer = Checkpointer(
        sim, stream_interval_s=STREAM_INTERVAL_S, fold_every=fold_every
    )
    checkpointer.watch(
        "SessionTally",
        store,
        live_of=lambda: cluster.machine_up(STATS_MACHINE),
    )

    telemetry = TelemetryCollector(sim, interval_s=TELEMETRY_INTERVAL_S)
    telemetry.register_stack(stack)
    detector = HeartbeatFailureDetector(
        sim, heartbeat_interval_s=TELEMETRY_INTERVAL_S, gray_factor=gray_factor
    )
    telemetry.add_sink(detector.sink)
    for _, machine in stack.plan.element_locations().values():
        detector.expect(machine)

    injector = FaultInjector(sim, cluster)
    injector.register_stack(stack)

    sim.process(telemetry.run(horizon_s))
    sim.process(detector.run(horizon_s))
    sim.process(checkpointer.run(horizon_s))
    sim.process(injector.run(plan))

    def fields(rng: random.Random, index: int):
        return {
            "payload": b"x" * 64,
            "username": f"user{rng.randrange(KEY_SPACE)}",
            "obj_id": rng.randrange(1 << 12),
        }

    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=concurrency,
        total_rpcs=total_rpcs,
        seed=seed,
        fields_fn=fields,
        think_s=client_think_s,
    )
    return TallyWorld(
        sim=sim,
        cluster=cluster,
        stack=stack,
        fault_plan=plan,
        checkpointer=checkpointer,
        telemetry=telemetry,
        detector=detector,
        injector=injector,
        client=client,
        total_rpcs=total_rpcs,
    )


@dataclass
class ScenarioResult(TallyWorld):
    """Everything the callers assert on or print."""

    orchestrator: RecoveryOrchestrator
    table_rows: int

    @property
    def report(self) -> Optional[RecoveryReport]:
        reports = self.orchestrator.reports
        return reports[0] if reports else None


def run_recovery_scenario(
    seed: int = 1,
    total_rpcs: int = 3000,
    concurrency: int = 4,
    table_rows: int = 500,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fold_every: int = 4,
    circuit_breaker=None,
    retry_budget=None,
    queue_limit: Optional[int] = None,
    client_think_s: float = 0.0,
) -> ScenarioResult:
    """Build the scenario, run it to completion, return the evidence.

    One :class:`~repro.control.controller.RecoveryOrchestrator` acts on
    the detector's suspicions. Fully deterministic in ``seed`` (plus
    the fault plan's own seed): identical inputs reproduce identical
    timelines, metrics, and recovery reports.
    """
    # repro.control.resilience builds on this module, so the controller
    # package is imported where it is used, not at module scope
    from ..control.controller import RecoveryOrchestrator

    world = _build_tally_world(
        seed,
        total_rpcs,
        table_rows,
        fault_plan,
        HORIZON_S,
        concurrency=concurrency,
        retry_policy=retry_policy,
        fold_every=fold_every,
        client_think_s=client_think_s,
        circuit_breaker=circuit_breaker,
        retry_budget=retry_budget,
        queue_limit=queue_limit,
    )
    orchestrator = RecoveryOrchestrator(
        world.sim,
        world.stack,
        SCENARIO_SCHEMA,
        checkpointer=world.checkpointer,
        telemetry=world.telemetry,
        detector=world.detector,
        crash_times=world.injector.crash_times,
    )
    world.detector.on_suspect(orchestrator.suspect_sink)
    world.client.run(limit_s=30.0)
    return ScenarioResult(
        **vars(world), orchestrator=orchestrator, table_rows=table_rows
    )
