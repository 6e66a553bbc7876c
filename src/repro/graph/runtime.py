"""Graph-aware runtime: one ADN hop per RPC edge, composed into a
runnable multi-service application.

Each edge of a :class:`~repro.graph.model.ServiceGraph` becomes one
:class:`~repro.runtime.mrpc.AdnMrpcStack` spanning the machines the
graph placement assigned its endpoints. The server handler installed on
every non-leaf service fans out to that service's outgoing edges *in
parallel* and aggregates the answers, so a request entering the graph at
``productpage`` really traverses ``reviews`` and ``ratings`` through
three independent element chains.

Two things ride every hop end to end:

* **deadline budget** — the caller's absolute deadline enters each hop
  via ``deadline_at``; the hop's own ``deadline_budget_ms`` can only
  tighten it (min-merge in :func:`~repro.runtime.filters.wrap_retry_policy`),
  the remaining budget crosses each wire as a relative header field, and
  every downstream server boundary drops already-expired requests before
  spending application service time;
* **priority** — an ordinary schema application field, so it crosses
  every hop (destination apps read all schema fields) and admission
  controllers anywhere in the graph can shed low-priority work first.

Failure semantics: a *required* child edge that fails aborts the parent
RPC at the server boundary. Failure classes a circuit breaker counts
(``Timeout``, ``DeadlineExpired``, ``Shed``, ...) propagate upstream
under their own token — that is what lets a caller's breaker open when a
service *two hops down* crashes — while application-level aborts (an ACL
denial) surface as ``downstream:<edge>`` so upstream breakers do not
trip on a working service saying no.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Generator, List, Optional, Tuple

from ..dsl.functions import FunctionRegistry
from ..dsl.schema import RpcSchema
from ..errors import GraphError
from ..overload import (
    CIRCUIT_OPEN,
    AdmissionConfig,
    CircuitBreakerPolicy,
    RetryBudgetConfig,
)
from ..overload.budget import RetryPolicy, attempt_timeout_ms
from ..runtime.filters import BREAKER_FAILURES
from ..runtime.message import RpcOutcome
from ..runtime.mrpc import ABORT_KEY, AdnMrpcStack
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from .model import EdgeKey, EdgeSpec, ServiceGraph
from .placement import GraphPlacement

#: downstream failure classes re-raised upstream under their own token
#: (so retry policies and breakers see the real failure class);
#: everything else is an application answer and propagates as
#: ``downstream:<edge>``
PROPAGATED_FAILURES = frozenset(BREAKER_FAILURES | {CIRCUIT_OPEN})

#: plain per-service logic: ``fn(request, child_outcomes) -> overrides``
#: where ``child_outcomes`` is ``[(EdgeSpec, RpcOutcome), ...]`` for the
#: service's outgoing edges (empty at leaves)
ServiceLogic = Callable[[dict, list], Optional[dict]]


def build_graph_cluster(
    sim: Simulator,
    placement: GraphPlacement,
    costs=None,
    programmable_switch: bool = False,
) -> Cluster:
    """A cluster with every machine the placement references: the solve
    pool plus any machines services were pinned to outside it. Machines
    that host a SmartNIC segment in some edge plan get a NIC; a switch
    segment anywhere makes the ToR programmable (offloaded edge plans
    must be realizable without the caller re-deriving the hardware)."""
    from ..platforms import Platform
    from .placement import DEFAULT_MACHINE_CORES

    nic_machines = {
        segment.machine
        for plan in placement.edge_plans.values()
        for segment in plan.segments
        if segment.platform is Platform.SMARTNIC
    }
    programmable_switch = programmable_switch or any(
        segment.platform is Platform.SWITCH_P4
        for plan in placement.edge_plans.values()
        for segment in plan.segments
    )
    cluster = Cluster(sim, costs=costs, programmable_switch=programmable_switch)
    for spec in placement.machines:
        cluster.add_machine(
            spec.name,
            cores=spec.cores,
            has_smartnic=spec.name in nic_machines,
        )
    for machine in placement.service_machines.values():
        if machine not in cluster.machines:
            cluster.add_machine(
                machine,
                cores=DEFAULT_MACHINE_CORES,
                has_smartnic=machine in nic_machines,
            )
    return cluster


@dataclass
class EdgeStats:
    """Per-edge call accounting, kept by the graph runtime (the stacks
    underneath keep their own richer stats)."""

    calls: int = 0
    ok: int = 0
    aborted_by: Dict[str, int] = field(default_factory=dict)
    latency_s_total: float = 0.0

    @property
    def aborted(self) -> int:
        return self.calls - self.ok

    def record(self, outcome: RpcOutcome) -> None:
        self.calls += 1
        self.latency_s_total += outcome.completed_at - outcome.issued_at
        if outcome.ok:
            self.ok += 1
        else:
            token = outcome.aborted_by
            self.aborted_by[token] = self.aborted_by.get(token, 0) + 1


class GraphRuntime:
    """Instantiates and drives a service graph on one simulator.

    ``entry_call(**fields)`` is the mesh's external request: it fans out
    over the entry service's outgoing edges exactly like an internal
    service handler would, and returns a synthetic
    :class:`~repro.runtime.message.RpcOutcome` that is ``ok`` iff every
    required edge answered ok. Use it as the call function of any
    workload generator.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        placement: GraphPlacement,
        schema: RpcSchema,
        service_logic: Optional[Dict[str, ServiceLogic]] = None,
        admission: Optional[AdmissionConfig] = None,
        retry_budget: Optional[RetryBudgetConfig] = None,
        breaker_policy: Optional[CircuitBreakerPolicy] = None,
        entry: Optional[str] = None,
        seed: int = 0,
        edge_app_reads: Optional[Dict[EdgeKey, FrozenSet[str]]] = None,
        sanitizer=None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.placement = placement
        self.graph: ServiceGraph = placement.graph
        self.schema = schema
        self.service_logic = dict(service_logic or {})
        #: default knobs applied to every edge that opts in via its spec
        self._admission_default = admission or AdmissionConfig()
        self._retry_budget_default = retry_budget or RetryBudgetConfig()
        self._breaker_default = breaker_policy or CircuitBreakerPolicy()
        #: mesh-proven live fields per edge (repro.analysis.graph's
        #: GraphFieldPlan.edge_app_reads()); edges present here get wire
        #: headers narrowed to what the mesh actually consumes
        self._edge_app_reads = dict(edge_app_reads or {})
        #: one shadow exactly-once checker shared by every edge stack
        #: (repro.state.StateSanitizer); None runs the mesh unchecked
        self.sanitizer = sanitizer
        self.stacks: Dict[EdgeKey, AdnMrpcStack] = {}
        self.registries: Dict[EdgeKey, FunctionRegistry] = {}
        self.edge_stats: Dict[EdgeKey, EdgeStats] = {}
        self.entry_calls = 0
        self.entry_ok = 0

        entries = self.graph.entry_services()
        if entry is not None:
            if entry not in self.graph.services:
                raise GraphError(f"unknown entry service {entry!r}")
            self.entry = entry
        elif len(entries) == 1:
            self.entry = entries[0]
        else:
            raise GraphError(
                f"graph {self.graph.name!r} has entry services "
                f"{entries}; pass entry= to pick one"
            )

        for index, edge in enumerate(self.graph.edges):
            self._build_stack(edge, seed + index)

    # -- construction --------------------------------------------------------

    def _retry_policy(self, edge: EdgeSpec, seed: int) -> Optional[RetryPolicy]:
        """An edge gets a policy wrapper when it retries, carries its
        own deadline budget, or needs a per-attempt timeout to survive
        blackholes. An unshaped edge still *inherits* deadlines — the
        raw path reads ``deadline_at`` directly."""
        if (
            edge.max_attempts <= 1
            and edge.deadline_budget_ms is None
            and edge.per_attempt_timeout_ms is None
        ):
            return None
        return RetryPolicy(
            max_attempts=edge.max_attempts,
            per_attempt_timeout_ms=attempt_timeout_ms(
                edge.per_attempt_timeout_ms, edge.deadline_budget_ms
            ),
            deadline_budget_ms=edge.deadline_budget_ms,
            seed=seed,
        )

    def _edge_admission(self, edge: EdgeSpec) -> Optional[AdmissionConfig]:
        if not edge.admission:
            return None
        if edge.hash_fields:
            # the spec's declared fate-hash overrides the runtime-wide
            # default (ADN604 checks siblings agree statically)
            return replace(
                self._admission_default, hash_fields=edge.hash_fields
            )
        return self._admission_default

    def _build_stack(self, edge: EdgeSpec, seed: int) -> None:
        registry = FunctionRegistry(rng=random.Random(seed))
        policy = self._retry_policy(edge, seed)
        stack = AdnMrpcStack(
            self.sim,
            self.cluster,
            self.placement.edge_chains[edge.key],
            self.schema,
            registry,
            plan=self.placement.edge_plans[edge.key],
            client_service=edge.src,
            server_service=edge.dst,
            server_replicas=self.graph.services[edge.dst].replicas,
            server_handler=self._make_handler(edge.dst),
            retry_policy=policy,
            queue_limit=edge.queue_limit,
            admission=self._edge_admission(edge),
            retry_budget=(
                self._retry_budget_default if edge.max_attempts > 1 else None
            ),
            circuit_breaker=self._breaker_default if edge.breaker else None,
            client_machine=self.placement.machine_of(edge.src),
            server_machine=self.placement.machine_of(edge.dst),
            client_thread=f"{edge.src}-app",
            server_thread=f"{edge.dst}-app",
            l2_tag=edge.name,
            propagate_deadline=True,
            app_reads=self._edge_app_reads.get(edge.key),
            sanitizer=self.sanitizer,
        )
        self.stacks[edge.key] = stack
        self.registries[edge.key] = registry
        self.edge_stats[edge.key] = EdgeStats()

    def _make_handler(self, service: str):
        """The server handler for every edge terminating at ``service``:
        fan out to the service's outgoing edges, then run its local
        logic. Child stacks resolve lazily through ``self.stacks`` so
        edge build order never matters. Leaves with no local logic keep
        the default echo handler (``None``)."""
        children = self.graph.outgoing(service)
        if not children and service not in self.service_logic:
            return None

        def handler(request: dict, deadline_at: Optional[float]) -> Generator:
            outcomes: List[Tuple[EdgeSpec, RpcOutcome]] = []
            failure: Optional[str] = None
            if children:
                fields = self._inherited_fields(request)
                processes = [
                    self.sim.process(
                        self._edge_call(child, fields, deadline_at)
                    )
                    for child in children
                ]
                results = yield self.sim.all_of(processes)
                for child, outcome in results:
                    outcomes.append((child, outcome))
                    if failure is None and child.required and not outcome.ok:
                        failure = self._propagate_token(child, outcome)
            if failure is not None:
                return {ABORT_KEY: failure}
            logic = self.service_logic.get(service)
            if logic is not None:
                return dict(logic(request, outcomes) or {})
            return {}

        return handler

    @staticmethod
    def _propagate_token(edge: EdgeSpec, outcome: RpcOutcome) -> str:
        if outcome.aborted_by in PROPAGATED_FAILURES:
            return outcome.aborted_by
        return f"downstream:{edge.name}"

    def _inherited_fields(self, request: dict) -> dict:
        """Application fields a service copies onto its child RPCs —
        notably ``priority``, which is how end-to-end criticality
        survives fan-out. (Header planning keeps every schema field on
        the wire because destination apps read them all.)"""
        return {
            name: request[name]
            for name in self.schema.application_field_names()
            if name in request
        }

    # -- driving -------------------------------------------------------------

    def _edge_call(
        self,
        edge: EdgeSpec,
        fields: dict,
        deadline_at: Optional[float],
    ) -> Generator:
        call_fields = dict(fields)
        if deadline_at is not None:
            call_fields["deadline_at"] = deadline_at
        key = edge.key
        outcome = yield from self.stacks[key].call(**call_fields)
        self.edge_stats[key].record(outcome)
        return (edge, outcome)

    def entry_call(self, **fields: object) -> Generator:
        """One external request into the entry service; fans out over
        its outgoing edges and aggregates. An optional ``deadline_at``
        field bounds the whole traversal (each edge's own budget can
        only tighten it further)."""
        issued_at = self.sim.now
        raw_deadline = fields.pop("deadline_at", None)
        deadline_at = (
            float(raw_deadline) if raw_deadline is not None else None  # type: ignore[arg-type]
        )
        children = self.graph.outgoing(self.entry)
        processes = [
            self.sim.process(self._edge_call(child, dict(fields), deadline_at))
            for child in children
        ]
        results = yield self.sim.all_of(processes)
        failure = ""
        for child, outcome in results:
            if not failure and child.required and not outcome.ok:
                failure = self._propagate_token(child, outcome)
        self.entry_calls += 1
        if not failure:
            self.entry_ok += 1
        return RpcOutcome(
            request=dict(fields),
            response={
                "kind": "response",
                "status": f"aborted:{failure}" if failure else "ok",
            },
            issued_at=issued_at,
            completed_at=self.sim.now,
            aborted_by=failure,
        )

    # -- observability -------------------------------------------------------

    def stack(self, src: str, dst: str) -> AdnMrpcStack:
        try:
            return self.stacks[(src, dst)]
        except KeyError:
            raise GraphError(f"no edge {src}->{dst}") from None

    def stats(self, src: str, dst: str) -> EdgeStats:
        return self.edge_stats[(src, dst)]

    # -- control-plane reconfiguration ---------------------------------------

    @property
    def stale_plans_rejected(self) -> int:
        """Mesh-wide count of fenced (refused) stale config pushes."""
        return sum(s.stale_plans_rejected for s in self.stacks.values())

    @property
    def stale_plans_applied(self) -> int:
        """Mesh-wide split-brain counter: stale plans that were applied
        because a stack ran with its fence off. Zero whenever fencing
        is on — the invariant the resilience benchmark pins."""
        return sum(s.stale_plans_applied for s in self.stacks.values())

    def mesh_stats(self) -> Dict[str, object]:
        """Mesh-wide roll-up: entry goodput plus per-edge counters."""
        return {
            "entry_calls": self.entry_calls,
            "entry_ok": self.entry_ok,
            "edges": {
                f"{src}->{dst}": {
                    "calls": stats.calls,
                    "ok": stats.ok,
                    "aborted_by": dict(stats.aborted_by),
                }
                for (src, dst), stats in self.edge_stats.items()
            },
        }
