"""Cross-service placement: assign graph services to machines, then
solve each edge's element chain under the resulting pair of hosts.

The single-hop :class:`~repro.control.placement.PlacementSolver` already
answers "where does each element of *one* chain run, given a client
machine and a server machine". The graph layer's job is the step above:
pick the machines. Pinned services keep their pin; the rest are
balanced least-loaded-first by core demand (app replicas plus one
shared mRPC engine core per occupied machine), callers-first in
topological order. Each edge then gets an ordinary
per-chain solve with ``client_machine``/``server_machine`` set to the
endpoints' hosts — the whole point of parametrizing those out of the
single-hop stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.compiler import AdnCompiler, CompiledChain
from ..control.placement import ClusterSpec, PlacementRequest, solve_placement
from ..dsl.ast_nodes import ChainDecl, Program
from ..dsl.schema import RpcSchema
from ..errors import GraphError
from ..lint.diagnostics import Diagnostic
from ..offload.split import SplitDecision, solve_offload_plan
from ..runtime.processor import PlacementPlan
from .model import EdgeKey, ServiceGraph

#: cores granted to each default machine; graph meshes co-locate many
#: app threads per host, unlike the paper's two-Xeon testbed
DEFAULT_MACHINE_CORES = 64


@dataclass(frozen=True)
class MachineSpec:
    """One host available to the graph placement solve."""

    name: str
    cores: int = DEFAULT_MACHINE_CORES


def default_machine_pool(count: int = 4) -> List[MachineSpec]:
    return [MachineSpec(name=f"node-{i}") for i in range(count)]


@dataclass
class GraphPlacement:
    """Output of :func:`solve_graph_placement`."""

    graph: ServiceGraph
    #: service name -> machine name
    service_machines: Dict[str, str] = field(default_factory=dict)
    #: edge key -> solved single-hop plan for that edge's chain
    edge_plans: Dict[EdgeKey, PlacementPlan] = field(default_factory=dict)
    #: edge key -> compiled chain (reused by the runtime; compiling is
    #: the expensive half of a solve)
    edge_chains: Dict[EdgeKey, CompiledChain] = field(default_factory=dict)
    machines: List[MachineSpec] = field(default_factory=list)
    #: edge key -> split decision, for edges that requested an offload
    #: tier (the host-fallback story lives in its diagnostics)
    edge_offloads: Dict[EdgeKey, SplitDecision] = field(default_factory=dict)
    #: ADN406 etc. raised while solving (capacity fallbacks — the solve
    #: still succeeds)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def machine_of(self, service: str) -> str:
        try:
            return self.service_machines[service]
        except KeyError:
            raise GraphError(f"no placement for service {service!r}") from None

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.name,
            "service_machines": dict(self.service_machines),
            "edges": {
                f"{src}->{dst}": [
                    {
                        "elements": list(segment.elements),
                        "platform": segment.platform.value,
                        "machine": segment.machine,
                    }
                    for segment in plan.segments
                ]
                for (src, dst), plan in self.edge_plans.items()
            },
        }


def _core_demand(graph: ServiceGraph, service: str) -> int:
    """Host cores a service occupies: one per server-side app replica,
    plus one for its client-side issue thread (services that call out
    get a distinct thread pool for issuing RPCs)."""
    return max(1, graph.services[service].replicas) + 1


def assign_service_machines(
    graph: ServiceGraph,
    machines: Sequence[MachineSpec],
) -> Dict[str, str]:
    """Map every service to a machine.

    Pins win outright (and may name machines outside the pool — the
    caller promised they exist). Unpinned services go least-loaded-first
    in topological order, reserving one core per machine for the shared
    mRPC engine thread the runtime creates there.
    """
    if not machines:
        raise GraphError("graph placement needs at least one machine")
    pool = {spec.name: spec for spec in machines}
    # free cores per pool machine, minus the engine core reserved on use
    free: Dict[str, int] = {spec.name: spec.cores for spec in machines}
    occupied: set = set()

    def charge(machine: str, cores: int) -> None:
        if machine not in free:
            return  # pinned outside the pool: caller's capacity problem
        need = cores + (0 if machine in occupied else 1)
        if free[machine] < need:
            raise GraphError(
                f"machine {machine!r} out of cores "
                f"({free[machine]} free, {need} needed)"
            )
        if machine not in occupied:
            occupied.add(machine)
            free[machine] -= 1
        free[machine] -= cores

    assignment: Dict[str, str] = {}
    for service in graph.topological_order():
        spec = graph.services[service]
        demand = _core_demand(graph, service)
        if spec.machine is not None:
            assignment[service] = spec.machine
            charge(spec.machine, demand)
            continue
        # least-loaded first: a mesh wants services *spread*, not packed
        # — every occupied machine funnels its hops through one shared
        # engine thread, so packing concentrates the bottleneck
        candidates = sorted(
            pool, key=lambda name: (-free[name], list(pool).index(name))
        )
        for candidate in candidates:
            need = demand + (0 if candidate in occupied else 1)
            if free[candidate] >= need:
                assignment[service] = candidate
                charge(candidate, demand)
                break
        else:
            raise GraphError(
                f"no machine has {demand} free cores for service "
                f"{service!r} (pool: "
                + ", ".join(f"{m}={free[m]}" for m in pool)
                + ")"
            )
    return assignment


def solve_graph_placement(
    graph: ServiceGraph,
    program: Program,
    schema: RpcSchema,
    strategy: str = "software",
    machines: Optional[Sequence[MachineSpec]] = None,
    compiler: Optional[AdnCompiler] = None,
) -> GraphPlacement:
    """Assign services to machines and solve every edge's chain.

    Raises :class:`GraphError` for topology-level failures and lets
    per-edge :class:`~repro.errors.PlacementError` propagate — an edge
    whose chain cannot be placed is a real deployment error, not
    something to paper over.
    """
    pool = list(machines) if machines is not None else default_machine_pool()
    assignment = assign_service_machines(graph, pool)
    compiler = compiler or AdnCompiler()

    placement = GraphPlacement(
        graph=graph, service_machines=assignment, machines=pool
    )
    for edge in graph.edges:
        decl = ChainDecl(src=edge.src, dst=edge.dst, elements=edge.elements)
        chain = compiler.compile_chain(
            decl, program, schema, app_name=graph.name
        )
        if edge.offload is not None:
            # split-chain compilation: the device-legal prefix runs on
            # the hardware in front of the destination host; capacity
            # refusals fall back to host placement with a diagnostic
            plan, decision = solve_offload_plan(
                chain,
                schema,
                edge.offload,
                server_machine=assignment[edge.dst],
                queue_limit=edge.queue_limit,
                path=f"{graph.name}:{edge.name}",
            )
            placement.edge_offloads[edge.key] = decision
            placement.diagnostics.extend(decision.diagnostics)
        else:
            cluster = ClusterSpec(
                client_machine=assignment[edge.src],
                server_machine=assignment[edge.dst],
            )
            plan = solve_placement(
                PlacementRequest(
                    chain=chain,
                    schema=schema,
                    cluster=cluster,
                    strategy=strategy,
                )
            )
        placement.edge_chains[edge.key] = chain
        placement.edge_plans[edge.key] = plan
    return placement
