"""The benchmark's three workloads, built from the simulator's public API.

Each builder does the workload's whole set-up (compile, placement,
cluster and stacks) and returns a :class:`Workload` whose ``run()`` is
the measured phase. After the run, the workload reports its simulated
results, checks invariants on them from the outside, and hashes them
into a digest that must repeat exactly for one seed.

Seeds: the benchmark seed ``s`` drives the client's field generator and
the seeded components (element ``rand()`` registries, admission, breaker
and retry draws, the mesh arrival process). The element registry of the
two Figure-5 workloads is seeded with ``s - 1``, so ``s = 1`` gives
exactly the ``FunctionRegistry()`` default the Figure-5 harness in
``benchmarks/`` uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.baselines import EnvoyMeshStack
from repro.compiler.compiler import AdnCompiler
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.faults.injector import FaultInjector
from repro.faults.plan import MACHINE_CRASH, FaultEvent, FaultPlan
from repro.graph import GraphRuntime, build_graph_cluster, hotel_mesh_graph
from repro.graph.placement import solve_graph_placement
from repro.graph.scenario import MESH_SCHEMA, mesh_program
from repro.graph.workload import MeshWorkload, MeshWorkloadConfig
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.overload import AdmissionConfig, CircuitBreakerPolicy, RetryBudgetConfig
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.runtime.mrpc import default_plan
from repro.sim import ClosedLoopClient, CostModel, Simulator, two_machine_cluster

from catalog import THREAD_ROLES

#: the Figure-5 request schema (as in benchmarks/bench_harness.py)
FIG5_SCHEMA = RpcSchema.of(
    "bench",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)
#: Figure 5's chain
FIG5_ELEMENTS = ("Logging", "Acl", "Fault")
#: which Envoy sidecar hosts each element's filter
ENVOY_FILTER_SIDE = {"Logging": "client", "Fault": "client", "Acl": "server"}
#: the Figure-5 harness sizing: closed loop of 128 clients, 4,000
#: measured RPCs after 400 warm-up RPCs
FIG5_CONCURRENCY = 128
FIG5_RPCS = 4000
FIG5_WARMUP = FIG5_RPCS // 10

#: the hotel mesh at 3x its 800 rps peak, with the machine hosting
#: ``rate`` down from 0.1 s for 0.04 s (as benchmarks/test_graph_e2e.py)
MESH_BASE_RPS = 2400.0
MESH_DURATION_S = 0.75
MESH_DRAIN_S = 0.1
MESH_CRASH_AT_S = 0.1
MESH_CRASH_FOR_S = 0.04

#: every workload must give p99 at least ten samples beyond it
MIN_LATENCY_SAMPLES = 1000


class SetupTimer:
    """Wall time of named set-up phases (compile, placement)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {"compile": 0.0, "placement": 0.0}

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started

    def timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.phase(name):
                return fn(*args, **kwargs)

        return wrapper


class Workload:
    """One built workload: ``run()`` is the measured phase."""

    #: client RPCs issued before measurement starts
    warmup = 0

    def __init__(self, sim: Simulator, cluster):
        self.sim = sim
        self.cluster = cluster
        self.metrics = None

    # -- per workload ----------------------------------------------------------

    def run(self) -> None:
        raise NotImplementedError

    def wire_bytes(self) -> int:
        raise NotImplementedError

    def layer_counters(self) -> Dict[str, float]:
        return {}

    def digest_parts(self) -> dict:
        return {}

    def instrument(self, tracer) -> None:
        """Trace what the tracer's class patches cannot reach."""

    # -- shared --------------------------------------------------------------

    def rpcs(self) -> int:
        """Client RPCs (user requests) issued in the run, warm-up
        included: the denominator of every per-RPC layer rate."""
        return self.metrics.issued

    def measured_issued(self) -> int:
        return self.metrics.issued - self.warmup

    def completed(self) -> int:
        """Client RPCs completed in the run, warm-up included."""
        return self.metrics.completed + self.warmup

    def resources(self):
        for machine_name in sorted(self.cluster.machines):
            machine = self.cluster.machines[machine_name]
            for key in sorted(machine.threads):
                yield machine.threads[key]
            if machine.smartnic_cores is not None:
                yield machine.smartnic_cores

    def sim_metrics(self) -> Dict[str, float]:
        metrics = self.metrics
        metrics.cpu_busy_s = self.cluster.cpu_busy_by_machine()
        issued = self.measured_issued()
        ok = metrics.completed - metrics.aborted
        return {
            "sim_throughput_rps": metrics.throughput_rps,
            "sim_goodput_rps": ok / metrics.elapsed_s,
            "sim_p50_us": metrics.latency.percentile(50) * 1e6,
            "sim_p99_us": metrics.latency.percentile(99) * 1e6,
            "sim_cpu_us_per_rpc": metrics.cpu_us_per_rpc(),
            "sim_wire_bytes_per_rpc": self.wire_bytes() / self.rpcs(),
            "failed_ratio": (issued - ok) / issued,
            "latency_samples": len(metrics.latency),
        }

    def thread_metrics(self) -> Dict[str, float]:
        """Per-role thread metrics, read from the ``Resource`` counters
        after the run (simulated time): busy time summed over every
        machine's pool of that role, and queue wait and utilization of
        the busiest pool, the one that bounds the path."""
        rpcs = self.rpcs()
        out: Dict[str, float] = {}
        for role in THREAD_ROLES:
            pools = [
                r for r in self.resources() if r.name.rsplit("/", 1)[-1] == role
            ]
            busiest = max(
                pools, key=lambda r: r.busy_time / r.capacity_seconds(), default=None
            )
            prefix = f"sim.thread.{role}."
            out[prefix + "busy_us_per_rpc"] = (
                sum(r.busy_time for r in pools) * 1e6 / rpcs
            )
            out[prefix + "wait_us_per_grant"] = (
                busiest.queue_wait_s_total * 1e6 / busiest.grants
                if busiest is not None and busiest.grants
                else 0.0
            )
            out[prefix + "utilization"] = (
                busiest.busy_time / busiest.capacity_seconds()
                if busiest is not None
                else 0.0
            )
        grants = sum(r.grants for r in self.resources())
        rejects = sum(r.rejected for r in self.resources())
        out["sim.resources.grants_per_rpc"] = grants / rpcs
        out["sim.resources.rejects_per_rpc"] = rejects / rpcs
        return out

    def check(self) -> List[str]:
        errors = []
        now = self.sim.now
        if not math.isfinite(now) or now <= 0.0:
            errors.append(f"final clock {now!r} is not finite and positive")
        for resource in self.resources():
            limit = resource.capacity_seconds()
            if resource.busy_time > limit * (1 + 1e-9) + 1e-12:
                errors.append(
                    f"{resource.name}: busy {resource.busy_time} s exceeds "
                    f"capacity x elapsed {limit} s"
                )
        samples = len(self.metrics.latency)
        if samples < MIN_LATENCY_SAMPLES:
            errors.append(
                f"{samples} latency samples, fewer than {MIN_LATENCY_SAMPLES}"
            )
        return errors

    def digest(self) -> str:
        metrics = self.metrics
        state = {
            "latency_s": metrics.latency.samples,
            "issued": metrics.issued,
            "completed": metrics.completed,
            "aborted": metrics.aborted,
            "elapsed_s": metrics.elapsed_s,
            "clock": self.sim.now,
            "wire_bytes": self.wire_bytes(),
            "resources": [
                [
                    r.name,
                    r.busy_time,
                    r.grants,
                    r.served,
                    r.rejected,
                    r.queue_wait_s_total,
                ]
                for r in self.resources()
            ],
            "extra": self.digest_parts(),
        }
        encoded = json.dumps(state, sort_keys=True).encode()
        return hashlib.sha256(encoded).hexdigest()


class ClosedLoopWorkload(Workload):
    """A Figure-5 stack driven by the paper's closed-loop client."""

    warmup = FIG5_WARMUP

    def __init__(self, sim, cluster, stack, seed: int):
        super().__init__(sim, cluster)
        self.stack = stack
        self.client = ClosedLoopClient(
            sim,
            stack.call,
            concurrency=FIG5_CONCURRENCY,
            total_rpcs=FIG5_RPCS,
            warmup_rpcs=FIG5_WARMUP,
            seed=seed,
        )

    def run(self) -> None:
        self.metrics = self.client.run()

    def wire_bytes(self) -> int:
        return self.stack.wire_bytes_total

    def layer_counters(self) -> Dict[str, float]:
        # the Envoy stack never loses an RPC
        return {"runtime.mrpc.lost": getattr(self.stack, "rpcs_lost", 0)}

    def check(self) -> List[str]:
        errors = super().check()
        metrics = self.metrics
        if metrics.issued != metrics.completed + FIG5_WARMUP:
            errors.append(
                f"closed loop issued {metrics.issued} RPCs but completed "
                f"{metrics.completed} + {FIG5_WARMUP} warm-up"
            )
        if not metrics.check_littles_law(FIG5_CONCURRENCY):
            errors.append(
                "Little's law fails: throughput x mean latency = "
                f"{metrics.throughput_rps * metrics.latency.mean:.2f}, "
                f"concurrency {FIG5_CONCURRENCY}"
            )
        return errors


class HotelMesh(Workload):
    """The 12-service hotel mesh, open loop at 3x peak with a crash."""

    def __init__(self, sim, cluster, runtime, workload, injector):
        super().__init__(sim, cluster)
        self.runtime = runtime
        self.workload = workload
        self.injector = injector
        # the open loop's lateness: each accepted arrival's due time,
        # and the simulated time its request was issued
        self._due: deque = deque()
        self.lateness_s: List[float] = []
        fields_for = workload.fields_for
        entry_call = workload.call

        def fields_at_due_time(index):
            self._due.append(sim.now)
            return fields_for(index)

        def issue(**fields):
            self.lateness_s.append(sim.now - self._due.popleft())
            return entry_call(**fields)

        workload.fields_for = fields_at_due_time
        workload.call = issue

    def run(self) -> None:
        self.metrics = self.workload.run(drain_s=MESH_DRAIN_S)

    def wire_bytes(self) -> int:
        return sum(stack.wire_bytes_total for stack in self.runtime.stacks.values())

    def layer_counters(self) -> Dict[str, float]:
        stacks = self.runtime.stacks.values()
        stats = self.runtime.edge_stats.values()
        return {
            "runtime.mrpc.lost": sum(stack.rpcs_lost for stack in stacks),
            "graph.runtime.edge_calls": sum(s.calls for s in stats),
            "graph.runtime.retries": sum(
                stack.retry_stats.retries
                for stack in stacks
                if stack.retry_stats is not None
            ),
        }

    def check(self) -> List[str]:
        errors = super().check()
        metrics = self.metrics
        runtime = self.runtime
        if metrics.completed != metrics.issued:
            errors.append(
                f"mesh: {metrics.issued - metrics.completed} of "
                f"{metrics.issued} user requests never completed"
            )
        if (runtime.entry_calls, runtime.entry_ok) != (
            metrics.completed,
            metrics.completed - metrics.aborted,
        ):
            errors.append("mesh: entry counters disagree with the workload")
        if len(self.lateness_s) != metrics.issued or self._due:
            errors.append("mesh: arrivals and issued requests do not pair up")
        if any(late != 0.0 for late in self.lateness_s):
            errors.append(
                f"mesh: open-loop generator late by up to "
                f"{max(self.lateness_s)} s"
            )
        for key, stats in runtime.edge_stats.items():
            edge = "->".join(key)
            stack = runtime.stacks[key]
            answered = stats.ok + sum(stats.aborted_by.values())
            if stats.calls != answered:
                errors.append(
                    f"edge {edge}: {stats.calls} calls but {answered} answered"
                )
            if sum(stack.lost_by.values()) != stack.rpcs_lost:
                errors.append(f"edge {edge}: lost-by tally != lost count")
            retry = stack.retry_stats
            if retry is None:
                continue
            if retry.logical_calls != stats.calls:
                errors.append(
                    f"edge {edge}: {retry.logical_calls} calls issued, "
                    f"{stats.calls} answered"
                )
            # every lost attempt must have been ended by its caller's
            # per-attempt timer, or its logical call could not finish
            if stack.rpcs_lost > retry.timeouts:
                errors.append(
                    f"edge {edge}: {stack.rpcs_lost} attempts lost but only "
                    f"{retry.timeouts} timed out"
                )
        return errors

    def instrument(self, tracer) -> None:
        # service handlers run inside call_raw via ``yield from``; their
        # fan-out and aggregation belong to graph.runtime
        for stack in self.runtime.stacks.values():
            tracer.wrap_instance_generator(stack, "server_handler", "graph.runtime")

    def digest_parts(self) -> dict:
        return {
            "edges": [
                [
                    "->".join(key),
                    stats.calls,
                    stats.ok,
                    sorted(stats.aborted_by.items()),
                    stats.latency_s_total,
                    self.runtime.stacks[key].rpcs_lost,
                ]
                for key, stats in self.runtime.edge_stats.items()
            ],
            "timeline": [
                [entry.at_s, entry.action, entry.kind]
                for entry in self.injector.timeline
            ],
        }


# -- builders -------------------------------------------------------------------


def build_fig5_adn(seed: int, timer: SetupTimer) -> Workload:
    reset_rpc_ids()
    registry = FunctionRegistry(rng=random.Random(seed - 1))
    program = load_stdlib(schema=FIG5_SCHEMA)
    compiler = AdnCompiler(registry=registry)
    with timer.phase("compile"):
        chain = compiler.compile_chain(
            ChainDecl(src="A", dst="B", elements=FIG5_ELEMENTS),
            program,
            FIG5_SCHEMA,
        )
    with timer.phase("placement"):
        plan = default_plan(chain, machine="client-host")
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = AdnMrpcStack(sim, cluster, chain, FIG5_SCHEMA, registry, plan=plan)
    return ClosedLoopWorkload(sim, cluster, stack, seed)


def build_fig5_envoy(seed: int, timer: SetupTimer) -> Workload:
    reset_rpc_ids()
    registry = FunctionRegistry(rng=random.Random(seed - 1))
    program = load_stdlib(schema=FIG5_SCHEMA)
    with timer.phase("compile"):
        filters = {}
        for name in FIG5_ELEMENTS:
            ir = build_element_ir(program.elements[name])
            analyze_element(ir, registry)
            filters[name] = ir
    with timer.phase("placement"):
        client_filters = [
            filters[n] for n in FIG5_ELEMENTS if ENVOY_FILTER_SIDE[n] == "client"
        ]
        server_filters = [
            filters[n] for n in FIG5_ELEMENTS if ENVOY_FILTER_SIDE[n] == "server"
        ]
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = EnvoyMeshStack(
        sim,
        cluster,
        FIG5_SCHEMA,
        client_filters=client_filters,
        server_filters=server_filters,
        registry=registry,
    )
    return ClosedLoopWorkload(sim, cluster, stack, seed)


def build_hotel_mesh(seed: int, timer: SetupTimer) -> Workload:
    """``repro.graph.run_graph_scenario`` with the crash plan of
    benchmarks/test_graph_e2e.py, split so set-up and run are timed
    apart."""
    graph = hotel_mesh_graph()
    reset_rpc_ids()
    sim = Simulator()
    program = mesh_program()
    compiler = AdnCompiler()
    compiler.compile_chain = timer.timed("compile", compiler.compile_chain)
    started_compile = timer.seconds["compile"]
    with timer.phase("placement"):
        placement = solve_graph_placement(
            graph, program, MESH_SCHEMA, strategy="software", compiler=compiler
        )
    # placement is reported without the chain compiles it drives
    timer.seconds["placement"] -= timer.seconds["compile"] - started_compile
    cluster = build_graph_cluster(
        sim, placement, costs=CostModel(element_dispatch_us=36.0)
    )
    runtime = GraphRuntime(
        sim,
        cluster,
        placement,
        MESH_SCHEMA,
        admission=AdmissionConfig(
            target_delay_ms=2.0,
            interval_ms=10.0,
            hash_fields=("username", "obj_id"),
            seed=seed,
        ),
        retry_budget=RetryBudgetConfig(ratio=0.1),
        breaker_policy=CircuitBreakerPolicy(
            failure_threshold=100, open_ms=2.0, seed=seed
        ),
        seed=seed,
    )
    injector = FaultInjector(sim, cluster)
    for stack in runtime.stacks.values():
        injector.register_stack(stack)
    crash = FaultPlan(
        events=[
            FaultEvent(
                at_s=MESH_CRASH_AT_S,
                kind=MACHINE_CRASH,
                target=placement.machine_of("rate"),
                duration_s=MESH_CRASH_FOR_S,
            )
        ]
    )
    sim.process(injector.run(crash))
    workload = MeshWorkload(
        sim,
        runtime,
        MeshWorkloadConfig(
            users=1_000_000,
            base_rps=MESH_BASE_RPS,
            diurnal_amplitude=0.2,
            diurnal_period_s=0.25,
            duration_s=MESH_DURATION_S,
            priority_high_ratio=0.1,
            seed=seed,
        ),
    )
    return HotelMesh(sim, cluster, runtime, workload, injector)


BUILDERS: Dict[str, Callable[[int, SetupTimer], Workload]] = {
    "fig5-adn": build_fig5_adn,
    "fig5-envoy": build_fig5_envoy,
    "hotel-mesh-3x-crash": build_hotel_mesh,
}
