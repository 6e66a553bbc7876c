"""gRPC + Envoy sidecar mesh — the paper's comparison baseline (§6).

The full service-mesh packet path of Figure 1: the application's gRPC
stack emits HTTP/2-framed protobuf; iptables redirects it to a local
sidecar, which parses the protocol stack, runs its (general, knob-heavy)
filters, re-serializes, and forwards; the receiving host mirrors the
same dance. Four proxy traversals per RPC round trip.

Filters execute *functionally* as the same compiled element modules ADN
runs (the Python backend's output, so an ACL denial really aborts and
fault injection really drops), but their cost is Envoy's: generic
per-filter work plus payload marshalling plus HTTP/2 parse/re-serialize
per traversal — not the element's own tight cost. How a filter executes
never enters its simulated cost. That difference in where cost comes
from *is* the paper's argument.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

from ..compiler.backends.python_backend import PythonBackend
from ..dsl.functions import FunctionRegistry
from ..dsl.schema import RpcSchema
from ..ir.analysis import analyze_element
from ..ir.nodes import ElementIR
from ..sim.cluster import Cluster
from ..sim.engine import US, Simulator
from ..sim.resources import Resource
from ..runtime.message import (
    Row,
    RpcOutcome,
    make_abort,
    make_request,
    make_response,
)
from .grpc_stack import GrpcStack, tcp_wire_bytes


class EnvoySidecar:
    """One sidecar proxy: worker threads + a functional filter chain."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        machine: str,
        filters: Sequence[ElementIR],
        registry: FunctionRegistry,
        wasm_filters: int = 0,
    ):
        self.sim = sim
        self.costs = cluster.costs
        self.machine = machine
        self.workers: Resource = cluster.machine(machine).thread(
            "envoy-worker", capacity=self.costs.envoy_workers
        )
        backend = PythonBackend(registry)
        self.filters: List[Tuple[str, Any]] = []
        for ir in filters:
            if ir.analysis is None:
                # the backend binds the functions the analysis found
                analyze_element(ir, registry)
            self.filters.append((ir.name, backend.emit(ir).factory()))
        self.wasm_filters = wasm_filters
        self.traversals = 0

    def traverse(self, message: Row, kind: str, payload_size: int) -> Generator:
        """One directional pass through the proxy. Returns
        (message_or_None, dropped_by).

        Callers run it as its own process. Inlining it with ``yield
        from`` would drop the process's two same-time hand-offs, reorder
        events that tie in time, and so change seeded results.
        """
        self.traversals += 1
        cpu = self.costs.envoy_traversal_cpu_us(
            filters=len(self.filters),
            wasm_filters=self.wasm_filters,
            payload_bytes=payload_size,
        )
        yield from self.workers.use(cpu * US)
        dropped_by: Optional[str] = None
        # compiled modules never mutate their input and emit fresh rows
        current = message
        order = self.filters if kind == "request" else reversed(self.filters)
        for name, module in order:
            outputs = module.process(current, kind)
            if not outputs:
                if kind == "request":
                    dropped_by = name
                    break
                continue  # response drops degenerate to forwarding
            current = outputs[0]
        yield self.sim.timeout(self.costs.envoy_extra_latency_us * US)
        if dropped_by is not None:
            return None, dropped_by
        return current, None


class EnvoyMeshStack:
    """The full gRPC + dual-sidecar path: ``stack.call(**fields)``.

    ``client_filters`` / ``server_filters`` place each element's Envoy
    filter on the egress (client) or ingress (server) proxy, mirroring
    how meshes deploy outbound vs. inbound policies.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        schema: RpcSchema,
        client_filters: Sequence[ElementIR],
        server_filters: Sequence[ElementIR],
        registry: FunctionRegistry,
        client_service: str = "A",
        server_service: str = "B",
        wasm_filters: int = 0,
    ):
        self.sim = sim
        self.cluster = cluster
        self.costs = cluster.costs
        self.schema = schema
        self.grpc = GrpcStack(sim, cluster, schema, client_service, server_service)
        registry.bind_clock(lambda: sim.now)
        self.client_sidecar = EnvoySidecar(
            sim, cluster, "client-host", client_filters, registry, wasm_filters
        )
        self.server_sidecar = EnvoySidecar(
            sim, cluster, "server-host", server_filters, registry, wasm_filters
        )
        self.client_service = client_service
        self.server_service = server_service
        self.wire_bytes_total = 0

    def _app_to_sidecar(self, app: Resource, message: Row) -> Generator:
        """App emits through its gRPC stack; iptables redirects the
        packets to the local proxy."""
        yield from app.use(
            (
                self.grpc._send_cpu_us(message)
                + self.costs.iptables_redirect_us
            )
            * US
        )
        yield self.sim.timeout(
            (self.costs.kernel_wakeup_extra_us + self.costs.loopback_extra_us)
            * US
        )

    def _sidecar_to_app(self, app: Resource, message: Row) -> Generator:
        yield from app.use(self.grpc._recv_cpu_us(message) * US)
        yield self.sim.timeout(
            (self.costs.kernel_wakeup_extra_us + self.costs.loopback_extra_us)
            * US
        )

    def _wire(self, message: Row) -> Generator:
        encoded = self.grpc.encode(message)
        wire = tcp_wire_bytes(len(encoded))
        self.wire_bytes_total += wire
        yield self.sim.timeout(self.costs.wire_us(wire) * US)

    def call(self, **fields: object) -> Generator:
        issued_at = self.sim.now
        request = make_request(
            self.schema,
            src=f"{self.client_service}.0",
            dst=self.server_service,
            **fields,
        )
        payload_size = self.grpc.codec.encoded_size(request)
        aborted_by = ""
        response: Optional[Row] = None

        # request: client app -> client sidecar
        yield from self.grpc.client_app.use(self.costs.client_issue_us * US)
        yield from self._app_to_sidecar(self.grpc.client_app, request)
        message, dropped = yield self.sim.process(
            self.client_sidecar.traverse(request, "request", payload_size)
        )
        if dropped:
            aborted_by = dropped
            response = make_abort(request, dropped)
            # the client sidecar answers the abort locally
            message, _ = yield self.sim.process(
                self.client_sidecar.traverse(response, "response", payload_size)
            )
            response = message or response
            yield from self._sidecar_to_app(self.grpc.client_app, response)
            yield from self.grpc.client_app.use(
                self.costs.client_complete_us * US
            )
            return RpcOutcome(
                request=request,
                response=response,
                issued_at=issued_at,
                completed_at=self.sim.now,
                aborted_by=aborted_by,
            )

        # client sidecar -> wire -> server sidecar
        yield from self._wire(message)
        message, dropped = yield self.sim.process(
            self.server_sidecar.traverse(message, "request", payload_size)
        )
        if dropped:
            aborted_by = dropped
            response = make_abort(request, dropped)
        else:
            # server sidecar -> server app
            yield from self._sidecar_to_app(self.grpc.server_app, message)
            yield from self.grpc.server_app.use(self.costs.app_logic_us * US)
            response = make_response(message)
            yield from self._app_to_sidecar(self.grpc.server_app, response)

        # response: server sidecar -> wire -> client sidecar -> client app
        message, _ = yield self.sim.process(
            self.server_sidecar.traverse(response, "response", payload_size)
        )
        response = message or response
        yield from self._wire(response)
        message, _ = yield self.sim.process(
            self.client_sidecar.traverse(response, "response", payload_size)
        )
        response = message or response
        yield from self._sidecar_to_app(self.grpc.client_app, response)
        yield from self.grpc.client_app.use(self.costs.client_complete_us * US)
        return RpcOutcome(
            request=request,
            response=response,
            issued_at=issued_at,
            completed_at=self.sim.now,
            aborted_by=aborted_by,
        )
