"""Plain gRPC-over-HTTP/2-over-TCP stack (no mesh).

The conventional layered path the paper's §2 describes, *without*
sidecars: application ⇄ protobuf ⇄ HTTP/2 framing ⇄ kernel TCP ⇄ wire.
Used as the reference point for the mesh-overhead experiment (the paper
cites meshes adding 2.7–7.1x latency on top of this baseline) and as the
shared machinery for the Envoy mesh stack.

Messages are really serialized (ProtoCodec + HTTP/2 frames), once per
wire crossing: byte counts on the wire are measured. The CPU-cost
helpers size the payload with ``ProtoCodec.encoded_size``, which counts
the same bytes without building them.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..dsl.schema import RpcSchema
from ..net.http2 import (
    decode_grpc_message,
    default_grpc_headers,
    encode_grpc_message,
)
from ..net.serialization import ProtoCodec
from ..net.tcp import DEFAULT_MSS, SEGMENT_OVERHEAD
from ..sim.cluster import Cluster
from ..sim.engine import US, Simulator
from ..sim.resources import Resource
from ..runtime.message import Row, RpcOutcome, make_request, make_response


def tcp_wire_bytes(stream_bytes: int) -> int:
    """On-the-wire bytes for a burst of HTTP/2 stream bytes over TCP."""
    segments = max(1, -(-stream_bytes // DEFAULT_MSS))
    return stream_bytes + segments * SEGMENT_OVERHEAD


class GrpcStack:
    """Runnable plain-gRPC path: ``stack.call(**fields)``."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        schema: RpcSchema,
        client_service: str = "A",
        server_service: str = "B",
    ):
        self.sim = sim
        self.cluster = cluster
        self.costs = cluster.costs
        self.schema = schema
        self.codec = ProtoCodec(schema)
        self.client_service = client_service
        self.server_service = server_service
        self.client_app: Resource = cluster.machine("client-host").thread(
            "client-app"
        )
        self.server_app: Resource = cluster.machine("server-host").thread(
            "server-app"
        )
        self.wire_bytes_total = 0

    # -- encoding ------------------------------------------------------------

    def encode(self, message: Row) -> bytes:
        payload = self.codec.encode(message)
        headers = default_grpc_headers(
            str(message["method"]), str(message["dst"])
        )
        headers["x-rpc-id"] = str(message["rpc_id"])
        headers["x-kind"] = str(message["kind"])
        headers["x-status"] = str(message["status"])
        # the §2 workaround: application identifiers are stuffed into
        # HTTP headers so middleboxes can read them
        if message.get("username") is not None:
            headers["x-username"] = str(message["username"])
        if message.get("obj_id") is not None:
            headers["x-obj-id"] = str(message["obj_id"])
        return encode_grpc_message(headers, payload)

    def decode(self, data: bytes) -> Tuple[Dict[str, str], Dict[str, object]]:
        headers, payload = decode_grpc_message(data)
        return headers, self.codec.decode(payload)

    # -- cost helpers -----------------------------------------------------------

    def _send_cpu_us(self, message: Row) -> float:
        return self.costs.grpc_send_cpu_us(self.codec.encoded_size(message))

    def _recv_cpu_us(self, message: Row) -> float:
        return self.costs.grpc_recv_cpu_us(self.codec.encoded_size(message))

    def _wire(self, encoded: bytes, hops: int = 1) -> Generator:
        wire = tcp_wire_bytes(len(encoded))
        self.wire_bytes_total += wire
        yield self.sim.timeout(self.costs.wire_us(wire, hops) * US)

    # -- the path -------------------------------------------------------------------

    def call(self, **fields: object) -> Generator:
        issued_at = self.sim.now
        request = make_request(
            self.schema,
            src=f"{self.client_service}.0",
            dst=self.server_service,
            **fields,
        )
        # client: serialize + frame + kernel send
        yield from self.client_app.use(
            (self.costs.client_issue_us + self._send_cpu_us(request)) * US
        )
        yield self.sim.timeout(self.costs.kernel_wakeup_extra_us * US)
        encoded = self.encode(request)
        yield from self._wire(encoded)
        # server: kernel recv + deserialize + handle
        _headers, app_fields = self.decode(encoded)
        yield from self.server_app.use(
            (self._recv_cpu_us(request) + self.costs.app_logic_us) * US
        )
        yield self.sim.timeout(self.costs.kernel_wakeup_extra_us * US)
        response = make_response(request, **app_fields)
        # response path
        yield from self.server_app.use(self._send_cpu_us(response) * US)
        yield self.sim.timeout(self.costs.kernel_wakeup_extra_us * US)
        encoded_response = self.encode(response)
        yield from self._wire(encoded_response)
        yield from self.client_app.use(
            (self._recv_cpu_us(response) + self.costs.client_complete_us) * US
        )
        yield self.sim.timeout(self.costs.kernel_wakeup_extra_us * US)
        return RpcOutcome(
            request=request,
            response=response,
            issued_at=issued_at,
            completed_at=self.sim.now,
        )
