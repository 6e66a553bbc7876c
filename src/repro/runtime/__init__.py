"""Data-plane runtime: RPC messages, placed processors, and the
ADN-over-mRPC path."""

from .message import (
    RpcOutcome,
    Row,
    is_aborted,
    make_abort,
    make_request,
    make_response,
    payload_bytes,
    reset_rpc_ids,
)
from .filters import (
    RetryPolicy,
    RetryStats,
    apply_filter,
    apply_filters,
    wrap_retry_policy,
    wrap_circuit_breaker,
    wrap_congestion_control,
    wrap_rate_shaper,
)
from .gateway import (
    EgressGateway,
    IngressGateway,
    PeeringReport,
    downshift_transfer,
    peer_translate,
    peering_savings,
)
from .mrpc import AdnMrpcStack, default_plan
from .telemetry import ProcessorReport, TelemetryCollector, TelemetryStore
from .processor import (
    SWITCH_LOCATION,
    PlacementPlan,
    PlacementSegment,
    ProcessorRuntime,
    SegmentResult,
)

__all__ = [
    "AdnMrpcStack",
    "PlacementPlan",
    "PlacementSegment",
    "ProcessorRuntime",
    "RpcOutcome",
    "Row",
    "SWITCH_LOCATION",
    "SegmentResult",
    "apply_filter",
    "apply_filters",
    "default_plan",
    "downshift_transfer",
    "EgressGateway",
    "IngressGateway",
    "PeeringReport",
    "peer_translate",
    "peering_savings",
    "ProcessorReport",
    "RetryPolicy",
    "RetryStats",
    "TelemetryCollector",
    "TelemetryStore",
    "wrap_circuit_breaker",
    "wrap_congestion_control",
    "wrap_rate_shaper",
    "wrap_retry_policy",
    "is_aborted",
    "make_abort",
    "make_request",
    "make_response",
    "payload_bytes",
    "reset_rpc_ids",
]
