"""Names and units of every metric the benchmark reports.

Kept free of imports so run.py can load it without the simulator.
``BENCHMARK.json`` lists the same names.
"""

WORKLOADS = ("fig5-adn", "fig5-envoy", "hotel-mesh-3x-crash")

#: end-to-end metrics, in output order: (name, unit)
END_TO_END = [
    ("host_rpcs_per_s", "RPC/s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MB"),
    ("sim_throughput_rps", "RPC/s"),
    ("sim_goodput_rps", "RPC/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_cpu_us_per_rpc", "us/RPC"),
    ("sim_wire_bytes_per_rpc", "B/RPC"),
    ("failed_ratio", "ratio"),
]

#: thread roles reported per layer (``<machine>/<role>`` resources)
THREAD_ROLES = ("client-app", "server-app", "mrpc-engine", "envoy-worker")

#: layers whose self time is reported; time in any other module counts
#: as unattributed
REPORTED_LAYERS = (
    "sim.engine",
    "sim.resources",
    "net.wire",
    "baselines.grpc_stack",
    "baselines.envoy",
    "runtime.mrpc",
    "runtime.processor",
    "graph.runtime",
    "overload.admission",
)

#: per-layer metrics, in output order: (name, unit)
PER_LAYER = (
    [
        ("sim.engine.events_per_rpc", "count/RPC"),
        ("sim.engine.timeouts_per_rpc", "count/RPC"),
        ("sim.engine.processes_per_rpc", "count/RPC"),
        ("sim.engine.self_us_per_rpc", "us/RPC"),
        ("sim.engine.host_us_per_event", "us/event"),
        ("sim.resources.grants_per_rpc", "count/RPC"),
        ("sim.resources.rejects_per_rpc", "count/RPC"),
        ("sim.resources.self_us_per_rpc", "us/RPC"),
    ]
    + [
        (f"sim.thread.{role}.{what}", unit)
        for role in THREAD_ROLES
        for what, unit in (
            ("busy_us_per_rpc", "us/RPC"),
            ("wait_us_per_grant", "us/grant"),
            ("utilization", "ratio"),
        )
    ]
    + [
        ("net.wire.encodes_per_rpc", "count/RPC"),
        ("net.wire.decodes_per_rpc", "count/RPC"),
        ("net.wire.encoded_bytes_per_rpc", "B/RPC"),
        ("net.wire.self_us_per_rpc", "us/RPC"),
        ("baselines.grpc_stack.encodes_per_rpc", "count/RPC"),
        ("baselines.grpc_stack.decodes_per_rpc", "count/RPC"),
        ("baselines.grpc_stack.self_us_per_rpc", "us/RPC"),
        ("baselines.envoy.traversals_per_rpc", "count/RPC"),
        ("baselines.envoy.self_us_per_rpc", "us/RPC"),
        ("runtime.mrpc.attempts_per_rpc", "count/RPC"),
        ("runtime.mrpc.lost_per_rpc", "count/RPC"),
        ("runtime.mrpc.self_us_per_rpc", "us/RPC"),
        ("runtime.processor.executes_per_rpc", "count/RPC"),
        ("runtime.processor.drops_per_rpc", "count/RPC"),
        ("runtime.processor.self_us_per_rpc", "us/RPC"),
        ("graph.runtime.edge_calls_per_request", "count/request"),
        ("graph.runtime.retries_per_request", "count/request"),
        ("graph.runtime.self_us_per_request", "us/request"),
        ("overload.admission.admits_per_request", "count/request"),
        ("overload.admission.shed_ratio", "ratio"),
        ("overload.admission.self_us_per_request", "us/request"),
        ("setup.import_s", "s"),
        ("compiler.compile_s", "s"),
        ("graph.placement.solve_s", "s"),
        ("setup.build_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ]
)
