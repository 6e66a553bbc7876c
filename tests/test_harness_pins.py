"""Exact seeded outputs of the scenario harnesses.

The replay tests elsewhere compare two runs of the same code; these pin
the numbers themselves, so a refactor of the harness plumbing (the
SessionTally world, the open-loop client, the runner signatures) that
moves any simulated result fails here. Long records are pinned by a
blake2b digest of their ``repr``; everything else is compared as is.
"""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.compiler.compiler import AdnCompiler
from repro.control.resilience import (
    CTRL_A,
    STATS_MACHINE,
    run_control_resilience_scenario,
)
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.faults import (
    GRAY_DEGRADE,
    FaultEvent,
    FaultPlan,
    controller_crash_during_failover_plan,
    default_crash_plan,
    partition_during_recovery_plan,
    run_recovery_scenario,
)
from repro.graph.scenario import bookinfo_graph, run_graph_scenario
from repro.offload.sweep import OffloadSweepConfig, run_offload_point
from repro.overload.sweep import SweepConfig, run_overload_point
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.sim import Simulator, SteppedLoadClient, two_machine_cluster


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


# -- the recovery scenario ----------------------------------------------------


def recovery_record():
    # the crash lands mid-workload: attempts are lost and retried, and
    # the tally's unstreamed tail dies with the machine
    result = run_recovery_scenario(
        seed=1, total_rpcs=600,
        fault_plan=default_crash_plan(seed=1, crash_at_s=0.004),
    )
    metrics = result.metrics
    stats = result.stack.retry_stats
    report = result.report
    return {
        "issued": metrics.issued,
        "completed": metrics.completed,
        "aborted": metrics.aborted,
        "elapsed_s": metrics.elapsed_s,
        "latency": digest(metrics.latency.samples),
        "rpcs_lost": result.stack.rpcs_lost,
        "duplicates": result.stack.duplicate_server_executions,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "attempts": stats.attempts,
        "logical_calls": stats.logical_calls,
        "tail_writes_lost": result.checkpointer.tail_writes_lost,
        "tally_hits": result.tally_hits(),
        "timeline": [
            (entry.at_s, entry.action, entry.kind, entry.target, entry.detail)
            for entry in result.timeline
        ],
        "report": (
            report.machine,
            report.kind,
            report.suspected_at,
            report.recovered_at,
            report.detection_latency_s,
            report.unavailability_s,
            report.restore_s,
            report.rows_restored,
            report.deltas_replayed,
            tuple(report.elements_moved),
        ),
    }


RECOVERY_PIN = {'aborted': 0,
 'attempts': 612,
 'completed': 600,
 'duplicates': 0,
 'elapsed_s': 0.031242777730702186,
 'issued': 600,
 'latency': 'f0da5da92ecc858582092981',
 'logical_calls': 600,
 'report': ('stats-host',
            'crash',
            0.02,
            0.020050000000000002,
            0.016,
            0.016050000000000002,
            5.000000000000143e-05,
            516,
            0,
            ('SessionTally',)),
 'retries': 12,
 'rpcs_lost': 12,
 'tail_writes_lost': 130,
 'tally_hits': 470,
 'timeline': [(0.004, 'inject', 'machine_crash', 'stats-host', '')],
 'timeouts': 12}


def test_recovery_scenario_pinned():
    assert recovery_record() == RECOVERY_PIN


# -- the control-resilience scenario ------------------------------------------


def _ccdf_plan():
    return controller_crash_during_failover_plan(
        STATS_MACHINE, CTRL_A, crash_at_s=0.01, leader_crash_at_s=0.032
    )


def _partition_plan():
    return partition_during_recovery_plan(
        STATS_MACHINE, CTRL_A, crash_at_s=0.01, partition_at_s=0.031,
        partition_for_s=0.06,
    )


def _gray_plan():
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=0.05, kind=GRAY_DEGRADE, target=STATS_MACHINE,
                duration_s=0.3, magnitude=20.0,
            )
        ],
        seed=4,
    )


RESILIENCE_RUNS = {
    "default-crash": dict(seed=1, total_rpcs=1500),
    "ccdf-standby": dict(
        seed=2, total_rpcs=1500, fault_plan=_ccdf_plan(), run_limit_s=2.0
    ),
    "ccdf-no-standby": dict(
        seed=2, total_rpcs=1500, fault_plan=_ccdf_plan(), standby=False,
        run_limit_s=1.0,
    ),
    "partition-fenced": dict(
        seed=3, total_rpcs=1500, fault_plan=_partition_plan()
    ),
    "partition-unfenced": dict(
        seed=3, total_rpcs=1500, fault_plan=_partition_plan(),
        fence_epochs=False,
    ),
    "gray": dict(
        seed=4, total_rpcs=500, fault_plan=_gray_plan(), gray_factor=3.0,
        client_think_s=0.002, horizon_s=1.0,
    ),
}

RESILIENCE_PIN = {'ccdf-no-standby': '2931988fa3dbb11597f01f2b7cb8b2bd',
 'ccdf-standby': '57010636eef55248e6e1553efd93b9e5',
 'default-crash': 'a8d7637d80992dc5bd5814aa1301ee39',
 'gray': '5adde68957086fea745c278c9dbef633',
 'partition-fenced': 'df5b7b71b075f3030e2016ebb6960c06',
 'partition-unfenced': '4169b81553413f8ab5897b17bd4870e5'}


@pytest.mark.parametrize("name", sorted(RESILIENCE_RUNS))
def test_resilience_signature_pinned(name):
    result = run_control_resilience_scenario(**RESILIENCE_RUNS[name])
    assert result.signature() == RESILIENCE_PIN[name]


# -- the overload and offload sweeps ------------------------------------------

OVERLOAD_PIN = {(0.5, False): {'aborted': 0,
                'aborted_by': {},
                'amplification': 1.0,
                'deadline_drops': 0,
                'goodput_rps': 5600.0,
                'issued': 112,
                'multiplier': 0.5,
                'offered_rps': 5000.0,
                'ok': 112,
                'p50_ok_ms': 0.16243479999999993,
                'protected': False,
                'queue_rejects': 0,
                'sheds': 0},
 (0.5, True): {'aborted': 0,
               'aborted_by': {},
               'amplification': 1.0,
               'deadline_drops': 0,
               'goodput_rps': 5600.0,
               'issued': 112,
               'multiplier': 0.5,
               'offered_rps': 5000.0,
               'ok': 112,
               'p50_ok_ms': 0.16259199999999993,
               'protected': True,
               'queue_rejects': 0,
               'sheds': 0},
 (3.0, False): {'aborted': 589,
                'aborted_by': {'Timeout': 589},
                'amplification': 3.911037891268534,
                'deadline_drops': 0,
                'goodput_rps': 900.0,
                'issued': 607,
                'multiplier': 3.0,
                'offered_rps': 30000.0,
                'ok': 18,
                'p50_ok_ms': 2.6672889082917064,
                'protected': False,
                'queue_rejects': 0,
                'sheds': 0},
 (3.0, True): {'aborted': 357,
               'aborted_by': {'QueueFull': 148, 'Shed': 209},
               'amplification': 1.0,
               'deadline_drops': 0,
               'goodput_rps': 12500.0,
               'issued': 607,
               'multiplier': 3.0,
               'offered_rps': 30000.0,
               'ok': 250,
               'p50_ok_ms': 2.917606868526013,
               'protected': True,
               'queue_rejects': 148,
               'sheds': 209}}


@pytest.mark.parametrize("protected", [False, True])
@pytest.mark.parametrize("multiplier", [0.5, 3.0])
def test_overload_point_pinned(multiplier, protected):
    point = run_overload_point(
        multiplier, protected, SweepConfig(duration_s=0.02)
    )
    assert asdict(point) == OVERLOAD_PIN[(multiplier, protected)]


OFFLOAD_PIN = {(1.0, 'nic'): {'aborted': 0,
                'aborted_by': {},
                'deadline_drops': 0,
                'goodput_rps': 4050.0,
                'host_cpu_ms_per_ok': 0.084209,
                'host_cpu_s': 0.006821,
                'issued': 81,
                'multiplier': 1.0,
                'nic_cpu_s': 0.010747,
                'offered_rps': 4000.0,
                'offloaded_prefix': ['Acl', 'Logging'],
                'ok': 81,
                'p50_ok_ms': 0.2745,
                'queue_rejects': 0,
                'shed_at': 'nic',
                'sheds_at_host': 0,
                'sheds_at_nic': 0},
 (1.0, 'server'): {'aborted': 0,
                   'aborted_by': {},
                   'deadline_drops': 0,
                   'goodput_rps': 4050.0,
                   'host_cpu_ms_per_ok': 0.228913,
                   'host_cpu_s': 0.018542,
                   'issued': 81,
                   'multiplier': 1.0,
                   'nic_cpu_s': 0.0,
                   'offered_rps': 4000.0,
                   'offloaded_prefix': [],
                   'ok': 81,
                   'p50_ok_ms': 0.6789,
                   'queue_rejects': 0,
                   'shed_at': 'server',
                   'sheds_at_host': 0,
                   'sheds_at_nic': 0},
 (3.0, 'nic'): {'aborted': 56,
                'aborted_by': {'Shed': 56},
                'deadline_drops': 0,
                'goodput_rps': 9850.0,
                'host_cpu_ms_per_ok': 0.084503,
                'host_cpu_s': 0.016647,
                'issued': 253,
                'multiplier': 3.0,
                'nic_cpu_s': 0.028875,
                'offered_rps': 12000.0,
                'offloaded_prefix': ['Acl', 'Logging'],
                'ok': 197,
                'p50_ok_ms': 0.7318,
                'queue_rejects': 0,
                'shed_at': 'nic',
                'sheds_at_host': 20,
                'sheds_at_nic': 36},
 (3.0, 'server'): {'aborted': 203,
                   'aborted_by': {'QueueFull': 92,
                                  'Shed': 85,
                                  'Timeout': 26},
                   'deadline_drops': 0,
                   'goodput_rps': 2500.0,
                   'host_cpu_ms_per_ok': 0.477249,
                   'host_cpu_s': 0.023862,
                   'issued': 253,
                   'multiplier': 3.0,
                   'nic_cpu_s': 0.0,
                   'offered_rps': 12000.0,
                   'offloaded_prefix': [],
                   'ok': 50,
                   'p50_ok_ms': 4.1668,
                   'queue_rejects': 92,
                   'shed_at': 'server',
                   'sheds_at_host': 85,
                   'sheds_at_nic': 0}}


@pytest.mark.parametrize("shed_at", ["server", "nic"])
@pytest.mark.parametrize("multiplier", [1.0, 3.0])
def test_offload_point_pinned(multiplier, shed_at):
    point = run_offload_point(
        multiplier, shed_at, OffloadSweepConfig(duration_s=0.02)
    )
    assert point.to_dict() == OFFLOAD_PIN[(multiplier, shed_at)]


# -- the graph scenario -------------------------------------------------------


def test_graph_scenario_pinned():
    result = run_graph_scenario(
        bookinfo_graph(), base_rps=4_000.0, duration_s=0.05, seed=3
    )
    record = (
        result.metrics.issued,
        result.metrics.completed,
        result.metrics.aborted,
        result.goodput_rps,
        result.goodput_ratio,
        result.sheds(),
        result.breaker_opens(),
        digest(result.metrics.latency.samples),
    )
    assert record == GRAPH_PIN


GRAPH_PIN = (233, 233, 0, 4660.0, 1.0, 0, {}, '80bf9942f8a91e9ad65b678e')


# -- the open-loop client -----------------------------------------------------

OPEN_LOOP_SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def open_loop_record(phases):
    reset_rpc_ids()
    sim = Simulator()
    registry = FunctionRegistry(rng=random.Random(5))
    chain = AdnCompiler(registry=registry).compile_chain(
        ChainDecl(src="A", dst="B", elements=("Logging", "Acl")),
        load_stdlib(schema=OPEN_LOOP_SCHEMA),
        OPEN_LOOP_SCHEMA,
    )
    stack = AdnMrpcStack(
        sim, two_machine_cluster(sim), chain, OPEN_LOOP_SCHEMA, registry
    )
    client = SteppedLoadClient(sim, stack.call, phases=phases, seed=7)
    metrics = client.run(drain_s=0.01)
    return [
        (m.issued, m.completed, m.aborted, m.elapsed_s,
         digest(m.latency.samples))
        for m in [metrics] + client.per_phase
    ]


OPEN_LOOP_PIN = {'one-phase': [(396, 396, 37, 0.01, 'd40b4ac25ebf2da4e47db148'),
               (396, 396, 37, 0.01, 'd40b4ac25ebf2da4e47db148')],
 'three-phase': [(830, 830, 83, 0.015, '9d4de5bb5186caee4f74f0e7'),
                 (97, 97, 8, 0.005, '35a91d5e76b6ccbd687576df'),
                 (617, 617, 60, 0.005, 'e21604b642fb5d57d0cd9df4'),
                 (116, 116, 15, 0.005, '036c737a1af0bf3e9d1bef21')]}


@pytest.mark.parametrize("name,phases", [
    ("one-phase", [(40_000.0, 0.01)]),
    ("three-phase", [(20_000.0, 0.005), (120_000.0, 0.005), (20_000.0, 0.005)]),
])
def test_open_loop_client_pinned(name, phases):
    assert open_loop_record(phases) == OPEN_LOOP_PIN[name]


# -- the harness CLIs' --json files -------------------------------------------

CLI_RUNS = {
    "faults": ["faults", "--rpcs", "400", "--table-rows", "50"],
    "overload": [
        "overload", "--duration", "0.02", "--multipliers", "0.5,3.0"
    ],
    "offload": ["offload", "--duration", "0.02", "--multipliers", "1.0,3.0"],
    "chaos": [
        "chaos", "--trials", "2", "--rpcs", "300", "--horizon", "0.5",
        "--seed", "7",
    ],
}

CLI_JSON_PIN = {'chaos': '7121b1115fcbad273dbb602f7283cd2c38c6ea081c0ff4d704565828047bc65c',
 'faults': '7deef3b0e284b359e9aad3b15b99f713c8a4962b03c3d35829d21bf49b2b2949',
 'offload': 'e5db62a64a09d87223a29258c66b9a9b5e70e8106d81ab9bef78db116e771c76',
 'overload': 'e854bc971a335873da69a57f50608bc539c41ce7a834099a07c6decd8abf444b'}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_json_pinned(name, tmp_path, capsys):
    out = tmp_path / "out.json"
    main(CLI_RUNS[name] + ["--json", str(out)])
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_JSON_PIN[name]
