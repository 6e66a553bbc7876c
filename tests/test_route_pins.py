"""Exact seeded results of the ADN/mRPC path on the path shapes the
run digests never reach.

Each case builds one placement of ``Logging -> Acl`` on a two-machine
cluster, issues three traced RPCs at t=0 and pins, per RPC, its
completion time, abort reason, response fields and span list, plus the
stack's wire bytes, lost attempts and the busy time of every thread.
The placements cover a client/server split, a switch segment, a
server-side SmartNIC with admission control and proxyless transport on
both sides; the outcomes cover success, an element drop on either side,
an admission shed, a deadline that expires in flight and an attempt
lost to a dropped frame or a crashed host.

The expected values live in ``route_pins.json``. To re-record them
after a change that moves simulated results on purpose, run
``PYTHONPATH=src python tests/test_route_pins.py --record`` and say why
in CHANGES.md.
"""

import json
import pathlib
import sys

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.overload.admission import AdmissionConfig
from repro.platforms import Platform
from repro.runtime import AdnMrpcStack, PlacementPlan, PlacementSegment
from repro.runtime.message import reset_rpc_ids
from repro.runtime.processor import SWITCH_LOCATION
from repro.sim import Simulator, two_machine_cluster

PINS_PATH = pathlib.Path(__file__).with_name("route_pins.json")

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

CLIENT, SERVER = "client-host", "server-host"


def _segment(platform, machine, *elements):
    return PlacementSegment(
        platform=platform, machine=machine, elements=elements
    )


#: placement name -> (segments, client transport, server transport)
PLACEMENTS = {
    "split": (
        (
            _segment(Platform.MRPC, CLIENT, "Logging"),
            _segment(Platform.MRPC, SERVER, "Acl"),
        ),
        "engine",
        "engine",
    ),
    "acl-at-client": (
        (
            _segment(Platform.MRPC, CLIENT, "Acl"),
            _segment(Platform.MRPC, SERVER, "Logging"),
        ),
        "engine",
        "engine",
    ),
    "client-only": (
        (_segment(Platform.MRPC, CLIENT, "Logging", "Acl"),),
        "engine",
        "engine",
    ),
    "switch": (
        (
            _segment(Platform.MRPC, CLIENT, "Logging"),
            _segment(Platform.SWITCH_P4, SWITCH_LOCATION, "Acl"),
        ),
        "engine",
        "engine",
    ),
    "nic": (
        (
            _segment(Platform.MRPC, CLIENT, "Logging"),
            _segment(Platform.SMARTNIC, SERVER, "Acl"),
        ),
        "engine",
        "engine",
    ),
    "proxyless": (
        (
            _segment(Platform.RPC_LIB, CLIENT, "Logging"),
            _segment(Platform.RPC_LIB, SERVER, "Acl"),
        ),
        "proxyless",
        "proxyless",
    ),
}

OK = ("usr2", "usr2", "usr2")
DENY = ("usr1", "usr2", "usr1")  # the stdlib Acl denies usr1

#: case -> (placement, usernames, per-RPC deadline_at or None, fault)
CASES = {
    "split-ok": ("split", OK, None, None),
    "split-drop-server": ("split", DENY, None, None),
    "split-shed-server": ("split", OK, None, "shed:1"),
    "split-deadline": ("split", OK, (3e-6, 30e-6, None), None),
    "split-frame-lost": ("split", OK, None, "loss"),
    "split-server-crashed": ("split", OK, None, "crash-server"),
    "split-return-lost": ("split", OK, None, "crash-client-midflight"),
    "acl-at-client-drop": ("acl-at-client", DENY, None, None),
    "client-only-ok": ("client-only", OK, None, None),
    "client-only-drop": ("client-only", DENY, None, None),
    "client-only-deadline": ("client-only", OK, (3e-6, 20e-6, None), None),
    "switch-ok": ("switch", OK, None, None),
    "switch-drop": ("switch", DENY, None, None),
    "nic-ok": ("nic", OK, None, None),
    "nic-drop": ("nic", DENY, None, None),
    "nic-shed": ("nic", OK, None, "shed:1"),
    "proxyless-ok": ("proxyless", OK, None, None),
    "proxyless-drop": ("proxyless", DENY, None, None),
}


def _build_chain():
    registry = FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    decl = ChainDecl(src="A", dst="B", elements=("Logging", "Acl"))
    chain = AdnCompiler(registry=registry).compile_chain(
        decl, program, SCHEMA
    )
    return chain, registry


def _plain(value):
    """A JSON-safe stand-in for one response field."""
    if isinstance(value, bytes):
        return repr(value)
    return value


def run_case(name):
    placement, usernames, deadlines, fault = CASES[name]
    segments, client_transport, server_transport = PLACEMENTS[placement]
    reset_rpc_ids()
    chain, registry = _build_chain()
    sim = Simulator()
    cluster = two_machine_cluster(
        sim, smartnics=placement == "nic", programmable_switch=True
    )
    plan = PlacementPlan(
        segments=[
            PlacementSegment(
                platform=each.platform,
                machine=each.machine,
                elements=each.elements,
            )
            for each in segments
        ],
        client_transport=client_transport,
        server_transport=server_transport,
    )
    shed = fault is not None and fault.startswith("shed:")
    stack = AdnMrpcStack(
        sim,
        cluster,
        chain,
        SCHEMA,
        registry,
        plan=plan,
        tracing=True,
        admission=(
            AdmissionConfig(max_shed_probability=0.5, seed=7)
            if shed or placement == "nic"
            else None
        ),
        propagate_deadline=deadlines is not None,
    )
    if shed:
        stack.processors[int(fault.split(":")[1])].admission.engage()
    if fault == "loss":
        cluster.l2.conditions.loss_probability = 1.0
    elif fault == "crash-server":
        cluster.machine(SERVER).crash()
    elif fault == "crash-client-midflight":

        def crash_client():
            yield sim.timeout(30e-6)
            cluster.machine(CLIENT).crash()

        sim.process(crash_client())

    processes = []
    for index, username in enumerate(usernames):
        fields = {"payload": b"x" * (8 * index), "username": username,
                  "obj_id": index}
        if deadlines is not None and deadlines[index] is not None:
            fields["deadline_at"] = deadlines[index]
        processes.append(sim.process(stack.call(**fields)))
    sim.run(until=0.01)

    rpcs = []
    for process in processes:
        if not process.triggered:
            rpcs.append(None)  # lost: parked forever
            continue
        outcome = process.value
        rpcs.append(
            {
                "completed_at": outcome.completed_at,
                "aborted_by": outcome.aborted_by,
                "response": {
                    key: _plain(value)
                    for key, value in sorted(outcome.response.items())
                },
                "trace": outcome.notes["trace"],
            }
        )
    busy = {}
    for machine_name, machine in sorted(cluster.machines.items()):
        for key, resource in sorted(machine.threads.items()):
            busy[f"{machine_name}/{key}"] = resource.busy_time
        if machine.smartnic_cores is not None:
            busy[f"{machine_name}/smartnic"] = machine.smartnic_cores.busy_time
    record = {
        "rpcs": rpcs,
        "wire_bytes_total": stack.wire_bytes_total,
        "lost_by": stack.lost_by,
        "deadline_expired_at_server": stack.deadline_expired_at_server,
        "busy": busy,
    }
    # tuples become lists, exactly as the pins file stores them
    return json.loads(json.dumps(record))


def _pins():
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case():
    assert sorted(_pins()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_path_pinned(case):
    assert run_case(case) == _pins()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_route_pins.py --record")
    PINS_PATH.write_text(
        json.dumps({case: run_case(case) for case in sorted(CASES)},
                   indent=1, sort_keys=True) + "\n"
    )
