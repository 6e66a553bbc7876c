"""The repository benchmark: simulator speed and simulated Figure-5 /
mesh results on three workloads.

    python3 perfbench/run.py --workload fig5-adn --seed 1 --seconds 30 --trace 0

Repeats the workload, each repetition in a fresh process
(``perfbench/rep.py``), for about ``--seconds`` (at least
three repetitions), then prints a table of every metric with its unit
and sample count, and as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; see ``perfbench/METRICS.md`` for every definition.

A repetition is one operation. It fails when an invariant check on its
simulated output fails or its output digest differs from the first
repetition's (one seed must give bit-identical simulated results). Any
failure makes ``correct`` false and the exit code 1. When the program
cannot run at all (no ``src/repro`` next to this directory, a crashed
repetition) the benchmark prints no result and exits with code 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from catalog import END_TO_END, PER_LAYER, REPORTED_LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")

#: the whole run, repetitions included, ends within this many seconds
HARD_LIMIT_S = 170.0
MIN_REPETITIONS = 3


class CannotRun(Exception):
    """The program could not be run; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_repetition(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise CannotRun("out of time before the repetition started")
    spawned_at = time.monotonic()
    command = [
        sys.executable,
        REP,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--spawned-at", repr(spawned_at),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, cwd=REPO
        )
    except subprocess.TimeoutExpired as expired:
        raise CannotRun(f"repetition exceeded {timeout:.0f} s") from expired
    if done.returncode != 0:
        raise CannotRun(
            f"repetition exited with code {done.returncode}:\n{done.stderr[-4000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        raise CannotRun(f"repetition printed no report: {error}") from error


def run_repetitions(args) -> list:
    """Repeat until about ``args.seconds`` have passed: a repetition
    starts only if it is expected to end less than half a repetition
    past the mark."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    minimum = MIN_REPETITIONS + (1 if args.trace else 0)
    reports = []
    last_s = 0.0
    while len(reports) < minimum or (
        time.monotonic() - started + last_s / 2 < args.seconds
    ):
        traced = bool(args.trace) and len(reports) % 2 == 1
        rep_started = time.monotonic()
        reports.append(run_repetition(args.workload, args.seed, traced, deadline))
        last_s = time.monotonic() - rep_started
    return reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def find_failures(reports) -> list:
    """(repetition index, message) for every failed repetition."""
    failures = []
    reference = reports[0]["digest"]
    first_counts = next((r["counts"] for r in reports if r["traced"]), None)
    for index, report in enumerate(reports):
        for error in report["errors"]:
            failures.append((index, error))
        if report["digest"] != reference:
            failures.append(
                (index, f"digest {report['digest'][:16]} != {reference[:16]}")
            )
        if report["traced"] and report["counts"] != first_counts:
            failures.append((index, "traced call counts differ between repetitions"))
        if report["traced"]:
            attributed = sum(report["self_s"].values())
            if not 0.9 * report["run_s"] <= attributed <= report["run_s"] * (1 + 1e-6):
                failures.append(
                    (
                        index,
                        f"traced self times sum to {attributed:.4f} s of a "
                        f"{report['run_s']:.4f} s run",
                    )
                )
    return failures


def end_to_end_metrics(reports):
    """Medians of the host metrics, the simulated metrics, and the
    host metrics' quartiles."""
    untraced = [r for r in reports if not r["traced"]]
    host = {
        "host_rpcs_per_s": [r["completed"] / r["run_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "host_peak_rss_mb": [r["rss_mb"] for r in untraced],
    }
    metrics = {name: statistics.median(values) for name, values in host.items()}
    metrics.update(
        {k: v for k, v in reports[0]["sim"].items() if k != "latency_samples"}
    )
    spread = {name: quartiles(values) for name, values in host.items()}
    return metrics, spread


def per_layer_metrics(reports) -> dict:
    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    first = traced[0]
    rpcs = first["rpcs"]
    counts = first["counts"]
    counters = first["counters"]

    def per_rpc(key, source=counts):
        return source.get(key, 0) / rpcs

    def self_us(layer):
        return statistics.median(r["self_s"].get(layer, 0.0) for r in traced) * 1e6 / rpcs

    untraced_run_s = statistics.median(r["run_s"] for r in untraced)
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    events = counts.get("sim.engine.events", 0)
    admits = counts.get("overload.admission.admits", 0)
    metrics = {
        "sim.engine.events_per_rpc": per_rpc("sim.engine.events"),
        "sim.engine.timeouts_per_rpc": per_rpc("sim.engine.timeouts"),
        "sim.engine.processes_per_rpc": per_rpc("sim.engine.processes"),
        "sim.engine.self_us_per_rpc": self_us("sim.engine"),
        "sim.engine.host_us_per_event": untraced_run_s * 1e6 / events,
        "sim.resources.self_us_per_rpc": self_us("sim.resources"),
        "net.wire.encodes_per_rpc": per_rpc("net.wire.encodes"),
        "net.wire.decodes_per_rpc": per_rpc("net.wire.decodes"),
        "net.wire.encoded_bytes_per_rpc": per_rpc("net.wire.encoded_bytes"),
        "net.wire.self_us_per_rpc": self_us("net.wire"),
        "baselines.grpc_stack.encodes_per_rpc": per_rpc("baselines.grpc_stack.encodes"),
        "baselines.grpc_stack.decodes_per_rpc": per_rpc("baselines.grpc_stack.decodes"),
        "baselines.grpc_stack.self_us_per_rpc": self_us("baselines.grpc_stack"),
        "baselines.envoy.traversals_per_rpc": per_rpc("baselines.envoy.traversals"),
        "baselines.envoy.self_us_per_rpc": self_us("baselines.envoy"),
        "runtime.mrpc.attempts_per_rpc": per_rpc("runtime.mrpc.attempts"),
        "runtime.mrpc.lost_per_rpc": per_rpc("runtime.mrpc.lost", counters),
        "runtime.mrpc.self_us_per_rpc": self_us("runtime.mrpc"),
        "runtime.processor.executes_per_rpc": per_rpc("runtime.processor.executes"),
        "runtime.processor.drops_per_rpc": per_rpc("runtime.processor.drops"),
        "runtime.processor.self_us_per_rpc": self_us("runtime.processor"),
        "graph.runtime.edge_calls_per_request": per_rpc(
            "graph.runtime.edge_calls", counters
        ),
        "graph.runtime.retries_per_request": per_rpc("graph.runtime.retries", counters),
        "graph.runtime.self_us_per_request": self_us("graph.runtime"),
        "overload.admission.admits_per_request": per_rpc("overload.admission.admits"),
        "overload.admission.shed_ratio": (
            counts.get("overload.admission.sheds", 0) / admits if admits else 0.0
        ),
        "overload.admission.self_us_per_request": self_us("overload.admission"),
        "setup.import_s": statistics.median(r["import_s"] for r in untraced),
        "compiler.compile_s": statistics.median(r["compile_s"] for r in untraced),
        "graph.placement.solve_s": statistics.median(r["placement_s"] for r in untraced),
        "setup.build_s": statistics.median(r["build_s"] for r in untraced),
        "trace.overhead_ratio": traced_run_s / untraced_run_s,
        "trace.unattributed_share": statistics.median(
            1.0
            - sum(r["self_s"].get(layer, 0.0) for layer in REPORTED_LAYERS) / r["run_s"]
            for r in traced
        ),
    }
    for name, value in counters.items():
        if name.startswith(("sim.thread.", "sim.resources.")):
            metrics[name] = value
    return metrics


def print_end_to_end(metrics, spread, reports) -> None:
    untraced = sum(1 for r in reports if not r["traced"])
    samples = reports[0]["sim"]["latency_samples"]
    for name, unit in END_TO_END:
        value = metrics[name]
        if name in spread:
            q1, q3 = spread[name]
            note = f"median of {untraced} repetitions, quartiles {q1:.6g} .. {q3:.6g}"
        elif name == "sim_p99_us":
            note = f"{samples} samples, {samples - int(0.99 * samples)} beyond p99"
        elif name == "sim_p50_us":
            note = f"{samples} samples"
        else:
            note = "simulated, identical in every repetition"
        print(f"  {name:<26} {value:>16.6f} {unit:<8} {note}")


def print_per_layer(metrics, reports) -> None:
    for name, unit in PER_LAYER:
        print(f"  {name:<44} {metrics[name]:>14.6f} {unit}")
    traced = [r for r in reports if r["traced"]]
    run_s = statistics.median(r["run_s"] for r in traced)
    layers = sorted(
        {layer for r in traced for layer in r["self_s"]},
        key=lambda layer: -statistics.median(r["self_s"].get(layer, 0.0) for r in traced),
    )
    print(f"  traced self time by module (median of {len(traced)} traced repetitions):")
    for layer in layers:
        seconds = statistics.median(r["self_s"].get(layer, 0.0) for r in traced)
        mark = "" if layer in REPORTED_LAYERS else "  (unattributed)"
        print(f"    {layer:<24} {seconds:>9.4f} s {seconds / run_s:>7.1%}{mark}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"perfbench: no src/repro under {REPO}", file=sys.stderr)
        return 2
    try:
        reports = run_repetitions(args)
    except CannotRun as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    failures = find_failures(reports)
    failed = len({index for index, _ in failures})
    traced = sum(1 for r in reports if r["traced"])
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reports)} (traced {traced}) "
        f"digest={reports[0]['digest'][:16]}"
    )
    for index, message in failures:
        print(f"  FAILED repetition {index}: {message}")
    if args.trace:
        metrics = per_layer_metrics(reports)
        print_per_layer(metrics, reports)
        units = dict(PER_LAYER)
    else:
        metrics, spread = end_to_end_metrics(reports)
        print_end_to_end(metrics, spread, reports)
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
