"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays the real import cost and reports its own peak RSS (a process-
lifetime high-water mark). It prints one JSON object on stdout.

    python3 perfbench/rep.py --workload fig5-adn --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent at spawn>
"""

import argparse
import json
import os
import resource
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(REPO, "src"))
    import_started = time.perf_counter()
    import workloads  # imports every repro module the benchmark drives

    import_s = time.perf_counter() - import_started
    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        timer = workloads.SetupTimer()
        build_started = time.perf_counter()
        workload = workloads.BUILDERS[args.workload](args.seed, timer)
        if tracer is not None:
            workload.instrument(tracer)
        build_s = time.perf_counter() - build_started
        setup_s = time.monotonic() - args.spawned_at
        if tracer is not None:
            tracer.reset()
        run_started = time.perf_counter()
        workload.run()
        run_s = time.perf_counter() - run_started
    finally:
        if tracer is not None:
            tracer.uninstall()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = workload.check()
    counters = workload.layer_counters()
    counters.update(workload.thread_metrics())
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "import_s": import_s,
        "compile_s": timer.seconds["compile"],
        "placement_s": timer.seconds["placement"],
        "build_s": build_s
        - timer.seconds["compile"]
        - timer.seconds["placement"],
        "run_s": run_s,
        "rss_mb": rss_mb,
        "rpcs": workload.rpcs(),
        "completed": workload.completed(),
        "digest": workload.digest(),
        "sim": workload.sim_metrics(),
        "counters": counters,
        "errors": errors,
    }
    if tracer is not None:
        result["errors"] = errors + tracer.check_closed()
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
