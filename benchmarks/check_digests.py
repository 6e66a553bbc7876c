"""Check that seeded benchmark runs still produce their recorded digests.

Each workload of the repository benchmark (``perfbench/``) is
deterministic for a given seed, and its output digest covers every
simulated number the run reports. This script runs
``perfbench/rep.py --trace 0`` once per workload and seed, one fresh
process at a time, and compares each digest with the one recorded in
``benchmarks/digests.json``:

    python3 benchmarks/check_digests.py --seeds 1 8

It exits 1 when any digest differs or was never recorded. A change that
moves simulated results on purpose re-records the file and says why in
CHANGES.md:

    python3 benchmarks/check_digests.py --record --seeds 1 2 3 4 8 101
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
REP = os.path.join(REPO, "perfbench", "rep.py")
DIGESTS = os.path.join(HERE, "digests.json")


def workload_names() -> List[str]:
    """Every workload in the benchmark's own registry."""
    sys.path[:0] = [os.path.join(REPO, "perfbench"), os.path.join(REPO, "src")]
    import workloads

    return list(workloads.BUILDERS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the digests of this run into digests.json instead of "
        "checking them",
    )
    return parser.parse_args(argv)


def run_digest(workload: str, seed: int) -> str:
    """The digest of one untraced repetition in a fresh interpreter."""
    command = [
        sys.executable,
        REP,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "0",
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=REPO)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: rep.py exited {done.returncode}\n"
            f"{done.stderr}"
        )
    report = json.loads(done.stdout)
    if report["errors"]:
        raise SystemExit(
            f"{workload} seed {seed}: invariant checks failed: "
            f"{report['errors']}"
        )
    return report["digest"]


def load_recorded() -> Dict[str, Dict[str, str]]:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    recorded = load_recorded()
    mismatches: List[str] = []
    for workload in workload_names():
        for seed in args.seeds:
            digest = run_digest(workload, seed)
            expected = recorded.get(workload, {}).get(str(seed))
            if args.record:
                recorded.setdefault(workload, {})[str(seed)] = digest
                verdict = "recorded"
            elif expected is None:
                verdict = "NOT RECORDED"
                mismatches.append(f"{workload} seed {seed}")
            elif digest != expected:
                verdict = f"DIFFERS (recorded {expected[:16]})"
                mismatches.append(f"{workload} seed {seed}")
            else:
                verdict = "ok"
            print(f"{workload:<22} seed {seed:<4} {digest[:16]}  {verdict}")
    if args.record:
        ordered = {
            workload: dict(
                sorted(recorded[workload].items(), key=lambda kv: int(kv[0]))
            )
            for workload in sorted(recorded)
        }
        with open(DIGESTS, "w") as handle:
            json.dump(ordered, handle, indent=1)
            handle.write("\n")
        return 0
    if mismatches:
        print(f"digest check failed: {', '.join(mismatches)}")
        return 1
    print("every digest matches benchmarks/digests.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
