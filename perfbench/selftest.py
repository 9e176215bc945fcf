"""The benchmark's own self-test.

    python3 perfbench/selftest.py [--seed 7] [--seconds 10]

For every workload: two traced runs with one seed must report identical
counts and shares (every per-layer metric except times and the tracing
overhead), and one untraced run must report no failed operation.  Each run
is a fresh process.  Exits 1 on any difference or failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import corpus

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=corpus.ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def exact_metrics(report) -> dict:
    return {k: m["value"] for k, m in report["metrics"].items()
            if m["unit"] != "s" and k != "trace.overhead"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    ok = True
    for name in corpus.WORKLOADS:
        first, second = (exact_metrics(bench(name, args.seed, args.seconds, 1)) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        plain = bench(name, args.seed, args.seconds, 0)
        share = plain["failed"] / plain["attempted"]
        print(f"{name}: {len(first)} exact per-layer metrics, {len(diff)} differ; "
              f"untraced failed_share {share} of {plain['attempted']}")
        for k in diff:
            print(f"  {k}: {first[k]} != {second.get(k)}")
        ok &= not diff and plain["failed"] == 0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
