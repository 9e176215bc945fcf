"""Record the expected outputs of one workload's pool at the current commit.

    python3 perfbench/record.py --workload certify-general

Writes ``perfbench/expected/<workload>.json``.  For every pool entry and
fixture it stores the verdict, a digest of the full stdout (not for the
``generic`` verb, whose witness may change and stay valid), the seconds
the call took here (runs stratify the pool by it) and whether the
workload may send the entry.  The validate pool keeps pencils that
certify; the raster pool keeps slices that show both verdicts.  A pencil
that misses the recording deadline is recorded as undecided, and runs
check it only by the independent checks.  Recording fails if any output
fails its checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import run
from corpus import WORKLOADS, fixture_op, pool_op

RECORD_DEADLINE_S = 10.0


def candidates(workload):
    for fname, extra in dict.fromkeys(workload.fixtures):
        yield fixture_op(workload, fname, extra)
    for cls, count in workload.pools.items():
        for index in range(count):
            yield pool_op(workload, f"{cls}:{index}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cli = run.import_package()
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.OUT / f"record-{args.workload}"
    ops = list(candidates(workload))
    run.write_inputs(ops, workdir)
    table = {}
    bad = 0
    try:
        for op in ops:
            path = run.input_path(op, workdir)
            deadline = RECORD_DEADLINE_S if op.verb == "generic" else run.deadline_for(op.verb)
            rc, out, elapsed = run.call_cli(cli, [op.verb, str(path), *op.extra], deadline)
            verdict = run.verdict_of(op, rc, out)
            failure = None if rc is None else run.check(op, path, rc, out, None)
            if op.verb == "validate":
                if rc == 2:
                    failure, eligible = None, False  # not certified: not in the pool
                else:
                    eligible = failure is None
            elif op.verb == "slice":
                if failure == "slice does not show both verdicts":
                    failure = None
                    eligible = False
                else:
                    eligible = failure is None
            else:
                eligible = True
            if failure:
                bad += 1
                print(f"FAILED {op.key}: {failure}", file=sys.stderr)
            table[op.key] = {
                "verdict": verdict,
                "seconds": round(elapsed, 4),
                "eligible": eligible,
            }
            if op.verb != "generic":  # a witness may change and stay valid
                table[op.key]["digest"] = run.checks.digest(out)
            print(f"{op.key}: {verdict} in {elapsed:.3f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.mkdir(exist_ok=True)
    path = run.EXPECTED / f"{workload.name}.json"
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{path.name}: {len(table)} entries, "
          f"{sum(r['eligible'] for r in table.values())} eligible, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
