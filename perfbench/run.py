"""End-to-end and per-layer benchmark of the tropsdp command line.

    python3 perfbench/run.py --workload certify-general --seed 1 --seconds 25 --trace 0

One caller, one thread, closed loop: each seeded input goes through
``tropsdp.cli.main`` in this process (stdout captured in memory) only after
the previous call returned, and every output is checked before the next
call.  Workloads and the generator are in ``corpus.py``, the checks in
``checks.py``, the tracer in ``tracing.py``; ``record.py`` records the
expected outputs of the pool at a commit.

With ``--trace 0`` the run measures for ``--seconds`` seconds and reports
the end-to-end metrics: call times scaled to a reference machine speed by a
calibration kernel timed throughout the run, and the package's import time
scaled by a reference import.  With ``--trace 1`` it takes a fixed number
of the run's inputs (only pencils recorded as quick, so no deadline can cut one
and the counts repeat exactly), runs them untraced twice (the first pass
warms up), then with the tracer installed, then untraced again, and
reports the per-layer metrics.  Spans are written to
``.perfbench/trace-<workload>-s<seed>.jsonl``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

ROOT = corpus.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected"
SETUP_REPEATS = 15
# Set-up is the package's import in a fresh interpreter, timed inside it.
# Import speed drifts with the machine but does not follow the kernel below,
# so each import is paired with one of a fixed set of stdlib modules, and the
# set-up time is reported at the speed at which that set takes
# IMPORT_REFERENCE_S.
IMPORT_PACKAGE = "tropsdp.cli"
IMPORT_REFERENCE = ("decimal, email.message, http.client, logging, unittest, "
                    "xml.dom.minidom, csv, sqlite3")
IMPORT_REFERENCE_S = 0.05
# The machine's CPU speed drifts by tens of percent over tens of seconds, for
# every process alike.  A fixed kernel that uses no tropsdp code is timed every
# CALIBRATION_EVERY_S of a run, and every call time is reported at the
# reference speed at which that kernel takes CALIBRATION_REFERENCE_S.
CALIBRATION_REFERENCE_S = 0.006
CALIBRATION_EVERY_S = 0.5
# a traced certify run only takes pencils recorded at most this fast
TRACE_MAX_RECORDED_S = corpus.CERTIFY_DEADLINE_S / 4


def calibration_kernel() -> float:
    """Seconds of a fixed Fraction and dict workload, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 2000):
            total += Fraction(i % 89 + 1, i % 97 + 1)
            table[i % 101] = total
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Calibration samples of one run; ``slowdown`` > 1 on a slow machine."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, every: float = 0.0) -> None:
        if time.perf_counter() - self._last >= every:
            self.samples.append(calibration_kernel())
            self._last = time.perf_counter()

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / CALIBRATION_REFERENCE_S


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so that the CLI's
    ``except Exception`` cannot turn it into exit code 2."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_package():
    if not (SRC / "tropsdp" / "cli.py").is_file():
        sys.exit(f"perfbench: no tropsdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tropsdp.cli

    if Path(tropsdp.cli.__file__).resolve().parent != SRC / "tropsdp":
        sys.exit(f"perfbench: imported tropsdp from {tropsdp.cli.__file__}, not {SRC}")
    return tropsdp.cli


def load_expected(workload) -> dict:
    path = EXPECTED / f"{workload.name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def deadline_for(verb: str, slowdown: float = 1.0, traced: bool = False) -> float:
    """Seconds on this machine; the certify deadline is fixed at the
    reference speed."""
    if verb == "generic":
        return corpus.CERTIFY_DEADLINE_S * slowdown * (5 if traced else 1)
    return corpus.OTHER_DEADLINE_S


def input_path(op: corpus.Op, workdir: Path) -> Path:
    if op.fixture:
        return corpus.FIXTURES / op.fixture
    return workdir / (op.key.replace(":", "_") + ".json")


def write_inputs(ops, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for op in ops:
        if not op.fixture:
            input_path(op, workdir).write_text(json.dumps(op.doc()))


def import_seconds(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); "
            f"import {modules}; print(time.perf_counter() - t)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


class Setup(NamedTuple):
    package_s: float  # median import of the package, as measured
    reference_s: float  # median import of the reference modules, as measured

    @property
    def seconds(self) -> float:
        """Package import time at the reference import speed."""
        return self.package_s * IMPORT_REFERENCE_S / self.reference_s


def setup(workload, seed, expected, workdir):
    """Write the run's inputs once, then time SETUP_REPEATS imports of the
    package, each next to one of the reference modules.  Writing the inputs
    is the benchmark's own work and is not part of the set-up time."""
    ops = corpus.operations(workload, seed, expected)
    if not ops:
        sys.exit(f"perfbench: no recorded pool for {workload.name}; run record.py")
    write_inputs(ops, workdir)
    package, reference = [], []
    for _ in range(SETUP_REPEATS):
        package.append(import_seconds(IMPORT_PACKAGE))
        reference.append(import_seconds(IMPORT_REFERENCE))
    return ops, Setup(statistics.median(package), statistics.median(reference))


def call_cli(cli, argv, deadline):
    """(exit code or None on deadline, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        rc = None
    return rc, out.getvalue(), time.perf_counter() - start


def verdict_of(op, rc, out) -> str:
    """Short verdict that the expected file pins."""
    if rc is None:
        return "undecided"
    if op.verb == "generic":
        try:
            return json.loads(out).get("status", f"exit {rc}")
        except ValueError:
            return f"exit {rc}"
    if op.verb == "validate":
        members = out.count('"member": true')
        return f"exit {rc}, {len(out.splitlines())} points, {members} members"
    rows = out.splitlines()[1:]
    return f"exit {rc}, {len(rows)} points, {sum(r.endswith(',1') for r in rows)} members"


def check(op, path, rc, out, expected_rec):
    """None when the output is right, else the reason."""
    if rc is None:
        return None
    if op.verb == "generic":
        failure = checks.check_generic(json.loads(path.read_text()), rc, out)
    elif op.verb == "validate":
        failure = checks.check_validate(rc, out)
    else:
        from tropsdp.pencils import load_pencil

        pencil, homogeneous = load_pencil(path)
        failure = checks.check_slice(op.key, pencil, homogeneous, op.extra, rc, out)
    if failure is None and expected_rec and expected_rec["verdict"] != "undecided":
        if verdict_of(op, rc, out) != expected_rec["verdict"]:
            failure = f"verdict {verdict_of(op, rc, out)!r}, expected {expected_rec['verdict']!r}"
        # a witness may change and stay valid (check_generic re-checks it),
        # but validate and slice outputs are deterministic
        elif op.verb != "generic" and checks.digest(out) != expected_rec["digest"]:
            failure = "output differs from the recorded output"
    return failure


class Result(NamedTuple):
    key: str
    seconds: float
    decided: bool  # finished before its deadline
    points: int  # grid points answered
    failure: str | None


def points_of(op, out) -> int:
    """Grid points answered by one call (slice rows minus the header)."""
    lines = out.count("\n")
    return lines - 1 if op.verb == "slice" else lines


def run_ops(cli, ops, workdir, expected, seconds=None, tracer=None, log=None, host=None):
    """Send ops in order until the time is up (or all are sent)."""
    results = []
    verified = {}  # (key, exit code, output digest) already checked -> failure
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if host:
            host.sample(every=CALIBRATION_EVERY_S)
        path = input_path(op, workdir)
        argv = [op.verb, str(path), *op.extra]
        _clear_caches()  # each call starts cold, as a fresh CLI process does
        if tracer:
            tracer.input_id = index
            tracer.on = True
        slowdown = host.slowdown if host else 1.0
        rc, out, elapsed = call_cli(cli, argv, deadline_for(op.verb, slowdown, tracer is not None))
        if tracer:
            tracer.on = False
        seen = (op.key, rc, checks.digest(out))  # a repeated fixture repeats its output
        if seen not in verified:
            try:
                verified[seen] = check(op, path, rc, out, expected.get(op.key))
            except Exception as exc:  # a crashing check is a failed output
                verified[seen] = f"check raised {type(exc).__name__}: {exc}"
        failure = verified[seen]
        results.append(Result(op.key, elapsed, rc is not None, points_of(op, out), failure))
        if failure and log:
            print(f"FAILED {op.key}: {failure}", file=log)
    return results


def _p90(values):
    ranked = sorted(values)
    return ranked[max(0, -(-9 * len(ranked) // 10) - 1)]


def end_to_end(results, setup_s, verb, slowdown):
    """Metric -> (value, unit), times and rates of the calls at the reference
    speed.  A verdict is
    one genericity answer per pencil for the generic verb and one membership
    answer per grid point for validate and slice."""
    times = [r.seconds / slowdown for r in results]
    busy = sum(times)
    verdicts = len(results) if verb == "generic" else sum(r.points for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pencil_s.p50": (statistics.median(times), "s"),
        "pencil_s.p90": (_p90(times), "s"),
        "decided_share": (sum(r.decided for r in results) / len(results), "ratio"),
        "pencils_per_s": (len(results) / busy, "1/s"),
        "verdicts_per_s": (verdicts / busy, "1/s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traceable(op, expected_rec) -> bool:
    if op.verb != "generic":
        return True
    return (
        expected_rec is not None
        and expected_rec["verdict"] != "undecided"
        and expected_rec["seconds"] <= TRACE_MAX_RECORDED_S
    )


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("tropsdp"):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def traced_run(cli, workload, ops, workdir, expected, seed):
    from tracing import Tracer

    ops = [op for op in ops if traceable(op, expected.get(op.key))][: workload.trace_ops]
    run_ops(cli, ops, workdir, expected)  # warm-up, so the timed passes run warm code
    before = sum(r.seconds for r in run_ops(cli, ops, workdir, expected))
    tracer = Tracer()
    tracer.install()
    results = run_ops(cli, ops, workdir, expected, tracer=tracer, log=sys.stderr)
    tracer.uninstall()
    after = sum(r.seconds for r in run_ops(cli, ops, workdir, expected))
    # untraced passes on both sides, so a drift in machine speed cancels
    overhead = sum(r.seconds for r in results) / ((before + after) / 2)
    metrics = tracer.metrics(points=sum(r.points for r in results))
    metrics["trace.overhead"] = (overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-s{seed}.jsonl")
    return results, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = corpus.WORKLOADS[args.workload]
    expected = load_expected(workload)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        host = HostSpeed()
        ops, set_up = setup(workload, args.seed, expected, workdir)
        setup_rss = peak_rss_mb()
        if args.trace:
            results, metrics = traced_run(cli, workload, ops, workdir, expected, args.seed)
        else:
            results = run_ops(cli, ops, workdir, expected, seconds=args.seconds,
                              log=sys.stderr, host=host)
            metrics = end_to_end(results, set_up.seconds, workload.verb, host.slowdown)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if r.failure)
    undecided = sum(1 for r in results if not r.decided)
    speed = (f"machine slowdown {host.slowdown:.3f} over {len(host.samples)} calibrations; "
             if host.samples else "")  # a traced run reports raw times
    print(
        f"{workload.name} seed {args.seed}: {len(results)} operations, {failed} failed "
        f"(failed_share {failed / len(results):.4f}), {undecided} undecided; "
        f"{speed}imports {set_up.package_s:.4f} s package, {set_up.reference_s:.4f} s reference; "
        f"peak RSS {setup_rss:.1f} MB after set-up, {peak_rss_mb():.1f} MB at the end"
    )
    report = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
