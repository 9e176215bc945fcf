"""Seeded pencil generator and the four workload definitions.

Every seeded input is one member of a fixed pool.  A pencil class is named
like ``M3x3p7``: Metzler (``M``) or not (``N``), m x n, value pool 7.  Pool
entry ``index`` of a class is generated from
``random.Random(f"{name}:{index}")``, so the pool is the same on every
machine and its outputs at a commit can be recorded once
(``expected/<workload>.json``, written by ``record.py``).  Value pool p
draws values a/b with |a| <= 4p and 1 <= b <= p, so pool 2 makes many
exact ties and pool 7 few.

A run sends the pool entries recorded as eligible, stratified by their
recorded time: the entries are sorted by it and cut into ``bins`` equal
strata, and each cycle of the closed loop sends one entry of every
stratum (plus the workload's fixtures and pinned entries).  The seed
picks the entry of each stratum and the order within a cycle.  So every
cycle carries the same cost profile, and the seed-to-seed spread of a
run's figures comes from within-stratum differences only, not from how
many slow pencils a seed happens to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Per-pencil deadline of the generic verb; a pencil that misses it counts as
# undecided at its measured time.
CERTIFY_DEADLINE_S = 1.0
# Safety net for validate and slice calls, which all finished in well under
# a second when their pools were recorded.
OTHER_DEADLINE_S = 60.0


# share of the matrix entries (i <= j) that are nonzero; the expected files
# were recorded with it, so it is part of the pool's definition
DENSITY = 0.7


def pencil_doc(cls: str, index: int) -> dict:
    """Pencil JSON document of pool entry ``index`` of class ``cls``.

    Diagonal entries are positive with probability 0.7; off-diagonal entries
    are negative for Metzler classes and of random sign otherwise.  A
    non-Metzler class redraws until some off-diagonal entry is positive.
    """
    metzler = cls[0] == "M"
    m, rest = cls[1:].split("x")
    m = int(m)
    n, p = (int(v) for v in rest.split("p"))
    rng = random.Random(f"{cls}:{index}")
    while True:
        matrices = []
        positive_off = False
        for k in range(n):
            entries = []
            for i in range(m):
                for j in range(i, m):
                    if rng.random() > DENSITY:
                        continue
                    value = Fraction(rng.randint(-4 * p, 4 * p), rng.randint(1, p))
                    if i == j:
                        sign = 1 if rng.random() < 0.7 else -1
                    elif metzler:
                        sign = -1
                    else:
                        sign = 1 if rng.random() < 0.5 else -1
                    positive_off |= i != j and sign > 0
                    coeff = ("+" if sign > 0 else "-") + str(value)
                    entries.append({"i": i + 1, "j": j + 1, "coeff": coeff})
            if entries:
                matrices.append({"k": k, "entries": entries})
        if metzler or positive_off:
            return {"m": m, "n": n, "homogeneous": True, "matrices": matrices}


# -- workloads -----------------------------------------------------------------
#
# An operation is one CLI call.  Its key names the recorded output in the
# expected file: "<class>:<index>" for pool pencils, "fixture:<file>" for
# fixtures.


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    pools: dict[str, int]  # class -> pool entries 0 .. count-1
    bins: int  # strata, i.e. pool pencils per cycle
    trace_ops: int  # operations of a traced run
    extra: tuple[str, ...] = ()  # argv after the pencil file, for pool pencils
    fixtures: tuple[tuple[str, tuple[str, ...]], ...] = ()  # sent in every cycle
    pinned: tuple[str, ...] = ()  # pool entries sent in every cycle, not stratified


WORKLOADS = {
    w.name: w
    for w in (
        # 4x3 pencils are 2% of the pool and mostly miss the deadline.
        # N4x3p7:4 grows the process by about 7 MB before its deadline, the
        # others by 2 MB at most; sent in every cycle, it makes peak_rss_mb
        # the same whether or not a seed draws it.
        Workload(
            "certify-general", "generic",
            {"N2x3p2": 400, "N2x3p7": 400, "N3x3p2": 200, "N3x3p7": 200,
             "N4x3p2": 10, "N4x3p7": 10},
            bins=64, trace_ops=40, pinned=("N4x3p7:4",),
        ),
        # 4x4 pencils are 6% of the pool and most of its time
        Workload(
            "certify-metzler", "generic",
            {"M3x3p2": 300, "M3x3p7": 300, "M4x4p2": 20, "M4x4p7": 20},
            bins=64, trace_ops=60,
        ),
        # n = 2: the default grid has 81 points, so a run holds many pencils;
        # the 729-point grids come from polygon9 and quadrant_ray.  polygon9
        # goes twice per cycle, so the slowest decile of calls is polygon9
        # alone and p90 does not straddle two kinds of input.
        Workload(
            "validate", "validate",
            {"M2x2p7": 60, "N2x2p7": 60, "M3x2p2": 60, "M3x2p7": 60, "N3x2p7": 60,
             "M4x2p7": 60},
            bins=12, trace_ops=16,
            fixtures=(
                ("polygon9.json", ("--max-m", "9", "--psd-bound", "9")),
                ("quadrant_ray.json", ()),
                ("polygon9.json", ("--max-m", "9", "--psd-bound", "9")),
                ("m1_distinct.json", ()),
                ("affine_quadrant.json", ()),
            ),
        ),
        # polygon9 is one call in eight, so p90 falls on polygon9 alone
        Workload(
            "raster", "slice",
            {"M3x3p2": 300, "M3x3p7": 300, "N3x3p2": 300, "N3x3p7": 300},
            bins=6, trace_ops=12,
            extra=("--fix", "x0=0", "--box=-8,8", "--step", "1/2"),
            fixtures=(
                ("polygon9.json", ("--fix", "x0=0", "--box", "0,8", "--step", "1/8")),
                ("quadrant_ray.json", ("--fix", "x0=0", "--box=-4,4", "--step", "1/8")),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    key: str
    verb: str
    fixture: str | None
    extra: tuple[str, ...]

    def doc(self) -> dict:
        """The generated pencil of a pool operation, written during set-up."""
        cls, index = self.key.split(":")
        return pencil_doc(cls, int(index))


def fixture_op(workload: Workload, fname: str, extra) -> Op:
    return Op(f"fixture:{fname}", workload.verb, fname, tuple(extra))


def pool_op(workload: Workload, key: str) -> Op:
    return Op(key, workload.verb, None, workload.extra)


def in_pool(workload: Workload, key: str) -> bool:
    cls, _, index = key.partition(":")
    return cls in workload.pools and int(index) < workload.pools[cls]


def operations(workload: Workload, seed: int, table: dict) -> list[Op]:
    """The seed-ordered operation list of a run, from the workload's
    expected table; a run stops when its time is up or when the smallest
    stratum is used up."""
    pool = sorted((rec["seconds"], key) for key, rec in table.items()
                  if in_pool(workload, key) and rec["eligible"] and key not in workload.pinned)
    n, b = len(pool), workload.bins
    strata = [[key for _, key in pool[j * n // b:(j + 1) * n // b]] for j in range(b)]
    rng = random.Random(f"{seed}:{workload.name}")
    for stratum in strata:
        rng.shuffle(stratum)
    ops: list[Op] = []
    for cycle in range(min(len(s) for s in strata)):
        ops.extend(fixture_op(workload, f, extra) for f, extra in workload.fixtures)
        picks = [s[cycle] for s in strata] + list(workload.pinned)
        rng.shuffle(picks)
        ops.extend(pool_op(workload, key) for key in picks)
    return ops
