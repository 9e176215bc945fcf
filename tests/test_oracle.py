from __future__ import annotations

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import time
import weakref
from collections import Counter
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers import (
    PLANTED_RICH,
    pencil_of,
    planted_doc,
    pool_doc,
    random_pencil,
    reference_is_metzler,
    reference_is_psd,
    reference_lift_entries,
    reference_minor_conditions,
    reference_nondeg,
    reference_validate_point,
)
from tropsdp import canonical_lift, oracle, pencils
from tropsdp.errors import NotCertified, NotMetzler
from tropsdp.oracle import (
    PuiseuxPencil,
    SandwichVerdict,
    cross_validate,
    default_grid,
    entrywise_lift,
    evaluate_pencil,
    grid_points,
    monomial_lift,
    psd_member,
    sin_member,
    sout_member,
    sval_pencil,
    valuation_sandwich_check,
)
from tropsdp import puiseux
from tropsdp.hypergraphs import Certificate, certify_generic_general, perturb_to_interior
from tropsdp.pencils import (
    SigmaChoice,
    TropicalPencil,
    _lattice,
    check_assumption_nondeg,
    decompose,
    general_member,
    grid_axis,
    homogenize,
    load_pencil,
    pencil_from_obj,
    stratum_restrict,
)
from tropsdp.puiseux import (
    PuiseuxPoly as P,
    PuiseuxSymMatrix,
    SeriesPolynomial,
    is_psd,
    principal_minor,
    sval,
)
from tropsdp.signed import MINUS_INF, SignedTrop, is_minus_inf

Z = F(0)
one = P.constant(1)
t = P.t_power(1)


def series_matrix(rows):
    return PuiseuxSymMatrix.from_rows(rows)


def test_monomial_lift_examples():
    assert monomial_lift((Z, F(-1))) == (one, P.t_power(-1))
    assert monomial_lift((MINUS_INF,)) == (P.zero(),)
    assert monomial_lift((F(1, 2),)) == (P.t_power(F(1, 2)),)


def test_evaluate_pencil_examples():
    hyp = load_pencil(FIXTURES / "line_pencil.json")[0]
    lift = canonical_lift(hyp)
    zero = evaluate_pencil(lift, monomial_lift((MINUS_INF,) * 3))
    assert all(not e for row in zero.entries for e in row)
    at_origin = evaluate_pencil(lift, monomial_lift((Z, Z, Z)))
    assert at_origin.entries[0][0] == P.constant(11)  # 12 - 1
    single = PuiseuxPencil(1, 1, (series_matrix([[t]]),))
    assert evaluate_pencil(single, (one,)).entries[0][0] == t


def test_sout_sin_examples():
    diag = PuiseuxPencil(2, 1, (series_matrix([[one, P.zero()], [P.zero(), one]]),))
    pt = (one,)
    assert sout_member(diag, pt) and sin_member(diag, pt)

    soft = PuiseuxPencil(2, 1, (series_matrix([[one, t], [t, one]]),))
    assert not sout_member(soft, pt)
    assert not sin_member(soft, pt)

    hard = PuiseuxPencil(2, 1, (series_matrix([[t, one], [one, t]]),))
    assert sout_member(hard, pt)
    assert sin_member(hard, pt)  # (m-1)^2 = 1
    assert psd_member(hard, pt)

    # at m = 3 the inner factor is 4: 3 * 1 >= 1^2 holds, 3 * 1 >= 4 * 1^2 does not
    zero, three = P.zero(), P.constant(3)
    edge = PuiseuxPencil(3, 1, (series_matrix([[three, one, zero], [one, one, zero], [zero, zero, one]]),))
    assert sout_member(edge, pt) and not sin_member(edge, pt)
    # a negative diagonal fails both before any pair is looked at
    negdiag = PuiseuxPencil(3, 1, (series_matrix([[one, zero, zero], [zero, -one, zero], [zero, zero, one]]),))
    assert not sout_member(negdiag, pt) and not sin_member(negdiag, pt)


def test_point_must_be_nonnegative():
    # all three membership tests refuse a point outside the nonnegative
    # orthant, whatever the pencil: psd_member on this one would say True
    diag = PuiseuxPencil(1, 1, (series_matrix([[one]]),))
    negative = PuiseuxPencil(1, 1, (series_matrix([[P.constant(-1)]]),))
    for pencil in (diag, negative):
        for member in (sout_member, sin_member, psd_member):
            with pytest.raises(ValueError, match="entry-wise nonnegative"):
                member(pencil, (P.constant(-1),))


def test_sandwich_chain_random():
    rng = random.Random(51)
    checked = sin_hits = 0
    for _ in range(60):
        pencil = random_pencil(rng, max_m=3, max_n=3)
        bp = entrywise_lift(pencil)
        for _ in range(20):
            bx = []
            for _ in range(pencil.n):
                if rng.random() < 0.1:
                    bx.append(P.zero())
                else:
                    lead = (F(rng.randint(-3, 3)), F(rng.randint(1, 3)))
                    terms = [lead]
                    if rng.random() < 0.5:
                        terms.append((lead[0] - rng.randint(1, 3), F(rng.choice([-2, 1]))))
                    bx.append(P.from_terms(terms))
            bx = tuple(bx)
            s_in, s_out, p_sd = sin_member(bp, bx), sout_member(bp, bx), psd_member(bp, bx)
            assert not (s_in and not p_sd)
            assert not (p_sd and not s_out)
            checked += 1
            sin_hits += s_in
    assert checked == 1200 and sin_hits > 0


def test_valuation_monotonicity():
    # outer-set membership of a lift forces tropical membership of the image
    rng = random.Random(52)
    for _ in range(40):
        pencil = random_pencil(rng, max_m=3, max_n=2)
        bp = entrywise_lift(pencil)
        assert sval_pencil(bp) == pencil
        for _ in range(15):
            bx = tuple(
                P.t_power(F(rng.randint(-4, 4), 2)) if rng.random() > 0.2 else P.zero()
                for _ in range(pencil.n)
            )
            if sout_member(bp, bx):
                assert general_member(pencil, tuple(sval(v).value for v in bx))


def test_cross_validate_requires_certificate():
    # certification comes first: a witness refuses the grid before a point
    # of it is drawn, so a lazy grid of any size costs nothing
    hyp = load_pencil(FIXTURES / "line_pencil.json")[0]
    grid = iter([(Z, Z, Z), (Z, Z, F(1))])
    with pytest.raises(NotCertified):
        cross_validate(hyp, grid)
    assert next(grid) == (Z, Z, Z)


def test_lift_is_compiled_once_per_pencil(monkeypatch):
    # the lift table is on the pencil's own lattice D; points with
    # denominators 1, 2 and 3 rescale their coordinates, not the table
    calls = []
    real = pencils._lift_table
    monkeypatch.setattr(pencils, "_lift_table", lambda p, canonical: (
        calls.append(p) or real(p, canonical)))
    axis = sorted({F(a, d) for d in (1, 2, 3) for a in range(-d, d + 1)})
    for name in ("quadrant_ray.json", "polygon9.json"):
        pencil = load_pencil(FIXTURES / name)[0]
        calls.clear()
        grid = with_bottoms([(Z, a, b) for a, b in itertools.product(axis, repeat=2)])
        assert all(r.ok for r in cross_validate(pencil, grid, max_m=9))
        assert len(calls) == len(set(calls)) > 1, name


def test_cross_validate_quadrant_ray():
    snp = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    grid = [(Z, a, b) for a, b in grid_points(2, -2, 2, F(1, 2))]
    records = cross_validate(snp, grid)
    assert all(r.ok for r in records)
    by_x = {r.x[1:]: r for r in records}
    assert by_x[(F(1), F(1))].member
    assert not by_x[(F(1), Z)].member
    rec = records[0].to_obj()
    assert set(rec) == {"x", "member", "checks", "ok"}
    assert set(rec["checks"]) == {"sout", "sin", "psd"}


def test_cross_validate_handles_bottom_points():
    m1 = load_pencil(FIXTURES / "m1_distinct.json")[0]
    grid = [(Z, F(-2)), (Z, MINUS_INF), (MINUS_INF, MINUS_INF), (MINUS_INF, Z)]
    records = cross_validate(m1, grid)
    assert all(r.ok for r in records)
    verdicts = {tuple(r.to_obj()["x"]): r.member for r in records}
    assert verdicts[("0", "-2")] is True  # 0 >= 1 - 2
    assert verdicts[("0", "-inf")] is True
    assert verdicts[("-inf", "-inf")] is True
    assert verdicts[("-inf", "0")] is False  # -inf >= 1 + 0 fails


def test_homogenization_consistency_at_samples():
    # membership of an affine instance matches its homogenized slice
    rng = random.Random(53)
    affine, homogeneous = load_pencil(FIXTURES / "affine_quadrant.json")
    assert not homogeneous
    base = stratum_restrict(affine, [1, 2])
    again = homogenize(affine.matrices[0], base)
    # the canonical lift's diagonal factor makes monomial lifts decide
    # membership exactly on this instance
    bp = canonical_lift(affine)
    for _ in range(40):
        x = tuple(F(rng.randint(-4, 4), 2) for _ in range(2))
        assert general_member(affine, (Z, *x)) == general_member(again, (Z, *x))
        bx = monomial_lift((Z, *x))
        assert psd_member(bp, bx) == (max(x) <= 0)


SEGMENT_EXAMPLE = SeriesPolynomial(
    2,
    {
        (0, 0): one,
        (2, 2): one,
        (1, 1): P.t_power(2),
        (2, 0): P.monomial(-1, 2),
        (0, 2): P.monomial(-1, 2),
    },
)


def test_sandwich_verdicts():
    assert valuation_sandwich_check([SEGMENT_EXAMPLE], (Z, Z)) is SandwichVerdict.WEAK_ONLY
    assert (
        valuation_sandwich_check([SEGMENT_EXAMPLE], (F(-2), F(-2)))
        is SandwichVerdict.STRICT_IN
    )
    verdict = valuation_sandwich_check([SEGMENT_EXAMPLE], (F(3), F(-3)))
    assert verdict is SandwichVerdict.OUT
    # consistency with the exact sign at the monomial lift
    from tropsdp.puiseux import sign_of

    value = SEGMENT_EXAMPLE.evaluate(monomial_lift((F(3), F(-3))))
    assert sign_of(value) < 0


def test_default_grid_shape():
    g = default_grid(2)
    assert len(g) == 81
    assert g[0] == (F(-2), F(-2)) and g[-1] == (F(2), F(2))
    with pytest.raises(ValueError):
        grid_points(1, 0, 1, 0)


def test_zero_matrix_is_psd():
    hyp = load_pencil(FIXTURES / "line_pencil.json")[0]
    lift = canonical_lift(hyp)
    assert psd_member(lift, monomial_lift((MINUS_INF,) * 3))


def test_cross_validate_polygon_integer_grid():
    fig = load_pencil(FIXTURES / "polygon9.json")[0]
    grid = [(Z, F(a), F(b)) for a in range(0, 9) for b in range(0, 9)]
    records = cross_validate(fig, grid, max_m=9)
    assert [r for r in records if not r.ok] == []
    members = {r.x[1:] for r in records if r.member}
    assert (F(4), F(4)) in members and (F(0), F(0)) not in members


def recomputed_checks(pencil, x, member):
    """The checks of one record, each through its own public predicate."""
    support = [k for k, v in enumerate(x) if not is_minus_inf(v)]
    if not support:
        return {"sout": True, "sin": True, "psd": True}
    pencil = stratum_restrict(pencil, support)
    x = tuple(x[k] for k in support)
    lift = canonical_lift(pencil) if pencil.is_metzler else entrywise_lift(pencil)
    bx = monomial_lift(x)
    # a member point of a non-Metzler pencil is checked piece by piece only
    recorded = pencil.is_metzler or not member
    return {
        "sout": sout_member(lift, bx),
        "sin": sin_member(lift, bx),
        "psd": psd_member(lift, bx) if recorded else None,
    }


def with_bottoms(grid):
    """The grid plus, for each point, copies with one coordinate at -inf."""
    out = list(grid)
    for p in grid[::3]:
        out += [p[:k] + (MINUS_INF,) + p[k + 1 :] for k in range(len(p))]
    return out


def validation_cases():
    affine = [(Z, a, b) for a, b in grid_points(2, -2, 2, 1)]
    for name, grid in [
        ("affine_quadrant.json", affine),
        ("m1_distinct.json", [(Z, a) for (a,) in grid_points(1, -2, 2, F(1, 2))]),
        ("quadrant_ray.json", affine),
        ("polygon9.json", [(Z, a, b) for a, b in grid_points(2, 0, 8, 2)]),
    ]:
        yield load_pencil(FIXTURES / name)[0], with_bottoms(grid)
    rng = random.Random(57)
    kept = 0
    while kept < 8:
        pencil = random_pencil(rng, max_m=3, max_n=3, metzler=kept % 2 == 0)
        if isinstance(certify_generic_general(pencil), Certificate):
            kept += 1
            yield pencil, with_bottoms(grid_points(pencil.n, -1, 1, 1))


def test_cross_validate_records_match_public_predicates():
    seen = {True: 0, False: 0}
    for pencil, grid in validation_cases():
        records = cross_validate(pencil, grid, max_m=9)
        assert len(records) == len(grid)
        for rec in records:
            obj = rec.to_obj()
            assert obj["ok"], obj
            assert rec.member == general_member(pencil, rec.x)
            assert obj["checks"] == recomputed_checks(pencil, rec.x, rec.member), obj
            seen[rec.member] += 1
    assert min(seen.values()) > 50


NON_MEMBER_FAILURES = [
    "non-member point satisfies the outer minor inequalities",
    "non-member point lifts to a semidefinite matrix",
    "non-member point satisfies the inner minor inequalities",
]
METZLER_MEMBER_FAILURES = [
    "member point escapes the inner set of the canonical lift",
    "member point lifts to a non-semidefinite matrix",
    "member point escapes the outer set",
]
PIECE_FAILURE = "strict point of a Metzler piece of its sigma lifts outside PSD"


def test_wrong_verdicts_are_reported_as_failures(monkeypatch, capsys):
    # every rec.fail of the oracle, reached by making the verdict it reads
    # wrong: each message must land in the record of the point that failed
    from tropsdp import cli

    real_verdicts = oracle._lift_verdicts
    real_member, real_class = oracle._member, oracle._class_record
    metzler = load_pencil(FIXTURES / "m1_distinct.json")[0]
    general = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    cases = [(metzler, grid_points(2, -2, 2, 1)), (general, grid_points(3, -1, 1, 1))]
    truth = [cross_validate(pencil, grid) for pencil, grid in cases]
    assert all(r.ok for records in truth for r in records)

    # wrong lift verdicts: every (outer, inner, psd) the oracle reads
    monkeypatch.setattr(oracle, "_lift_verdicts",
                        lambda *args: tuple(not v for v in real_verdicts(*args)))
    classes = []
    monkeypatch.setattr(oracle, "_class_record",
                        lambda *args: classes.append(args[2]) or real_class(*args))
    for (pencil, grid), expected in zip(cases, truth):
        classes.clear()
        records = cross_validate(pencil, grid)
        members = set()
        for rec, true in zip(records, expected):
            assert rec.x == true.x and rec.member == true.member
            assert (rec.sout, rec.sin) == (not true.sout, not true.sin)
            assert rec.psd == (None if true.psd is None else not true.psd)
            if not rec.member:
                assert rec.failures == NON_MEMBER_FAILURES
            elif pencil.is_metzler:
                assert rec.failures == METZLER_MEMBER_FAILURES + [PIECE_FAILURE]
            else:
                assert rec.failures and set(rec.failures) == {PIECE_FAILURE}
            members.add(rec.member)
        assert members == {True, False}
        assert [rec.to_obj()["ok"] for rec in records] == [False] * len(grid)
        # every point builds its own record; translates x + lambda * 1 get
        # the same failures
        shared: dict = {}
        for rec in records:
            key = rec.member, tuple(v - rec.x[0] for v in rec.x)
            assert shared.setdefault(key, rec.failures) == rec.failures
        assert len(classes) == len(records) > len(shared)

    code = cli.main(["validate", str(FIXTURES / "m1_distinct.json")])
    out, err = capsys.readouterr()
    assert code == 1 and err == "81 points, 81 failures\n"
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(line["ok"] is False for line in lines)
    # a failing line carries its record's failure texts
    records = cross_validate(metzler, default_grid(2))
    assert [line["failures"] for line in lines] == [r.failures for r in records]
    assert out == "".join(json.dumps(r.to_obj()) + "\n" for r in records)

    # wrong membership verdicts: at the all--inf point, and on support strata
    monkeypatch.undo()
    # X of a lattice is None at each -inf coordinate
    monkeypatch.setattr(oracle, "_member", lambda pencil, lattice: (
        real_member(pencil, lattice) != (pencil.n < general.n or lattice[2].count(None) == pencil.n)
    ))
    bottoms = [(MINUS_INF,) * 3, (MINUS_INF, Z, F(1)), (Z, MINUS_INF, Z), (Z, F(1), Z)]
    records = cross_validate(general, bottoms)
    assert [r.failures for r in records] == [
        ["all--inf point must be a member"],
        ["membership disagrees with its support stratum"],
        ["membership disagrees with its support stratum"],
        [],
    ]
    assert [r.member for r in records] == [False] + [general_member(general, x)
                                                     for x in bottoms[1:]]
    assert [(r.sout, r.sin, r.psd) for r in records[1:3]] == [(None, None, None)] * 2
    assert [rec.to_obj()["ok"] for rec in records] == [False] * 3 + [True]
    assert [rec.to_obj().get("failures") for rec in records] == [
        *(r.failures for r in records[:3]), None]


def test_cross_validate_caches_do_not_outlive_the_call(monkeypatch):
    def live(cls):
        return sum(isinstance(o, cls) for o in gc.get_objects())

    gc.collect()
    before = live(TropicalPencil), live(PuiseuxPencil)
    pieces = []
    real = oracle.decompose
    monkeypatch.setattr(oracle, "decompose", lambda p, c: (
        pieces.append(weakref.ref(piece := real(p, c))) or piece))
    pencil = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    grid = with_bottoms([(Z, a, b) for a, b in grid_points(2, -2, 2, 1)])
    records = cross_validate(pencil, grid)
    assert all(r.ok for r in records)
    # the call's pieces go with it; the pencil keeps its own lift compile
    lift, first = pencil._lift, len(pieces)
    del records
    gc.collect()
    assert first > 0 and all(ref() is None for ref in pieces)
    records = cross_validate(pencil, grid)
    assert all(r.ok for r in records)
    assert pencil._lift is lift and len(pieces) > first
    ref = weakref.ref(pencil)
    del pencil, records, lift
    gc.collect()
    assert ref() is None
    assert (live(TropicalPencil), live(PuiseuxPencil)) == before


def denominator_pencils(count):
    """Certified seeded pencils, m, n >= 2, whose values have denominators
    3, 7 and 9, each with member points on its 1/3-step grid over [-1, 1]."""
    rng = random.Random(39)
    while count:
        base = random_pencil(rng, max_m=3, max_n=3, metzler=count % 2 == 0)
        if min(base.m, base.n) < 2:
            continue
        pencil = pencil_of(base.m, base.n, {
            (k, i, j): SignedTrop(a.sign, a.value / rng.choice((3, 7, 9)))
            for k, mat in enumerate(base.matrices)
            for i in range(base.m)
            for j in range(i, base.m)
            if (a := mat[i][j]).sign
        })
        grid = grid_points(pencil.n, -1, 1, F(1, 3))
        if any(general_member(pencil, x) for x in grid) and isinstance(
            certify_generic_general(pencil), Certificate
        ):
            count -= 1
            yield pencil, grid


def lattice_cases():
    """(pencil, grid, max_m): the five fixtures, seeded pencils
    with denominators 3, 7 and 9, and 1/3-step grids with -inf coordinates;
    then the default grids of planted N4x3p7:1 at mu = 0 and M4x3p7:0 at
    mu = 2, rich in member points, so that the piece check runs often."""
    for name in ["affine_quadrant", "line_pencil", "m1_distinct", "quadrant_ray"]:
        pencil, homogeneous = load_pencil(FIXTURES / f"{name}.json")
        free = pencil.n if homogeneous else pencil.n - 1
        for grid in (default_grid(free), with_bottoms(grid_points(free, -1, 1, F(1, 3)))):
            yield pencil, grid if homogeneous else [(Z, *p) for p in grid], 4
    polygon9 = load_pencil(FIXTURES / "polygon9.json")[0]
    yield polygon9, with_bottoms([(Z, a, b) for a, b in grid_points(2, 0, 8, 1)]), 9
    for pencil, grid in denominator_pencils(8):
        yield pencil, grid, 4
    for cls, index, mu in PLANTED_RICH:
        pencil = pencil_from_obj(planted_doc(cls, index, mu))[0]
        yield pencil, default_grid(pencil.n), 4


def validation_outcome(validate):
    try:
        return [(r.to_obj(), r.failures) for r in validate()]
    except Exception as exc:  # line_pencil circulates: both paths must raise alike
        return type(exc), str(exc)


def test_lattice_records_match_fraction_path(monkeypatch):
    perturbed = []

    real = oracle._perturbed

    def counting_perturb(piece, lattice, farkas):
        perturbed.append(lattice)
        return real(piece, lattice, farkas)

    monkeypatch.setattr(oracle, "_perturbed", counting_perturb)
    denominators = set()
    for pencil, grid, max_m in lattice_cases():
        denominators.update(
            a.value.denominator for mat in pencil.matrices for row in mat for a in row if a.sign
        )
        lattice = validation_outcome(lambda: cross_validate(
            pencil, grid, assume_certified=True, max_m=max_m
        ))
        cache = {}
        fraction = validation_outcome(lambda: [
            reference_validate_point(pencil, tuple(p), max(5, max_m + 1), cache)
            for p in sorted(grid)
        ])
        assert lattice == fraction, pencil
    assert {3, 7, 9} <= denominators
    assert len(perturbed) > 50


@pytest.mark.parametrize("name, moved, solves", [
    ("quadrant_ray", 33, 5), ("polygon9", 11, 7), ("affine_quadrant", 9, 3)])
def test_validate_solves_each_tangent_hypergraph_once(monkeypatch, capsys, name, moved,
                                                      solves):
    """validate's call cache keeps the Farkas direction of each tangent
    hypergraph, so a repeated one solves its LP once per call: fewer LPs
    than the moved points, those with a tangent edge, while every moved
    point is still checked strict.  Each direction equals the one a
    cacheless perturb_to_interior finds at the point, and each target
    lattice is the _lattice of the moved point, or the point's own lattice
    when it does not move."""
    from tropsdp import cli, hypergraphs

    lps, strict, perturbed = [], [], []
    real_farkas, real_strict = hypergraphs.farkas_direction, hypergraphs._strict
    real_perturb = oracle._perturbed

    def perturb(piece, lattice, farkas):
        perturbed.append((piece, lattice, real_perturb(piece, lattice, farkas)))
        return perturbed[-1][2]

    monkeypatch.setattr(hypergraphs, "farkas_direction", lambda h: lps.append(h) or real_farkas(h))
    monkeypatch.setattr(hypergraphs, "_strict",
                        lambda p, lattice: strict.append(lattice) or real_strict(p, lattice))
    monkeypatch.setattr(oracle, "_perturbed", perturb)
    assert cli.main(["validate", str(FIXTURES / f"{name}.json"), "--max-m", "9"]) == 0
    capsys.readouterr()
    assert sum(any(eta) for _, _, (eta, _, _) in perturbed) == moved == len(strict)
    assert len(lps) == len(set(lps)) == solves < moved
    for piece, lattice, (eta, rho0, at) in perturbed:
        scale, _, X = lattice
        x = tuple(F(v, scale) for v in X)
        assert (eta, rho0) == perturb_to_interior(piece, x), (piece, x)
        target = tuple(v + rho0 * d for v, d in zip(x, eta))
        assert at == _lattice(piece, target) if any(eta) else at is lattice, (piece, x)


def test_pieces_share_the_walks_lattice(monkeypatch):
    """_pieces' lattice lemma: every piece it builds has its pencil's D,
    _terms[0], so the walk's lattice of a member point is the piece's too,
    and _tangent on it equals _tangent on the piece's own _lattice of the
    point.  The walks are validate's, on the certified fixtures and on
    seeded and planted non-Metzler pencils, over the axis of -2..2 by 1/2
    plus 5/13, so that the walk's scale exceeds most points' own."""
    from tropsdp import hypergraphs

    seen = []
    real = oracle._pieces

    def pieces(cache, pencil, lattice):
        seen.append((pencil, lattice, real(cache, pencil, lattice)))
        return seen[-1][2]

    monkeypatch.setattr(oracle, "_pieces", pieces)
    cases = [load_pencil(FIXTURES / f"{name}.json")
             for name in ["affine_quadrant", "m1_distinct", "polygon9", "quadrant_ray"]]
    rng = random.Random(47)
    while len(cases) < 10:
        pencil = random_pencil(rng, max_m=3, max_n=3, metzler=False)
        if not pencil.is_metzler and isinstance(certify_generic_general(pencil), Certificate):
            cases.append((pencil, True))
    cases += [pencil_from_obj(planted_doc(cls, index, 0)) for cls, index in [("N4x3p7", 1),
                                                                             ("N5x3p7", 5)]]
    axis = sorted([*grid_axis(1, -2, 2, F(1, 2)), F(5, 13)])
    counts = Counter()
    for pencil, homogeneous in cases:
        seen.clear()
        for _ in oracle._grid_lines(pencil, () if homogeneous else (Z,), axis, 9, 9):
            pass
        for walked, lattice, built in seen:
            x = tuple(F(v, lattice[0]) for v in lattice[2])
            counts["wider"] += _lattice(walked, x)[0] < lattice[0]
            for piece in built:
                assert piece._terms[0] == walked._terms[0], (walked, piece)
                own = _lattice(piece, x)
                assert hypergraphs._tangent(piece, lattice) == hypergraphs._tangent(piece, own), (
                    piece, x)
                counts["own" if piece is walked else "piece"] += 1
    assert counts["piece"] > 400 and counts["own"] > 25 and counts["wider"] > 200, counts


def terms_cases():
    """Seeded pencils, Metzler and not, with -inf entries, value pools 2 and
    7, the values of each matrix divided by one of 1, 3, 7 and 9, so that a
    pencil mixes them; in every other pool-2 pencil, each pair with two
    positive diagonal entries has odds 4:1 of an off-diagonal value that
    balances them, a degenerate minor.  Then the affine fixture."""
    rng = random.Random(2410)
    for count in range(120):
        pool = (2, 7)[count % 3 == 0]
        base = random_pencil(rng, max_m=4, max_n=3, metzler=count % 2 == 0, value_pool=pool)
        entries = {(k, i, j): a for k, mat in enumerate(base.matrices)
                   for i in range(base.m) for j in range(i, base.m) if (a := mat[i][j]).sign}
        if pool == 2 and count % 4 < 2:
            for k, mat in enumerate(base.matrices):
                for i, j in itertools.combinations(range(base.m), 2):
                    if mat[i][i].sign == mat[j][j].sign == 1 and rng.random() < 0.8:
                        sign = -1 if base.is_metzler else rng.choice((1, -1))
                        entries[k, i, j] = SignedTrop(sign, (mat[i][i].value + mat[j][j].value) / 2)
        divisor = [rng.choice((1, 3, 7, 9)) for _ in range(base.n)]
        yield pencil_of(base.m, base.n, {key: SignedTrop(a.sign, a.value / divisor[key[0]])
                                         for key, a in entries.items()})
    yield load_pencil(FIXTURES / "affine_quadrant.json")[0]


def test_terms_readers_match_the_matrix_loops():
    # is_metzler, check_assumption_nondeg and both series lifts read the
    # integer compile pencil._terms; each must equal its loop over the
    # SignedTrop matrices, entry by entry and in (k, i, j) order
    seen = Counter()
    for pencil in terms_cases():
        metzler = reference_is_metzler(pencil)
        assert pencil.is_metzler == metzler, pencil
        bad = reference_nondeg(pencil)
        assert check_assumption_nondeg(pencil) == bad, pencil
        lifts = [(False, entrywise_lift)]
        if metzler:
            lifts.append((True, canonical_lift))
        else:
            with pytest.raises(NotMetzler):
                canonical_lift(pencil)
        for canonical, lift in lifts:
            bp = lift(pencil)
            assert (bp.m, bp.n) == (pencil.m, pencil.n)
            entries = [[list(row) for row in mat.entries] for mat in bp.matrices]
            assert entries == reference_lift_entries(pencil, canonical), pencil
        dens = {a.value.denominator for mat in pencil.matrices for row in mat for a in row
                if a.sign}
        seen["metzler" if metzler else "general"] += 1
        seen["minus inf"] += any(not a.sign for mat in pencil.matrices for row in mat
                                 for a in row)
        seen["mixed denominators"] += len(dens & {3, 7, 9}) >= 2
        seen["degenerate"] += len(bad) > 0
        seen["several degenerate"] += len(bad) > 1
    assert min(seen.values()) >= 5, seen


def test_stratum_membership_is_decided_once(monkeypatch):
    calls = []
    real = oracle._member
    # a lattice (S, f, X) determines its point x = X / S
    monkeypatch.setattr(oracle, "_member", lambda p, lattice: (
        calls.append((p, lattice[0], tuple(lattice[2]))) or real(p, lattice)))
    pencil = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    # a point listed twice is validated twice, so each point is listed once
    grid = sorted(set(with_bottoms([(Z, a, b) for a, b in grid_points(2, -2, 2, 1)])))
    records = cross_validate(pencil, grid)
    assert all(r.ok for r in records)
    bottoms = sum(any(map(is_minus_inf, x)) for x in grid)
    assert bottoms > 10
    # once per point, and once more on the support stratum of a point with a -inf
    assert len(set(calls)) == len(calls) == len(grid) + bottoms


def translates(points):
    """The points with translates along the all-ones direction onto other
    lattices, then with one coordinate at -inf."""
    shifts = (0, F(1, 2), F(-1, 3), 1, F(5, 7))
    return with_bottoms([tuple(v + shift for v in p) for p in points for shift in shifts])


def class_cases():
    """(pencil, grid): certified seeded pencils, Metzler and not, m <= 4
    and n <= 3, value pools 2 (ties) and 7, on translates of member and
    random points, -inf coordinates, repeated points and unsorted grids;
    affine x0 = 0 grids of the fixtures; line_pencil, which circulates."""
    rng = random.Random(2207)
    kinds = Counter()
    while len(kinds) < 8 or min(kinds.values()) < 2:
        pool = rng.choice((2, 7))
        pencil = random_pencil(rng, max_m=4, max_n=3, metzler=rng.random() < 0.5,
                               value_pool=pool)
        kind = pencil.is_metzler, pool, pencil.m > 2
        if kinds[kind] >= 2 or min(pencil.m, pencil.n) < 2:
            continue
        members = [x for x in grid_points(pencil.n, -6, 6, 1) if general_member(pencil, x)]
        if not members or not isinstance(certify_generic_general(pencil), Certificate):
            continue
        kinds[kind] += 1
        points = rng.sample(members, min(3, len(members))) + [
            tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(pencil.n))
            for _ in range(3)
        ]
        grid = translates(points)
        grid += rng.sample(grid, 5)
        rng.shuffle(grid)
        yield pencil, grid
    yield pencil_of(1, 2, {(0, 0, 0): "+0", (1, 0, 0): "-0"}), [(Z, F(1)), (F(1, 2), F(3, 2))]
    for name in ["affine_quadrant", "quadrant_ray"]:
        pencil = load_pencil(FIXTURES / f"{name}.json")[0]
        grid = [(Z, *p) for p in grid_points(pencil.n - 1, -2, 2, F(1, 2))]
        yield pencil, with_bottoms(grid[::-1])
    # its tangent hypergraph circulates at the member points (c, c, c)
    line = load_pencil(FIXTURES / "line_pencil.json")[0]
    yield line, translates([(F(-1), F(2), Z), (F(1, 2), F(1, 2), F(1, 2))])


def test_class_records_match_per_point_validation():
    """cross_validate gives the records and failures, or raises the
    exception, of the Fraction-termed reference on translates, -inf
    coordinates, repeated points and unsorted grids."""
    seen = Counter()
    for pencil, grid in class_cases():
        records = validation_outcome(lambda: cross_validate(pencil, grid, assume_certified=True))
        cache = {}
        fraction = validation_outcome(lambda: [
            reference_validate_point(pencil, tuple(x), 5, cache) for x in sorted(grid)
        ])
        assert records == fraction, pencil
        if isinstance(records, tuple):
            seen["raised"] += 1
            continue
        for obj, _ in records:
            seen[pencil.is_metzler, obj["member"]] += 1
    assert seen["raised"] == 1
    assert min(seen[key] for key in itertools.product((True, False), (True, False))) > 20, seen


# the one-variable m = 2 pencil of the CI's pinned validate records
M2N1 = ('{"m": 2, "n": 1, "homogeneous": true, "matrices": [{"k": 0, "entries": ['
        '{"i": 1, "j": 1, "coeff": "+0"}, {"i": 1, "j": 2, "coeff": "+1"}, '
        '{"i": 2, "j": 2, "coeff": "+3"}]}]}')


def test_validate_builds_each_class_record_once(monkeypatch, capsys, tmp_path):
    # the CLI walk keys a class by axis-index differences: it builds a
    # record exactly where a new (member, x - x_0 * 1) first appears in
    # lexicographic order, and renders a line tail once per distinct
    # printed verdict
    from tropsdp import cli

    built, rendered = [], []
    real, real_obj = oracle._class_record, oracle.ValidationRecord.to_obj
    monkeypatch.setattr(oracle, "_class_record", lambda cache, pencil, x, *rest: (
        built.append(x) or real(cache, pencil, x, *rest)))
    monkeypatch.setattr(oracle.ValidationRecord, "to_obj",
                        lambda rec: rendered.append(rec) or real_obj(rec))
    m2n1 = tmp_path / "m2n1.json"
    m2n1.write_text(M2N1)
    lowest = [x for x in default_grid(3) if min(x) == -2]
    # line_pencil, the one fixture left out, has a witness and draws no point
    for path, argv, step in [
        (FIXTURES / "polygon9.json", ["--max-m", "9"], F(1, 2)),
        (FIXTURES / "polygon9.json", ["--max-m", "9", "--step", "1/4"], F(1, 4)),
        (FIXTURES / "quadrant_ray.json", [], F(1, 2)),
        # the grid's lattice scale (3) exceeds its integer points' own
        (FIXTURES / "quadrant_ray.json", ["--step", "1/3"], F(1, 3)),
        (FIXTURES / "m1_distinct.json", [], F(1, 2)),
        # an x0 = 0 grid has no translates: one class per point
        (FIXTURES / "affine_quadrant.json", [], F(1, 2)),
        (m2n1, [], F(1, 2)),
    ]:
        built.clear()
        rendered.clear()
        code = cli.main(["validate", str(path), *argv])
        out, err = capsys.readouterr()
        assert code == 0 and err.endswith(" points, 0 failures\n")
        pencil, homogeneous = load_pencil(path)
        lead = () if homogeneous else (Z,)
        keys, expected = set(), []
        for x in grid_points(pencil.n - len(lead), -2, 2, step):
            x = (*lead, *x)
            key = general_member(pencil, x), tuple(v - x[0] for v in x)
            if key not in keys:
                keys.add(key)
                expected.append(x)
        assert built == expected, (path.name, argv)
        tails = {line[line.index("]"):] for line in out.splitlines()}
        assert len(rendered) == len(tails), (path.name, argv)
        if path.name in ("polygon9.json", "quadrant_ray.json") and step == F(1, 2):
            assert built == lowest and len(built) == 217
            assert len(rendered) < 217
        if path.name == "affine_quadrant.json":
            assert len(built) == 81
        if path == m2n1:
            assert len(built) == 1  # one variable: every point a translate of the first


def test_cross_validate_refuses_a_point_of_the_wrong_length():
    pencil = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    for x in [(Z, F(1)), (Z, F(1), F(2), F(3))]:
        with pytest.raises(ValueError, match=f"expected 3 coordinates, got {len(x)}"):
            cross_validate(pencil, [(Z, Z, Z), x], assume_certified=True)


def lattice_pencil(rng: random.Random, m: int, metzler: bool) -> TropicalPencil:
    """Seeded m x m pencil, n = 1..3, with values over the coprime denominators
    1, 2, 3, 5 and 7; off-diagonal entries are negative when metzler is set."""
    n = rng.randint(1, 3)
    entries = {}
    for k, i in itertools.product(range(n), range(m)):
        for j in range(i, m):
            if rng.random() < 0.7:
                sign = -1 if metzler and i != j else rng.choice((1, -1))
                value = F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
                entries[(k, i, j)] = SignedTrop(sign, value)
    return pencil_of(m, n, entries)


def cancelling_points(pencil: TropicalPencil, rng: random.Random):
    """Points at which a positive and a negative term of one entry meet:
    x_l - x_k = v_k - v_l for a positive value v_k and a negative v_l."""
    for i, j in itertools.combinations_with_replacement(range(pencil.m), 2):
        entry = [mat[i][j] for mat in pencil.matrices]
        for (k, a), (l, b) in itertools.permutations(enumerate(entry), 2):
            if a.sign > 0 > b.sign:
                x = [F(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(pencil.n)]
                x[l] = x[k] + a.value - b.value
                yield tuple(x)


def test_lattice_table_matches_evaluate_pencil():
    rng = random.Random(73)
    cancelled = kinds = 0
    for m, metzler, _ in itertools.product(range(1, 6), (True, False), range(4)):
        pencil = lattice_pencil(rng, m, metzler)
        kinds |= 1 << pencil.is_metzler
        lift = canonical_lift(pencil) if pencil.is_metzler else entrywise_lift(pencil)
        den = lcm(*(a.value.denominator for mat in pencil.matrices for row in mat for a in row if a.sign))
        points = [
            tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3, 5, 7))) for _ in range(pencil.n))
            for _ in range(6)
        ] + list(cancelling_points(pencil, rng))
        for x in points:
            # the Fraction-term lift and point, with t -> t^scale: int exponents
            scale = lcm(den, *(v.denominator for v in x))

            def scaled(p):
                assert all((e * scale).denominator == 1 for e, _ in p.terms)
                return P(tuple((int(e * scale), c) for e, c in p.terms))

            on_lattice = PuiseuxPencil(pencil.m, pencil.n, tuple(
                series_matrix([[scaled(e) for e in row] for row in mat.entries])
                for mat in lift.matrices
            ))
            want = evaluate_pencil(on_lattice, tuple(P(((int(v * scale), 1),)) for v in x))
            got = series_matrix(oracle._lift_at(pencil, _lattice(pencil, x))[0])
            for i, j in itertools.product(range(pencil.m), repeat=2):
                assert got.entries[i][j].terms == want.entries[i][j].terms, (pencil, x, i, j)
                assert all(type(e) is int and type(c) is int for e, c in got.entries[i][j].terms)
                cancelled += not want.entries[i][j] and any(mat.entries[i][j] for mat in lift.matrices)
    assert kinds == 3 and cancelled > 20


def _dense_5x3(rng: random.Random):
    """5x3 non-Metzler pencil: x0's diagonal positive at 6..12, x1 and x2
    entries of random sign at density 0.6."""
    entries = {(0, i, i): SignedTrop(1, F(rng.randint(6, 12))) for i in range(5)}
    for k, i in itertools.product((1, 2), range(5)):
        for j in range(i, 5):
            if rng.random() < 0.6:
                entries[(k, i, j)] = SignedTrop(rng.choice((1, -1)), F(rng.randint(-4, 4)))
    return pencil_of(5, 3, entries)


def test_validate_builds_only_the_pieces_of_the_member_sigma(monkeypatch):
    # 3^10 (sigma, diamond) pieces: only the 2^|diamond| of each point's sigma are built
    pencil = _dense_5x3(random.Random(144))
    assert not pencil.is_metzler
    assert isinstance(certify_generic_general(pencil, max_m=5), Certificate)
    built = []
    real = oracle.decompose
    monkeypatch.setattr(oracle, "decompose", lambda p, c: built.append(c) or real(p, c))
    grid = [(Z, a, b) for a, b in grid_points(2, 0, 6, F(1, 2))]
    start = time.monotonic()
    records = cross_validate(pencil, grid, assume_certified=True, max_m=5)
    assert time.monotonic() - start < 5.0
    assert all(r.ok for r in records) and sum(r.member for r in records) > 20
    sigmas = {c.sigma for c in built}
    assert any(len(s) < 10 for s in sigmas)
    for sigma in sigmas:  # each piece of the sigma once, whatever the number of its points
        diamonds = [c.diamond for c in built if c.sigma == sigma]
        assert len(diamonds) == len(set(diamonds)) == 2 ** (10 - len(sigma))


@st.composite
def sparse_matrices(draw):
    """(a, pairs, blocks): a symmetric m x m series matrix, m <= 6, with zero
    entries and entries whose terms cancel to zero or below the lead; pairs
    its nonzero pairs plus some zero ones, as a lift's compiled pairs list
    entries that cancel at a point; blocks the components of its nonzero
    pattern merged at random, down to the single block range(m)."""
    m = draw(st.integers(1, 6))
    terms = st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2).filter(bool)), min_size=1, max_size=3)
    leads = [draw(st.integers(2, 4)) for _ in range(m)]
    rows = [[None] * m for _ in range(m)]
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        if i == j:  # a lead that is mostly positive and never cancels
            sign = -1 if draw(st.integers(0, 9)) == 5 else 1
            own = [(leads[i], sign * draw(st.integers(1, 4)))]
            own += [(leads[i] - 1 - e, c) for e, c in draw(terms)]
            cancel = draw(st.sampled_from(((), own[1:])))
        else:  # zero, or mostly at most the diagonal's geometric mean and often tied
            top = (leads[i] + leads[j]) // 2 + draw(st.sampled_from((0, -1, 0, -1, 0, 1)))
            own = [] if draw(st.booleans()) else [(top - e, c) for e, c in draw(terms)]
            cancel = draw(st.sampled_from(((), own, own[1:])))
        rows[i][j] = rows[j][i] = P.from_terms(own + [(e, -c) for e, c in cancel])
    a = series_matrix(rows)
    nonzero = puiseux._nonzero_pairs(a.entries)
    zero = [p for p in itertools.combinations(range(m), 2) if p not in nonzero]
    extra = draw(st.lists(st.sampled_from(zero), unique=True)) if zero else []
    pairs = sorted(nonzero + extra)
    comps = puiseux._components(m, nonzero)
    labels = [draw(st.integers(0, len(comps) - 1)) for _ in comps]
    blocks = [
        tuple(sorted(i for comp, l in zip(comps, labels) if l == label for i in comp))
        for label in sorted(set(labels))
    ]
    return a, pairs, blocks


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_minors_and_psd_blocks_match_dense(case):
    a, pairs, blocks = case
    nonzero = puiseux._nonzero_pairs(a.entries)
    want = reference_minor_conditions(a)
    assert oracle._minor_conditions(a.entries, nonzero) == want
    assert oracle._minor_conditions(a.entries, pairs) == want
    assert puiseux._psd_verdict(a.entries, want[0], blocks) == reference_is_psd(a)


def int_poly(terms) -> P:
    """The canonical int-termed series of (exponent, coefficient) pairs,
    equal exponents summed and zero sums dropped."""
    acc: dict = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return P(tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c))


@st.composite
def tied_matrices(draw):
    """A symmetric m x m int-term series matrix, 2 <= m <= 5, whose pairs
    tie at the top.  a_ii leads with ((m-1) s_i)^2 t^(2 d_i); a_ij is 0, a
    free lead, or leads at t^(d_i + d_j) with (m-1)^2 s_i s_j, where
    c_ii c_jj = c_ij^2, or with (m-1) s_i s_j, where c_ii c_jj =
    (m-1)^2 c_ij^2, either sign.  The pair (0, 1) always ties.  Lower terms
    are random, and an off-diagonal entry may carry top terms that cancel."""
    m = draw(st.integers(2, 5))
    d = [draw(st.integers(0, 3)) for _ in range(m)]
    s = [draw(st.integers(1, 3)) for _ in range(m)]
    lower = st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4).filter(bool)), max_size=3)
    rows = [[P.zero()] * m for _ in range(m)]
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        top = d[i] + d[j]
        if i == j:
            lead = ((m - 1) * s[i]) ** 2
        else:
            ties = [(m - 1) ** 2 * s[i] * s[j], (m - 1) * s[i] * s[j]]
            free = [] if (i, j) == (0, 1) else [0, draw(st.integers(-9, 9))]
            lead = draw(st.sampled_from(ties + free)) * draw(st.sampled_from((1, -1)))
        terms = [(top, lead)] + [(top - e, c) for e, c in draw(lower)]
        if i != j and draw(st.booleans()):
            c = draw(st.integers(1, 4))
            terms += [(top + 1, c), (top + 1, -c)]
        rows[i][j] = rows[j][i] = int_poly(terms)
    return series_matrix(rows)


@settings(max_examples=150, deadline=None)
@given(tied_matrices())
def test_minors_tied_at_the_top_are_decided_by_the_products(a):
    # the leads of the pair (0, 1) tie, so its products are formed and compared
    want = reference_minor_conditions(a)
    real, calls = puiseux.mul, []
    with mock.patch.object(puiseux, "mul", lambda x, y: calls.append(1) or real(x, y)):
        got = oracle._minor_conditions(a.entries, puiseux._nonzero_pairs(a.entries))
    assert got == want and len(calls) >= 2
    assert is_psd(a) == reference_is_psd(a)


@settings(max_examples=150, deadline=None)
@given(tied_matrices())
def test_exact_minor_rule_reads_no_leads(a):
    # _minor_conditions compares products only: the lead rule of validate's
    # lead pass is not part of it, so comparing the two compares two procedures
    def refuse(*args):
        raise AssertionError("the exact minor rule read the leads")

    want, bp = reference_minor_conditions(a), PuiseuxPencil(a.m, 1, (a,))
    with mock.patch.object(puiseux, "_lead_signs", refuse):
        assert oracle._minor_conditions(a.entries, puiseux._nonzero_pairs(a.entries)) == want
        assert (sout_member(bp, (one,)), sin_member(bp, (one,))) == want
        assert is_psd(a) == reference_is_psd(a)


def test_compiled_blocks_hold_every_nonzero_entry():
    """At every point the oracle evaluates, each nonzero off-diagonal entry
    is a compiled pair and each component of the nonzero pattern lies inside
    one compiled block: what _minor_conditions and _psd_verdict rely on.
    The validation cases' lifts are those cross_validate would read, full
    rows taken directly: the pencil's (its support's sub-pencil at a -inf
    coordinate) and, at a member point, each piece's at its perturbed
    target."""
    seen = {"points": 0, "cancelled": 0, "split": 0}

    def check(pencil, lattice):
        a, pairs, blocks = oracle._lift_at(pencil, lattice)
        nonzero = puiseux._nonzero_pairs(a)
        assert set(nonzero) <= set(pairs), (pencil, lattice)
        assert blocks == puiseux._components(pencil.m, pairs)
        block_of = {i: set(b) for b in blocks for i in b}
        comps = puiseux._components(len(a), nonzero)
        for comp in comps:
            assert set(comp) <= block_of[comp[0]], (pencil, lattice)
        seen["points"] += 1
        seen["cancelled"] += len(pairs) > len(nonzero)
        seen["split"] += len(comps) > len(blocks)

    for pencil, grid in validation_cases():
        cache = {}
        for x in grid:
            support = tuple(k for k, v in enumerate(x) if not is_minus_inf(v))
            if not support:
                continue
            sub = stratum_restrict(pencil, support) if len(support) < pencil.n else pencil
            y = tuple(x[k] for k in support)
            lattice = _lattice(sub, y)
            check(sub, lattice)
            if general_member(sub, y):
                for piece in oracle._pieces(cache, sub, lattice):
                    eta, rho0 = perturb_to_interior(piece, y)
                    check(piece, _lattice(piece, tuple(v + rho0 * d for v, d in zip(y, eta))))
    line = load_pencil(FIXTURES / "line_pencil.json")[0]
    for x in default_grid(line.n):
        check(line, _lattice(line, x))
    fixture_points = seen["points"]
    rng = random.Random(91)
    pieces = 0
    for m, metzler, _ in itertools.product(range(1, 6), (True, False), range(4)):
        pencil = lattice_pencil(rng, m, metzler)
        targets = [pencil]
        pairs = list(itertools.combinations(range(m), 2))
        for _ in range(0 if pencil.is_metzler else 3):
            sigma = frozenset(p for p in pairs if rng.random() < 0.5)
            diamond = tuple((p, rng.choice((">=", "<="))) for p in pairs if p not in sigma)
            targets.append(decompose(pencil, SigmaChoice(m, sigma, diamond)))
        pieces += len(targets) - 1
        points = [
            tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(pencil.n))
            for _ in range(4)
        ] + list(cancelling_points(pencil, rng))
        for target, x in itertools.product(targets, points):
            check(target, _lattice(target, x))
    assert fixture_points > 1000 and pieces > 30
    assert seen["cancelled"] > 10 and seen["split"] > 5


def test_lift_verdicts_match_reference():
    """(outer, inner, psd) as the oracle reads them off a lift, psd from the
    outer test and the elimination of blocks of three or more, equals the
    reference's on the same matrix: lifts whose compiled blocks have one to
    five indices, at member points, at random points and at points where an
    entry's terms cancel."""
    rng = random.Random(29)
    # every entry at value 0: at x = 0 outer holds, but the 3x3 determinant is -4
    tie = pencil_of(3, 1, {
        (0, i, j): "-0" if (i, j) == (0, 2) else "+0"
        for i, j in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    })
    pencils = [tie] + [
        lattice_pencil(rng, m, metzler)
        for m, metzler, _ in itertools.product(range(1, 6), (True, False), range(12))
    ]
    sizes, seen, cancelled = set(), Counter(), 0
    for pencil in pencils:
        points = [x for x in grid_points(pencil.n, -2, 2, 1) if general_member(pencil, x)]
        points += [
            tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(pencil.n))
            for _ in range(4)
        ] + list(cancelling_points(pencil, rng))
        for x in points:
            rows, pairs, blocks = oracle._lift_at(pencil, _lattice(pencil, x))
            outer, inner = oracle._minor_conditions(rows, pairs)
            got = (outer, inner, oracle._psd_verdict(rows, outer, blocks))
            a = series_matrix(rows)
            assert got == (*reference_minor_conditions(a), reference_is_psd(a)), (pencil, x)
            sizes.update(map(len, blocks))
            cancelled += len(pairs) > len(puiseux._nonzero_pairs(rows))
            seen[outer, got[2], max(map(len, blocks)) >= 3] += 1
    assert sizes == {1, 2, 3, 4, 5} and cancelled > 10
    # outer holds on a block of three or more, and the higher minors decide both ways
    assert seen[True, True, True] > 50 and seen[True, False, True] > 5
    assert seen[False, False, True] > 50


def tied_diagonal_pencil(rng: random.Random, m: int) -> TropicalPencil:
    """Seeded non-Metzler m x m pencil, n = 3: each diagonal entry is +a in
    x0, -a in x1 and a lower negative value in x2, off-diagonal entries are
    low.  On the plane x0 = x1 the first two terms of the entrywise lift
    cancel, so its diagonal is negative there, member points included."""
    entries = {}
    for i in range(m):
        a = rng.randint(0, 3)
        entries.update({(0, i, i): SignedTrop(1, F(a)), (1, i, i): SignedTrop(-1, F(a)),
                        (2, i, i): SignedTrop(-1, F(a - rng.randint(1, 3)))})
    for i, j in itertools.combinations(range(m), 2):
        entries[(rng.randrange(3), i, j)] = SignedTrop(rng.choice((1, -1)), F(rng.randint(-9, -5)))
    return pencil_of(m, 3, entries)


def fallback_causes(pencil: TropicalPencil, lattice, rows) -> set[str]:
    """Why the lead pass of _lift_verdicts may need the full rows at a point,
    read from the table and the full rows alone: an off-diagonal entry
    whose top terms cancel, a pair whose compared leads are equal, and
    outer without inner on a compiled block of 3 or more indices."""
    _, f, X = lattice
    table, pairs, blocks = pencil._lift
    causes = set()
    for i, j, terms in table:
        values = [(e * f + X[k], c) for k, e, c in terms]
        top = max(v for v, _ in values)
        if i != j and sum(c for v, c in values if v == top) == 0:
            causes.add("cancel")
    scale = (pencil.m - 1) ** 2
    for i, j in pairs:
        if rows[i][j] and rows[i][i] and rows[j][j]:
            (ei, ci), (ej, cj), (eij, cij) = (rows[i][i].terms[0], rows[j][j].terms[0],
                                              rows[i][j].terms[0])
            if (ei + ej, ci * cj) in ((2 * eij, cij * cij), (2 * eij, scale * cij * cij)):
                causes.add("tie")
    outer, inner = oracle._minor_conditions(rows, pairs)
    if outer and not inner and max(map(len, blocks)) >= 3:
        causes.add("block")
    return causes


def rank_one_top_pencil(rng: random.Random, m: int) -> TropicalPencil:
    """Seeded non-Metzler m x m pencil, n = 2: matrix 0 has entries
    s_i s_j t^(u_i + u_j) as in rank_one_sum_pencil, matrix 1 random signed
    values.  Where matrix 0 leads, the leads of each 2 x 2 minor's two
    products are equal, and the terms of matrix 1 below decide it, both
    ways."""
    u = [rng.randint(-2, 2) for _ in range(m)]
    s = [rng.choice((1, -1)) for _ in range(m)]
    entries = {}
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        entries[(0, i, j)] = SignedTrop(s[i] * s[j], F(u[i] + u[j]))
        if rng.random() < 0.8:
            entries[(1, i, j)] = SignedTrop(rng.choice((1, -1)), F(rng.randint(-4, 4)))
    return pencil_of(m, 2, entries)


def coincident_pencil(rng: random.Random, m: int) -> TropicalPencil:
    """Seeded non-Metzler m x m pencil, n = 3, every value an integer in
    [-2, 2] and every sign random: on the integer grid its terms meet at
    one exponent often, so leads cancel and compared leads are equal."""
    return pencil_of(m, 3, {
        (k, i, j): SignedTrop(rng.choice((1, -1)), F(rng.randint(-2, 2)))
        for k in range(3) for i, j in itertools.combinations_with_replacement(range(m), 2)
        if rng.random() < 0.7})


def inner_tie_pencil(rng: random.Random) -> TropicalPencil:
    """Seeded non-Metzler 3 x 3 pencil, n = 3: diagonal i is +a_i in x0 and
    in x1, an off-diagonal entry +-(a_i + a_j) / 2 in x0 and a lower signed
    value in x2.  On the plane x0 = x1 its diagonal leads are 2 t^a_i, so
    where x2 stays below, a pair's inner leads 4 t^(a_i + a_j) are equal,
    and the x2 term below decides the inner inequality, both ways."""
    entries = {}
    a = [rng.randint(-2, 2) for _ in range(3)]
    for i in range(3):
        entries.update({(0, i, i): SignedTrop(1, F(a[i])), (1, i, i): SignedTrop(1, F(a[i]))})
    for i, j in itertools.combinations(range(3), 2):
        if rng.random() < 0.7:
            top = F(a[i] + a[j], 2)
            entries[(0, i, j)] = SignedTrop(rng.choice((1, -1)), top)
            entries[(2, i, j)] = SignedTrop(rng.choice((1, -1)), top - rng.randint(1, 3))
    return pencil_of(3, 3, entries)


def cancelled_pair_pencil(rng: random.Random, m: int) -> TropicalPencil:
    """Seeded non-Metzler m x m pencil, n = 3: diagonal i is +a_i in x0, an
    off-diagonal entry +c in x0, -c in x1 and a signed value in x2.  On the
    plane x0 = x1 the off-diagonal leads cancel, and the x2 term below
    decides each pair, both ways."""
    entries = {}
    a = [rng.randint(-2, 2) for _ in range(m)]
    for i in range(m):
        entries[(0, i, i)] = SignedTrop(1, F(a[i]))
    for i, j in itertools.combinations(range(m), 2):
        c = F(rng.randint(-2, 2))
        entries.update({(0, i, j): SignedTrop(1, c), (1, i, j): SignedTrop(-1, c),
                        (2, i, j): SignedTrop(rng.choice((1, -1)), F(rng.randint(-3, 1)))})
    return pencil_of(m, 3, entries)


def test_lazy_lift_verdicts_match_the_full_lift(monkeypatch):
    """_lift_verdicts, which reads the verdicts from the leads of the lift's
    entries, returns at the first negative diagonal entry and reads PSD
    from the inner set where it holds, equals _minor_conditions and
    _psd_verdict on the full lift at every point of seeded grids, with and
    without a PSD verdict wanted.  The pencils include ones whose diagonal
    or off-diagonal leads cancel, whose compared leads are equal (sums of
    rank-one lifts among them) and whose lifts are often PSD.

    The lead pass returns early, reading the table up to a diagonal row and
    building no rows, exactly where a diagonal entry is negative; the first
    such entry is seen at the first and at the last diagonal index, and at
    member points.  It builds the full rows only for one of its three
    causes, each cause occurs, and each alone is met where the full lift
    decides both ways."""
    rng = random.Random(41)
    stops, causes, sole = Counter(), Counter(), Counter()
    read, built = [], []
    real_lift_at = oracle._lift_at

    class Reading(tuple):
        # a lift table that logs each row read from it, the full lift's too
        def __iter__(self):
            for row in super().__iter__():
                read.append(row)
                yield row

    def lift_at(pencil, lattice):
        built.append(len(read))  # the rows the lead pass read before it
        return real_lift_at(pencil, lattice)

    monkeypatch.setattr(oracle, "_lift_at", lift_at)
    pencils = [lattice_pencil(rng, m, metzler)
               for m, metzler, _ in itertools.product(range(1, 6), (True, False), range(6))]
    pencils += [tied_diagonal_pencil(rng, m) for m in range(1, 5)]
    pencils += [rank_one_sum_pencil(rng, m, flip) for m in (3, 4, 5) for flip in (False, True)]
    pencils += [rank_one_top_pencil(rng, m) for m in (2, 3, 4, 5) for _ in range(3)]
    pencils += [dominant_pencil(rng, m, metzler)
                for m in (3, 4, 5) for metzler in (True, False) for _ in range(3)]
    pencils += [coincident_pencil(rng, m) for m in (2, 3, 4) for _ in range(4)]
    pencils += [inner_tie_pencil(rng) for _ in range(6)]
    pencils += [cancelled_pair_pencil(rng, m) for m in (2, 3, 4) for _ in range(4)]
    for pencil in pencils:
        m = pencil.m
        # the diagonal rows come first, so an early return reads no other entry
        table, pairs, blocks = pencil._lift
        diagonal = [i == j for i, j, _ in table]
        assert diagonal == sorted(diagonal, reverse=True)
        points = grid_points(pencil.n, -2, 2, F(1, 2) if pencil.n < 3 else 1)
        for x in points + list(cancelling_points(pencil, rng)):
            lattice = _lattice(pencil, x)
            rows = real_lift_at(pencil, lattice)[0]
            outer, inner = oracle._minor_conditions(rows, pairs)
            full = (outer, inner, oracle._psd_verdict(rows, outer, blocks))
            vars(pencil)["_lift"] = Reading(table), pairs, blocks
            read.clear(), built.clear()
            got = oracle._lift_verdicts(pencil, lattice)
            vars(pencil)["_lift"] = table, pairs, blocks
            assert got == full, (pencil, x)
            negative = [i for i in range(m) if puiseux.sign_of(rows[i][i]) < 0]
            lead_pass = read[:built[0]] if built else list(read)
            end = lead_pass[-1][:2] if lead_pass else None  # the row the pass ended on
            early = not built and got == (False, False, False) and end and end[0] == end[1]
            assert early == bool(negative), (pencil, x)
            if negative:
                assert lead_pass == list(table[:table.index(lead_pass[-1]) + 1])
                assert end == (negative[0], negative[0])
            if built:
                why = fallback_causes(pencil, lattice, rows)
                assert why, (pencil, x)
                causes.update(why)
                if len(why) == 1:
                    sole[min(why), outer] += 1
            if negative and m > 1:
                stops[negative[0] == 0, negative[0] == m - 1] += 1
                stops["member"] += general_member(pencil, x)
            # without a PSD verdict wanted, no block is eliminated
            assert oracle._lift_verdicts(pencil, lattice, False) == (outer, inner, inner), (pencil, x)
    assert stops[True, False] > 20 and stops[False, True] > 20 and stops["member"] > 5, stops
    assert min(causes[c] for c in ("cancel", "tie", "block")) > 20, causes
    # each cause alone builds the rows where the full lift decides outer both ways
    assert min(sole[c, outer] for c in ("cancel", "tie") for outer in (True, False)) > 20, sole
    assert sole["block", True] > 20, sole


def test_validate_reads_the_fixture_verdicts_from_the_leads(monkeypatch, capsys):
    """The lead pass decides every polygon9 point of validate's default grid
    without a full lift row, where summing every lift's rows would build
    228, and nearly every quadrant_ray point, of 314 such lifts; the
    answers are pinned in CLI_PINS."""
    from tropsdp import cli

    built = []
    real = oracle._lift_at
    monkeypatch.setattr(oracle, "_lift_at", lambda p, lattice: built.append(p) or real(p, lattice))
    for name, flags, most in (("polygon9", ["--max-m", "9"], 0), ("quadrant_ray", [], 40)):
        built.clear()
        assert cli.main(["validate", str(FIXTURES / f"{name}.json"), *flags]) == 0
        assert len(built) <= most, (name, len(built))
    capsys.readouterr()


def test_metzler_lifts_are_read_from_the_leads(monkeypatch):
    """_lift_verdicts' Metzler lemma: on a Metzler pencil's canonical lift
    the lead pass is exact, so it builds no rows and returns (member,
    member, member) at every point.  Pool M3x3p2, M3x3p7 and M2x2p7
    entries 0-9, and planted M4x3p7 and M5x3p7 entries 0-2 at mu = 2, 0
    and -3, on their default grids."""
    def refuse(*args):
        raise AssertionError("the lead pass built the rows of a Metzler lift")

    monkeypatch.setattr(oracle, "_lift_at", refuse)
    docs = [pool_doc(cls, index) for cls in ("M3x3p2", "M3x3p7", "M2x2p7") for index in range(10)]
    docs += [planted_doc(cls, index, mu) for cls in ("M4x3p7", "M5x3p7") for index in range(3)
             for mu in (2, 0, -3)]
    points = members = 0
    for doc in docs:
        pencil = pencil_from_obj(doc)[0]
        assert pencil.is_metzler, doc
        for x in default_grid(pencil.n):
            lattice = _lattice(pencil, x)
            member = pencils._member(pencil, lattice)
            assert oracle._lift_verdicts(pencil, lattice) == (member,) * 3, (doc, x)
            points, members = points + 1, members + member
    assert (len(docs), points, members) == (48, 28512, 9760)


def dominant_pencil(rng: random.Random, m: int, metzler: bool) -> TropicalPencil:
    """Seeded m x m pencil, n = 1..3, whose positive diagonal values lie above
    most off-diagonal ones, so that many points lift into the PSD cone;
    off-diagonal entries are negative when metzler is set."""
    n = rng.randint(1, 3)
    entries = {}
    for k, i in itertools.product(range(n), range(m)):
        if rng.random() < 0.8:
            entries[(k, i, i)] = SignedTrop(1, F(rng.randint(0, 3)))
        for j in range(i + 1, m):
            if rng.random() < 0.6:
                sign = -1 if metzler else rng.choice((1, -1))
                entries[(k, i, j)] = SignedTrop(sign, F(rng.randint(-4, 1)))
    return pencil_of(m, n, entries)


def rank_one_sum_pencil(rng: random.Random, m: int, flip: bool) -> TropicalPencil:
    """Seeded m x m pencil, n = 2: matrix k has entries s_i s_j t^(u_i + u_j),
    so each lift is a sum of rank-one PSD matrices.  Their 2 x 2 minors
    vanish, so the lift is PSD at every point but often outside the inner
    set: elimination decides there.  With flip, entry (0, m - 1) of matrix
    0 has the other sign: where that matrix leads, every 2 x 2 minor still
    vanishes (outer holds), but the 3 x 3 minor on 0, 1 and m - 1 is -4."""
    entries = {}
    for k in range(2):
        u = [rng.randint(-2, 2) for _ in range(m)]
        s = [rng.choice((1, -1)) for _ in range(m)]
        for i, j in itertools.combinations_with_replacement(range(m), 2):
            sign = -1 if flip and (k, i, j) == (0, 0, m - 1) else 1
            entries[(k, i, j)] = SignedTrop(sign * s[i] * s[j], F(u[i] + u[j]))
    return pencil_of(m, 2, entries)


def test_inner_set_psd_verdict_agrees_with_elimination():
    """The sandwich lemma of _lift_verdicts: the inner set lies inside the
    PSD cone.  At every point of seeded grids, -inf coordinates included,
    the verdict inner-or-eliminate equals is_psd's elimination and the
    principal-minor reference on the evaluated lift, and at a finite point
    it is the oracle's: Metzler and non-Metzler pencils with m up to 5."""
    rng = random.Random(52)
    seen = Counter()
    pencils = [make(rng, m, metzler) for m, metzler, make in itertools.product(
        range(1, 6), (True, False), (lattice_pencil, dominant_pencil) * 2)]
    pencils += [rank_one_sum_pencil(rng, m, flip) for m in (3, 4, 5) for flip in (False, True)]
    for pencil in pencils:
        lift = canonical_lift(pencil) if pencil.is_metzler else entrywise_lift(pencil)
        for x in with_bottoms(grid_points(pencil.n, -2, 2, 1 if pencil.n < 3 else 2)):
            a = evaluate_pencil(lift, monomial_lift(x))
            outer, inner = oracle._minor_conditions(a.entries, puiseux._nonzero_pairs(a.entries))
            psd = is_psd(a)
            assert (inner or psd) == psd == reference_is_psd(a), (pencil, x)
            bottom = any(map(is_minus_inf, x))
            if not bottom:
                verdicts = oracle._lift_verdicts(pencil, _lattice(pencil, x))
                assert verdicts == (outer, inner, psd), (pencil, x)
            seen[pencil.m > 2, outer, inner, psd, bottom] += 1
    # the lemma decides with and without -inf coordinates, where inner is
    # strictly stronger than outer (m > 2); elimination decides the rest,
    # both ways
    assert min(seen[True, True, True, True, bottom] for bottom in (True, False)) > 20, seen
    assert seen[True, True, False, True, False] > 20 and seen[True, True, False, False, False] > 20, seen


#: Pool pencil M4x2p7:57 of the benchmark corpus: certified, Metzler, and
#: its compiled blocks include one of three or more indices.
M4X2 = {"m": 4, "n": 2, "homogeneous": True, "matrices": [
    {"k": 0, "entries": [
        {"i": 1, "j": 1, "coeff": "+23/2"}, {"i": 1, "j": 4, "coeff": "--5/3"},
        {"i": 2, "j": 2, "coeff": "+-23/5"}, {"i": 2, "j": 4, "coeff": "--2"},
        {"i": 3, "j": 4, "coeff": "-0"}, {"i": 4, "j": 4, "coeff": "+-1"},
    ]},
    {"k": 1, "entries": [
        {"i": 1, "j": 1, "coeff": "+21/5"}, {"i": 1, "j": 2, "coeff": "-1/2"},
        {"i": 1, "j": 4, "coeff": "-23/6"}, {"i": 2, "j": 2, "coeff": "+1"},
        {"i": 2, "j": 3, "coeff": "--3/7"}, {"i": 2, "j": 4, "coeff": "--12/5"},
        {"i": 3, "j": 3, "coeff": "+8/3"}, {"i": 3, "j": 4, "coeff": "--18/5"},
        {"i": 4, "j": 4, "coeff": "--25/2"},
    ]},
]}


def test_only_outer_points_reach_the_higher_minors(monkeypatch):
    """A PSD verdict eliminates a block (calls _block_psd) only when the
    outer test passed and a compiled block has three or more indices.  The
    oracle asks for one only outside the inner set (the sandwich lemma of
    _lift_verdicts), so on a certified pencil's grid it eliminates nothing."""
    eliminated = []
    verdicts = []
    read = []
    real_block, real_verdict = puiseux._block_psd, oracle._psd_verdict
    real_read = oracle._lift_verdicts

    def block(entries, indices):
        eliminated.append(indices)
        return real_block(entries, indices)

    def verdict(entries, outer, blocks):
        before = len(eliminated)
        psd = real_verdict(entries, outer, blocks)
        verdicts.append((outer, max(map(len, blocks)) >= 3, len(eliminated) > before))
        return psd

    monkeypatch.setattr(puiseux, "_block_psd", block)
    monkeypatch.setattr(oracle, "_psd_verdict", verdict)
    monkeypatch.setattr(oracle, "_lift_verdicts", lambda *args: read.append(args) or real_read(*args))
    polygon9 = load_pencil(FIXTURES / "polygon9.json")[0]
    records = cross_validate(polygon9, default_grid(3), assume_certified=True)
    assert all(r.ok for r in records) and len(read) >= len(records) == 729
    assert eliminated == [] and not any(big for _, big, _ in verdicts)
    verdicts.clear()
    pencil = pencil_from_obj(M4X2)[0]
    assert isinstance(certify_generic_general(pencil), Certificate)
    assert all(r.ok for r in cross_validate(pencil, default_grid(2), assume_certified=True))
    assert eliminated == [] and not any(outer for outer, _, _ in verdicts)
    # every grid point's PSD verdict by elimination, as the lemma would skip it
    verdicts.clear()
    for x in default_grid(2):
        rows, pairs, blocks = oracle._lift_at(pencil, _lattice(pencil, x))
        oracle._psd_verdict(rows, oracle._minor_conditions(rows, pairs)[0], blocks)
    assert all(reached == (outer and big) for outer, big, reached in verdicts)
    counts = Counter(outer for outer, big, _ in verdicts if big)
    assert counts[True] > 30 and counts[False] > 30
    assert all(len(indices) >= 3 for indices in eliminated)


def test_lattice_terms_are_ints(monkeypatch):
    def int_terms(x):
        assert all(type(e) is int and type(c) is int for e, c in x.terms), x
        return x

    # every sum and product the oracle forms, minors and the inner scale included
    for module in (oracle, puiseux):
        for name in ("add", "mul"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, y, real=real: int_terms(real(x, y)))
    for pencil, grid in denominator_pencils(4):
        records = cross_validate(pencil, grid, assume_certified=True)
        assert all(r.ok for r in records)
        for x in grid_points(pencil.n, F(-1, 7), F(1, 5), F(1, 3)):
            a = series_matrix(oracle._lift_at(pencil, _lattice(pencil, x))[0])
            for row in a.entries:
                for entry in row:
                    int_terms(entry)
            for size in range(1, pencil.m + 1):
                for idx in itertools.combinations(range(pencil.m), size):
                    int_terms(principal_minor(a, idx))


_NEGATIVE_LIFT = """
from fractions import Fraction
from tropsdp.errors import CertificateCheckFailed
from tropsdp.oracle import valuation_sandwich_check
from tropsdp.puiseux import PuiseuxPoly, SeriesPolynomial

assert False, "asserts must be stripped in this run"
one_plus_x = SeriesPolynomial(1, {(0,): PuiseuxPoly.constant(1), (1,): PuiseuxPoly.constant(1)})
print(valuation_sandwich_check([one_plus_x], (Fraction(0),)).value)
SeriesPolynomial.evaluate = lambda self, point: PuiseuxPoly.constant(-1)
try:
    valuation_sandwich_check([one_plus_x], (Fraction(0),))
except CertificateCheckFailed:
    print("raised: negative lift at a strictly inside point")
"""


def test_sandwich_check_survives_optimize():
    # the lift re-check must not be an assert, which -O strips
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NEGATIVE_LIFT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "StrictIn",
        "raised: negative lift at a strictly inside point",
    ]
