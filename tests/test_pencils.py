from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropsdp.errors import CirculationExists, DimensionTooLarge, NotMetzler, PencilFormatError
from tropsdp.hypergraphs import build_tangent_hypergraph, perturb_to_interior
from tropsdp.pencils import (
    LATTICE_BITS_LIMIT,
    PENCIL_CELL_LIMIT,
    SigmaChoice,
    TropicalPencil,
    check_assumption_nondeg,
    decompose,
    enumerate_choices,
    general_member,
    homogenize,
    load_pencil,
    metzler_member,
    metzler_strict_member,
    pencil_from_obj,
    pencil_to_obj,
    qij_poly,
    slice_members,
    stratum_restrict,
)
from tropsdp.polynomials import TropPoly
from tropsdp.signed import MINUS_INF, TROP_MINUS_INF, SignedTrop, _Value, neg, pos

from conftest import FIXTURES
from helpers import (
    pencil_of,
    random_pencil,
    reference_general_member,
    reference_perturb,
    reference_slice_csv,
    reference_strict_member,
    reference_tangent_hypergraph,
)

Z = F(0)


@pytest.fixture(scope="module")
def hyp():
    return load_pencil(FIXTURES / "line_pencil.json")[0]


@pytest.fixture(scope="module")
def quad_ray():
    return load_pencil(FIXTURES / "quadrant_ray.json")[0]


@pytest.fixture(scope="module")
def poly9():
    return load_pencil(FIXTURES / "polygon9.json")[0]


def test_qij_poly_examples(hyp):
    p = qij_poly(hyp, 0, 0)
    assert p == TropPoly(3, {(1, 0, 0): pos(0), (0, 1, 0): neg(0)})
    assert qij_poly(hyp, 0, 1) == TropPoly(3, {})
    # off-diagonal zeros are stored tropically negative; predicates only use moduli
    assert qij_poly(hyp, 2, 3) == TropPoly(3, {(1, 0, 0): neg(0)})


def test_metzler_member_examples(hyp):
    assert metzler_member(hyp, (Z, Z, Z))
    assert not metzler_member(hyp, (Z, Z, F(-1)))
    assert metzler_member(hyp, (F(5), F(5), F(5)))


def test_metzler_member_grid_is_diagonal(hyp):
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                expected = a == b == c
                assert metzler_member(hyp, (F(a), F(b), F(c))) == expected


def test_metzler_requires_metzler(quad_ray):
    with pytest.raises(NotMetzler):
        metzler_member(quad_ray, (Z, Z, Z))
    with pytest.raises(NotMetzler):
        metzler_strict_member(quad_ray, (Z, Z, Z))


def test_metzler_strict_examples(hyp, poly9):
    assert not metzler_strict_member(hyp, (Z, Z, Z))
    assert not metzler_strict_member(hyp, (Z, F(-1), F(-1)))
    assert metzler_strict_member(poly9, (Z, F(2), F(5)))


def test_strict_implies_member(poly9):
    rng = random.Random(31)
    for _ in range(50):
        x = tuple(F(rng.randint(-8, 8), 2) for _ in range(3))
        if metzler_strict_member(poly9, x):
            assert metzler_member(poly9, x)


def test_general_member_examples(quad_ray):
    assert general_member(quad_ray, (Z, F(-1), F(-2)))
    assert general_member(quad_ray, (Z, F(1), F(1)))
    assert not general_member(quad_ray, (Z, F(1), F(0)))


def test_general_equals_metzler_on_metzler(hyp, poly9):
    rng = random.Random(32)
    for pencil in (hyp, poly9):
        for _ in range(60):
            x = tuple(
                MINUS_INF if rng.random() < 0.2 else F(rng.randint(-6, 6), 2)
                for _ in range(pencil.n)
            )
            assert general_member(pencil, x) == metzler_member(pencil, x)


def test_membership_with_bottom_coordinates(hyp):
    # stratum example: support {x0} forces the pair constraint to fail
    assert not general_member(hyp, (Z, MINUS_INF, MINUS_INF))
    sub = stratum_restrict(hyp, [0])
    assert not general_member(sub, (Z,))
    assert general_member(hyp, (MINUS_INF,) * 3)


def _slice_case(rng: random.Random):
    """A random pencil (m = 1..4, n = 2..5, homogeneous or homogenized from an
    affine one) with a slice through it: ties from a small value pool, some
    diagonals with only negative coefficients, unfixed -inf coordinates and
    coprime fractional box, step and fixed values."""
    m, n = rng.randint(1, 4), rng.randint(2, 5)
    metzler = rng.random() < 0.4
    negative_rows = {i for i in range(m) if rng.random() < 0.2}
    entries = {}
    for k in range(n):
        for i in range(m):
            for j in range(i, m):
                if rng.random() < 0.35:
                    continue
                value = F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
                if i == j:
                    sign = -1 if i in negative_rows or rng.random() < 0.3 else 1
                else:
                    sign = -1 if metzler or rng.random() < 0.5 else 1
                entries[(k, i, j)] = SignedTrop(sign, value)
    pencil = pencil_of(m, n, entries)
    first = 0
    if rng.random() < 0.4:
        q0 = pencil_of(m, 1, {(0, i, i): pos(rng.randint(-3, 3)) for i in range(m)})
        pencil = homogenize(q0.matrices[0], pencil)
        first = 1
    free = tuple(rng.sample(range(first, pencil.n), 2))
    base = [
        MINUS_INF if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.choice((1, 5, 11)))
        for _ in range(pencil.n)
    ]
    if first:
        base[0] = Z
    lo = F(rng.randint(-13, 0), rng.choice((1, 3, 7)))
    step = F(rng.randint(1, 5), rng.choice((2, 7, 13)))
    axis = [lo + i * step for i in range(rng.randint(1, 9))]
    return pencil, base, free, axis


flat = itertools.chain.from_iterable


def _slice_points(pencil, base, free, axis):
    """(verdict, x) at every point of the slice and then of the line through
    its second free coordinate, whose one row is every verdict."""
    for free in free, free[1:]:
        rows = list(slice_members(pencil, base, free, axis))
        assert len(rows) == (len(axis) if len(free) == 2 else 1)
        got = list(flat(rows))
        assert len(got) == len(axis) ** len(free)
        for verdict, values in zip(got, itertools.product(axis, repeat=len(free))):
            x = list(base)
            for k, v in zip(free, values):
                x[k] = v
            yield verdict, x


def test_slice_kernel_matches_predicates():
    rng = random.Random(34)
    points = 0
    for _ in range(250):
        pencil, base, free, axis = _slice_case(rng)
        for verdict, x in _slice_points(pencil, base, free, axis):
            assert verdict == general_member(pencil, x), (pencil, x)
            if pencil.is_metzler:
                assert verdict == metzler_member(pencil, x), (pencil, x)
            points += 1
    assert points > 5000


def _parity_cases(rng: random.Random):
    """(pencil, points): the fixtures on a half-integer grid, whose polygon
    and line put many points on the boundary, then _slice_case pencils, every
    other one with its values divided by 3, 7 or 9, at random points."""
    for name in ("polygon9.json", "line_pencil.json", "quadrant_ray.json"):
        pencil = load_pencil(FIXTURES / name)[0]
        axis = [F(v, 2) for v in range(-2, 17)]
        yield pencil, [(Z, a, b) for a in axis for b in axis] if pencil.n == 3 else [
            (Z, a) for a in axis]
    for case in range(300):
        pencil = _slice_case(rng)[0]
        if case % 2:
            pencil = pencil_of(pencil.m, pencil.n, {
                (k, i, j): SignedTrop(a.sign, a.value / rng.choice((3, 7, 9)))
                for k, mat in enumerate(pencil.matrices)
                for i in range(pencil.m)
                for j in range(i, pencil.m)
                if (a := mat[i][j]).sign
            })
        yield pencil, [
            tuple(MINUS_INF if rng.random() < 0.15 else F(rng.randint(-6, 6), rng.choice((1, 3)))
                  for _ in range(pencil.n))
            for _ in range(12)
        ]


def _outcome(call):
    try:
        return call()
    except (ValueError, CirculationExists) as exc:
        return type(exc)


def test_constraint_pass_matches_fraction_loops():
    # every reader of the pencil's constraint table against the per-constraint
    # Fraction loops it replaced: membership, strictness, tangent edges and
    # the exact perturbation (eta, rho0), also on a (sigma, diamond) piece of
    # each non-Metzler pencil
    rng = random.Random(71)
    seen = {"member": 0, "edges": 0, "perturbed on the boundary": 0, "circulates": 0}
    for pencil, points in _parity_cases(rng):
        pieces = [pencil] if pencil.is_metzler else [
            pencil, decompose(pencil, rng.choice(list(enumerate_choices(pencil.m))))]
        for x, p in itertools.product(points, pieces):
            member = general_member(p, x)
            assert member == reference_general_member(p, x), (p, x)
            if not p.is_metzler:
                continue
            assert metzler_member(p, x) == member
            seen["member"] += member
            if MINUS_INF in x:
                continue
            assert metzler_strict_member(p, x) == reference_strict_member(p, x), (p, x)
            graph = build_tangent_hypergraph(p, x)
            assert graph == reference_tangent_hypergraph(p, x), (p, x)
            seen["edges"] += bool(graph.edges)
            got = _outcome(lambda: perturb_to_interior(p, x))
            assert got == _outcome(lambda: reference_perturb(p, x)), (p, x)
            seen["perturbed on the boundary"] += isinstance(got, tuple) and bool(graph.edges)
            seen["circulates"] += got is CirculationExists
    assert min(seen.values()) > 0 and seen["perturbed on the boundary"] > 50, seen


def test_slice_kernel_edge_cases():
    # x1 unfixed -inf: row 0's diagonal has only its negative part left, so
    # the whole slice fails; a pair with -inf diagonals holds only on a tie
    neg_only = pencil_of(1, 3, {(0, 0, 0): "-0", (1, 0, 0): "+0", (2, 0, 0): "-1"})
    assert list(flat(slice_members(neg_only, (MINUS_INF,) * 3, (0, 2), [Z, F(1)]))) == [False] * 4
    tie = pencil_of(2, 2, {(0, 0, 1): "+0", (1, 0, 1): "-0"})
    axis = [F(-1), Z, F(1)]
    assert list(flat(slice_members(tie, (Z, Z), (0, 1), axis))) == [
        a == b for a in axis for b in axis]
    # the negative part is the constant -40, below every axis value: the
    # terms it lacks must stay below it, so x1 - 20 >= -40 is all that counts
    far = pencil_of(1, 3, {(0, 0, 0): neg(-20), (1, 0, 0): pos(-20)})
    axis = [F(v) for v in range(-30, 31, 6)]
    got = list(flat(slice_members(far, (F(-20), Z, Z), (1, 2), axis)))
    assert got == [a >= -20 for a in axis for b in axis]
    # row 0's positive diagonal part is -inf on the slice (x3 unfixed): the
    # largest row-1 part must not make up for it against a low off-diagonal
    gap = pencil_of(2, 4, {(3, 0, 0): pos(0), (2, 1, 1): pos(10), (0, 0, 1): neg(-10)})
    axis = [F(v) for v in range(-10, 11, 5)]
    assert not any(flat(slice_members(gap, (F(-10), Z, Z, MINUS_INF), (1, 2), axis)))
    for free in (1, 1), (), (0, 1, 0), (2,):
        with pytest.raises(ValueError, match="distinct indices"):
            list(slice_members(tie, (Z, Z), free, axis))
    # one free coordinate: one row, empty too; an axis value of -inf is named
    assert list(slice_members(tie, (Z, Z), (1,), axis)) == [[b == 0 for b in axis]]
    assert list(slice_members(tie, (Z, Z), (1,), [])) == [[]]
    for free in (0, 1), (1,):
        with pytest.raises(ValueError, match="axis value -inf"):
            next(slice_members(tie, (Z, Z), free, [MINUS_INF, Z]))
    # each constraint's interval is bisected on the axis: a decreasing axis is refused
    with pytest.raises(ValueError, match="ascending"):
        next(slice_members(tie, (Z, Z), (0, 1), axis[::-1]))


def test_slice_rows_match_predicates_at_breakpoints():
    # along a row each family is max(k, b + w): hand-made slices put every
    # end of a constraint's interval and of a tie on the axis or just off
    # it.  x0 = 0 carries the constant, x1 is a, x2 is b and x3 = -inf; an
    # entry has one sign, so of two parts at most one has a finite slope w
    axis = [F(v) for v in range(-4, 10)]
    low_diagonal = {(0, 0, 0): "+-10", (0, 1, 1): "+-10"}
    cases = {
        # ties of an off-diagonal's parts decide the pair: with both slopes
        # -inf they tie on the row a = 1; with equal constants on row a = 2
        # they tie up to b = 2, and on row a > 2 at b = a; a flat part meets
        # a steeper one at b = 8, on the axis, and at b = 15/2, off it
        "equal slopes": {**low_diagonal, (0, 0, 1): "+1", (1, 0, 1): "-0"},
        "equal constants": {**low_diagonal, (0, 0, 1): "+2", (2, 0, 1): "+0", (1, 0, 1): "-0"},
        "tie point": {**low_diagonal, (0, 0, 1): "+3", (2, 0, 1): "--5"},
        "tie point off the axis": {**low_diagonal, (0, 0, 1): "+5/2", (2, 0, 1): "--5"},
        # 2k_r - w_i - w_j = 6 - 1 is odd: the pair holds from ceil(5/2) = 3;
        # k_i + k_j - 2w_r = -3: it holds up to floor(-3/2) = -2
        "odd lower end": {(0, 0, 0): "+-20", (2, 0, 0): "+0", (0, 1, 1): "+-20",
                          (2, 1, 1): "+1", (0, 0, 1): "-3"},
        "odd upper end": {(0, 0, 0): "+0", (0, 1, 1): "+-1", (2, 0, 1): "-1"},
        # max(1, a) >= b, where a + u = c at a = 1; max(2, b) >= a + 2 holds
        # on the whole row a = 0, where the constants tie; b >= 1 from the
        # axis value 1 on
        "a + u = c": {(0, 0, 0): "+1", (1, 0, 0): "+0", (2, 0, 0): "-0"},
        "equal diagonal constants": {(0, 0, 0): "+2", (2, 0, 0): "+0", (1, 0, 0): "-2"},
        "diagonal end on the axis": {(2, 0, 0): "+0", (0, 0, 0): "-1"},
        # row 0's positive part lives on x3 only: the pair holds where b = a
        "bottom family in a pair": {(3, 0, 0): "+0", (0, 1, 1): "+0", (2, 0, 1): "+0",
                                    (1, 0, 1): "-0"},
    }
    for name, entries in cases.items():
        pencil = pencil_of(2, 4, entries)
        # the full axis, a width-1 one and one with repeated values
        for axis_ in axis, axis[5:6], sorted(axis + axis[::3]):
            got = list(_slice_points(pencil, (Z, Z, Z, MINUS_INF), (1, 2), axis_))
            for verdict, x in got:
                assert verdict == general_member(pencil, x), (name, x)
        assert {v for v, _ in got} == ({False} if "off" in name else {False, True}), name
    # seeded pencils with values in the integers -4..4 tie often
    rng = random.Random(11)
    for _ in range(150):
        pencil = random_pencil(rng, max_m=3, max_n=4, value_pool=1)
        if pencil.n < 2:
            continue
        free = tuple(rng.sample(range(pencil.n), 2))
        base = [rng.choice((MINUS_INF, Z, F(1), F(-1, 2))) for _ in range(pencil.n)]
        axis = sorted(F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 9)))
        for verdict, x in _slice_points(pencil, base, free, axis):
            assert verdict == general_member(pencil, x), (pencil, x)


# integers often, so that a pair's positive and negative parts tie
slice_values = st.one_of(st.integers(-6, 6).map(F),
                         st.fractions(min_value=-9, max_value=9, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slice_rows_match_general_member(data):
    # one row per axis value, each general_member's verdict at every point,
    # with -inf among the fixed coordinates and repeated axis values allowed
    pencil = random_pencil(random.Random(data.draw(st.integers(0, 2**32))), max_m=3, max_n=4)
    assume(pencil.n >= 2)
    free = tuple(data.draw(st.permutations(range(pencil.n)))[:2])
    base = data.draw(st.lists(st.one_of(st.just(MINUS_INF), slice_values),
                              min_size=pencil.n, max_size=pencil.n))
    axis = sorted(data.draw(st.lists(slice_values, min_size=1, max_size=9)))
    rows = list(slice_members(pencil, base, free, axis))
    assert len(rows) == len(axis)
    for a, row in zip(axis, rows):
        assert len(row) == len(axis)
        for b, verdict in zip(axis, row):
            x = list(base)
            x[free[0]], x[free[1]] = a, b
            assert verdict == general_member(pencil, x), (pencil, x)


@pytest.mark.parametrize(
    "name, fixed, box, step",
    [
        ("polygon9.json", {0: Z}, (Z, F(8)), F(1, 4)),
        ("polygon9.json", {1: F(7, 3)}, (F(-3), F(5)), F(2, 7)),
        ("quadrant_ray.json", {0: Z}, (F(-4), F(4)), F(1, 3)),
        ("quadrant_ray.json", {2: F(-3, 5)}, (F(-5, 2), F(3)), F(1, 4)),
        ("line_pencil.json", {1: F(1, 3)}, (F(-3), F(3)), F(1, 5)),
        ("affine_quadrant.json", {}, (F(-7, 3), F(3)), F(1, 4)),
        ("m1_distinct.json", {}, (F(-3), F(3)), F(2, 5)),
    ],
)
def test_slice_csv_matches_per_point_loop(capsys, name, fixed, box, step):
    from tropsdp.cli import main

    argv = ["slice", str(FIXTURES / name), f"--box={box[0]},{box[1]}", "--step", str(step)]
    for k, v in fixed.items():
        argv += ["--fix", f"x{k}={v}"]
    assert main(argv) == 0
    pencil, homogeneous = load_pencil(FIXTURES / name)
    assert capsys.readouterr().out == reference_slice_csv(
        pencil, homogeneous, fixed, box[0], box[1], step
    )


def test_enumerate_choices_counts():
    assert len(list(enumerate_choices(1))) == 1
    two = list(enumerate_choices(2))
    assert len(two) == 3
    assert two[0].sigma == frozenset({(0, 1)})
    assert two[1].diamond == (((0, 1), ">="),)
    assert two[2].diamond == (((0, 1), "<="),)
    assert len(list(enumerate_choices(3))) == 27
    with pytest.raises(DimensionTooLarge):
        list(enumerate_choices(6))


def test_decompose_identity_on_metzler(hyp):
    full = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
    same = decompose(hyp, SigmaChoice(4, full, ()))
    assert same == hyp


def test_decompose_examples(quad_ray):
    # sigma empty, direction >= : diagonal 2x2 block plus one constraint row
    choice = SigmaChoice.make(2, [], {(0, 1): ">="})
    piece = decompose(quad_ray, choice)
    assert piece.m == 3 and piece.n == 3
    assert piece.matrices[0][0][0] == pos(0)
    assert piece.matrices[0][1][1] == pos(0)
    assert piece.matrices[0][2][2] == TROP_MINUS_INF
    assert piece.matrices[1][2][2] == pos(0)  # c X1
    assert piece.matrices[2][2][2] == neg(0)  # (-)d X2
    assert qij_poly(piece, 2, 2) == TropPoly(3, {(0, 1, 0): pos(0), (0, 0, 1): neg(0)})
    # flipped direction negates the constraint row
    flipped = decompose(quad_ray, SigmaChoice.make(2, [], {(0, 1): "<="}))
    assert flipped.matrices[1][2][2] == neg(0)
    assert flipped.matrices[2][2][2] == pos(0)
    # sigma = {(0,1)}: negated modulus in the off-diagonal slot
    merged = decompose(quad_ray, SigmaChoice.make(2, [(0, 1)], {}))
    assert merged.m == 2
    assert merged.matrices[1][0][1] == neg(0)
    assert merged.matrices[2][0][1] == neg(0)


def test_decomposition_identity_random():
    rng = random.Random(33)
    from tropsdp.oracle import grid_points

    for _ in range(30):
        p = random_pencil(rng, max_m=3, max_n=2)
        pieces = {}
        for choice in enumerate_choices(p.m):
            pieces.setdefault(choice.sigma, []).append(decompose(p, choice))
        for x in grid_points(p.n, -2, 2, 1):
            lhs = general_member(p, x)
            rhs = any(
                all(metzler_member(d, x) for d in ds) for ds in pieces.values()
            )
            assert lhs == rhs


def test_check_assumption_nondeg():
    bad = pencil_of(2, 1, {(0, 0, 0): "+0", (0, 1, 1): "+0", (0, 0, 1): "-0"})
    assert check_assumption_nondeg(bad) == [(0, 0, 1)]
    quad_ray = load_pencil(FIXTURES / "quadrant_ray.json")[0]
    assert check_assumption_nondeg(quad_ray) == []
    diagonal = pencil_of(2, 1, {(0, 0, 0): "+0", (0, 1, 1): "+1"})
    assert check_assumption_nondeg(diagonal) == []


def test_homogenize_and_affine_file():
    pencil, homogeneous = load_pencil(FIXTURES / "affine_quadrant.json")
    assert not homogeneous
    assert pencil.n == 3  # constant matrix absorbed as variable 0
    # affine membership at (x1, x2) is the x0 = 0 slice
    assert general_member(pencil, (Z, F(-1), F(-3)))
    assert not general_member(pencil, (Z, F(1), F(-3)))
    base = stratum_restrict(pencil, [1, 2])
    again = homogenize(pencil.matrices[0], base)
    assert again == pencil


def test_stratum_restrict_identity(hyp):
    assert stratum_restrict(hyp, range(3)) == hyp
    with pytest.raises(ValueError):
        stratum_restrict(hyp, [])


def test_stratum_membership_depends_only_on_support():
    rng = random.Random(34)
    for _ in range(30):
        p = random_pencil(rng, max_m=2, max_n=3)
        if p.n < 2:
            continue
        support = (0,)
        x_full = (F(1),) + tuple(MINUS_INF for _ in range(p.n - 1))
        sub = stratum_restrict(p, support)
        assert general_member(p, x_full) == general_member(sub, (F(1),))


def test_json_round_trip_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        pencil, homogeneous = load_pencil(path)
        obj = pencil_to_obj(pencil, homogeneous)
        pencil2, homogeneous2 = pencil_from_obj(obj)
        assert pencil2 == pencil and homogeneous2 == homogeneous
        obj2 = pencil_to_obj(pencil2, homogeneous2)
        assert obj2 == obj


def test_format_errors():
    good = {
        "m": 1,
        "n": 1,
        "homogeneous": True,
        "matrices": [{"k": 0, "entries": [{"i": 1, "j": 1, "coeff": "+0"}]}],
    }
    pencil_from_obj(good)
    bad_cases = [
        [good],
        {**good, "matrices": {}},
        {**good, "m": 0},
        {**good, "matrices": [{"k": 1, "entries": []}]},
        {**good, "matrices": [{"k": 0, "entries": [{"i": 1, "j": 1, "coeff": "q/0"}]}]},
        {**good, "matrices": [{"k": 0, "entries": [{"i": 2, "j": 1, "coeff": "+0"}]}]},
        {
            **good,
            "matrices": [
                {
                    "k": 0,
                    "entries": [
                        {"i": 1, "j": 1, "coeff": "+0"},
                        {"i": 1, "j": 1, "coeff": "+1"},
                    ],
                }
            ],
        },
        {**good, "matrices": [{"k": 0, "entries": []}, {"k": 0, "entries": []}]},
        # header and index fields take JSON integers and a JSON bool only:
        # int() and bool() would read 2.7 as 2, true as 1 and "no" as true
        {**good, "m": 2.7},
        {**good, "m": "1"},
        {**good, "n": True},
        {**good, "homogeneous": "no"},
        {**good, "homogeneous": 1},
        {**good, "matrices": [{"k": 0.0, "entries": []}]},
        {**good, "matrices": [{"k": False, "entries": []}]},
        {**good, "matrices": [{"k": 0, "entries": [{"i": True, "j": 1, "coeff": "+0"}]}]},
        {**good, "matrices": [{"k": 0, "entries": [{"i": 1, "j": 1.0, "coeff": "+0"}]}]},
        {**good, "matrices": [{"k": 0, "entries": [{"i": 1, "j": 1, "coeff": "+1e3"}]}]},
        {**good, "matrices": [{"k": 0, "entries": 5}]},
    ]
    for bad in bad_cases:
        with pytest.raises(PencilFormatError):
            pencil_from_obj(bad)


def test_declared_size_is_bounded_before_building():
    # an empty 256 x 256 header fills exactly PENCIL_CELL_LIMIT cells; one
    # more row, or the constant matrix of an affine document, is refused
    # from the header alone, without building the matrices
    assert PENCIL_CELL_LIMIT == 256 * 256
    header = {"m": 256, "n": 1, "homogeneous": True, "matrices": []}
    assert pencil_from_obj(header)[0].m == 256
    for big in ({**header, "m": 257}, {**header, "homogeneous": False},
                {**header, "m": 10**6, "n": 10**6}):
        start = time.perf_counter()
        with pytest.raises(DimensionTooLarge, match="above the limit of 65536"):
            pencil_from_obj(big)
        assert time.perf_counter() - start < 0.1


def test_lattice_is_bounded_before_scaling():
    # 400 distinct denominators of 1,000 digits each: their lcm would have
    # about 1.3 million bits, but the running lcm passes LATTICE_BITS_LIMIT
    # after five of them, so every reader of the values refuses at once
    assert LATTICE_BITS_LIMIT == 2**14
    rng = random.Random(1)
    pencil = pencil_of(1, 400, {(k, 0, 0): SignedTrop(1, F(1, rng.randrange(10**999, 10**1000)))
                                for k in range(400)})
    for reader in (lambda p: p.is_metzler, lambda p: p._constraints, check_assumption_nondeg,
                   lambda p: general_member(p, [F(0)] * 400)):
        start = time.perf_counter()
        with pytest.raises(DimensionTooLarge, match="above the limit of 16384"):
            reader(pencil)
        assert time.perf_counter() - start < 0.5
    # the limit counts distinct denominators: 400 copies of one are one
    same = pencil_of(1, 400, {(k, 0, 0): SignedTrop(1, F(1, 10**1000 + 1)) for k in range(400)})
    assert same.is_metzler and same._terms[0] == 10**1000 + 1


def test_symmetry_compares_values_not_objects():
    # equal but distinct objects in a symmetric pair are accepted, and so
    # are rows given as lists
    a, b = neg(1), neg(1)
    assert a is not b
    assert TropicalPencil(2, 1, (((pos(0), a), (b, pos(0))),)).matrices[0][1][0] is b
    assert TropicalPencil(2, 1, ([[pos(0), a], [b, pos(0)]],)).m == 2


def test_symmetry_of_a_parsed_pencil_compares_no_values(monkeypatch):
    # a document's symmetric pair holds one object twice, so the symmetry
    # rule's tuple comparison never calls a value's __eq__
    calls = []
    original = _Value.__eq__
    monkeypatch.setattr(_Value, "__eq__", lambda s, o: calls.append(s) or original(s, o))
    doc = {"m": 12, "n": 3, "homogeneous": True, "matrices": [
        {"k": k, "entries": [{"i": i, "j": j, "coeff": f"-{k + i + j}"}
                             for i, j in itertools.combinations_with_replacement(range(1, 13), 2)]}
        for k in range(3)]}
    assert pencil_from_obj(doc)[0].m == 12
    assert calls == []


def test_decompose_size_is_bounded_before_building():
    # with all three pairs of a 3 x 3 pencil in diamond a piece is 6 x 6, so
    # n = 1820 fills 65520 cells and n = 1821 is refused, as is the
    # 8 x 4095 x 4095 piece of an empty 90 x 90 pencil with every pair in
    # diamond, before any matrix is built
    empty = ((TROP_MINUS_INF,) * 3,) * 3
    choice = SigmaChoice.make(3, [], {(0, 1): ">=", (0, 2): "<=", (1, 2): ">="})
    assert decompose(TropicalPencil(3, 1820, (empty,) * 1820), choice).m == 6
    with pytest.raises(DimensionTooLarge, match="1821 x 6 x 6 = 65556 matrix cells"):
        decompose(TropicalPencil(3, 1821, (empty,) * 1821), choice)
    big = pencil_from_obj({"m": 90, "n": 8, "homogeneous": True, "matrices": []})[0]
    choice = SigmaChoice.make(90, [], {p: ">=" for p in itertools.combinations(range(90), 2)})
    start = time.perf_counter()
    with pytest.raises(DimensionTooLarge, match="8 x 4095 x 4095 = 134152200 matrix cells"):
        decompose(big, choice)
    assert time.perf_counter() - start < 0.1


def test_polygon_vertices_on_boundary(poly9):
    verts = [(1, 4), (3, 4), (4, 3), (4, 1), (5, 1), (5, 2), (6, 4), (8, 6), (8, 8),
             (6, 8), (5, 7), (3, 6), (1, 6)]
    for a, b in verts:
        x = (Z, F(a), F(b))
        assert metzler_member(poly9, x)
        assert not metzler_strict_member(poly9, x)


def test_homogenize_with_bottom_constant():
    # an all--inf constant matrix leaves membership independent of x0
    rng = random.Random(35)
    base = random_pencil(rng, max_m=2, max_n=2, metzler=True)
    bottom = tuple(tuple([TROP_MINUS_INF] * base.m) for _ in range(base.m))
    homog = homogenize(bottom, base)
    for _ in range(30):
        x = tuple(F(rng.randint(-4, 4)) for _ in range(base.n))
        verdicts = {
            general_member(homog, (F(c), *x)) for c in (-3, 0, 5)
        } | {general_member(homog, (MINUS_INF, *x))}
        assert len(verdicts) == 1


def test_singleton_stratum_all_bottom_matrix():
    # restricting to a variable whose matrix is all -inf trivializes everything
    p = pencil_of(2, 2, {(0, 0, 0): "+1", (0, 1, 1): "+2", (0, 0, 1): "-0"})
    sub = stratum_restrict(p, [1])
    for v in (F(-7), F(0), F(9)):
        assert general_member(sub, (v,))


def test_decompose_commutes_with_restriction():
    # cross-validation recurses into strata; pieces of a restriction must be
    # restrictions of pieces
    rng = random.Random(36)
    for _ in range(20):
        p = random_pencil(rng, max_m=3, max_n=3)
        ks = sorted(rng.sample(range(p.n), rng.randint(1, p.n)))
        for choice in enumerate_choices(p.m):
            left = stratum_restrict(decompose(p, choice), ks)
            right = decompose(stratum_restrict(p, ks), choice)
            assert left == right
