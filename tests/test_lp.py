from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pencil, reference_solve_nonneg
from tropsdp import hypergraphs, lp
from tropsdp.lp import difference_feasible, feasible_point, solve_nonneg


def test_feasible_system():
    # x0 + x1 = 3, x0 - x1 = 1, x >= 0
    sol, dual = solve_nonneg([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert dual is None
    assert sol == [F(2), F(1)]


def test_infeasible_with_farkas():
    # x0 = 1 and x0 = 2 cannot both hold
    sol, dual = solve_nonneg([[F(1)], [F(1)]], [F(1), F(2)])
    assert sol is None
    # y A <= 0 and y b > 0
    assert dual[0] + dual[1] <= 0
    assert dual[0] + 2 * dual[1] > 0


def test_infeasible_by_sign():
    # x0 + x1 = -1 has no nonnegative solution
    sol, dual = solve_nonneg([[F(1), F(1)]], [F(-1)])
    assert sol is None
    assert dual[0] * 1 <= 0 and dual[0] * (-1) > 0


def test_empty_column_system():
    sol, dual = solve_nonneg([[], []], [F(0), F(1)])
    assert sol is None and dual[1] > 0
    sol2, dual2 = solve_nonneg([[]], [F(0)])
    assert sol2 == [] and dual2 is None


def test_feasible_point_mixed():
    # free x with x0 - x1 = -2 and x0 + x1 >= 4
    x = feasible_point(2, [([F(1), F(-1)], F(-2))], [([F(1), F(1)], F(4))])
    assert x is not None
    assert x[0] - x[1] == -2
    assert x[0] + x[1] >= 4

    # contradictory: x0 >= 1 and -x0 >= 0
    assert feasible_point(1, [], [([F(1)], F(1)), ([F(-1)], F(0))]) is None

    # no constraints: the origin
    assert feasible_point(3, [], []) == [F(0)] * 3


def test_random_duality():
    # whenever solve_nonneg reports infeasible, the certificate must check out
    rng = random.Random(21)
    feas = infeas = 0
    for _ in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(0, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        sol, dual = solve_nonneg(rows, rhs)
        if sol is not None:
            feas += 1
            assert all(v >= 0 for v in sol)
            for row, b in zip(rows, rhs):
                assert sum(c * v for c, v in zip(row, sol)) == b
        else:
            infeas += 1
            for j in range(n):
                assert sum(dual[r] * rows[r][j] for r in range(m)) <= 0
            assert sum(dual[r] * rhs[r] for r in range(m)) > 0
    assert feas > 50 and infeas > 50


def _random_system(rng, kind):
    m = rng.randint(0, 5)
    n = rng.randint(0, 6)
    zero_cols = {j for j in range(n) if rng.random() < 0.2}

    def value():
        if kind == "int":
            return rng.randint(-2, 2)
        if kind == "small":
            return F(rng.randint(-2, 2))
        if kind == "fraction":
            return F(rng.randint(-9, 9), rng.randint(1, 7))
        return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))

    rows = [[0 if j in zero_cols else value() for j in range(n)] for _ in range(m)]
    # zero right-hand sides and repeated rows make degenerate ratio ties
    rhs = [value() if rng.random() < 0.6 else 0 * value() for _ in range(m)]
    for r in range(1, m):
        if rng.random() < 0.2:
            rows[r] = list(rows[r - 1])
            rhs[r] = rhs[r - 1]
    return rows, rhs


@pytest.mark.parametrize("kind", ["int", "small", "fraction", "huge"])
def test_matches_reference_simplex(kind):
    rng = random.Random(f"lp-{kind}")
    ties = 0
    for _ in range(300):
        rows, rhs = _random_system(rng, kind)
        ties += any(b == 0 for b in rhs)
        got = solve_nonneg(rows, rhs)
        assert got == reference_solve_nonneg(rows, rhs), (rows, rhs)
        assert all(isinstance(v, F) for part in got if part is not None for v in part)
    assert ties > 50
    assert solve_nonneg([], []) == reference_solve_nonneg([], []) == ([], None)
    assert solve_nonneg([[]] * 3, [0, 2, -1]) == reference_solve_nonneg([[]] * 3, [0, 2, -1])


def test_feasible_point_matches_reference_on_certification_systems(monkeypatch):
    # every LP that genericity certification of seeded random pencils asks,
    # solved by both kernels
    systems = []
    original = lp.solve_nonneg

    def record(rows, rhs):
        systems.append((rows, rhs))
        return original(rows, rhs)

    monkeypatch.setattr(lp, "solve_nonneg", record)
    monkeypatch.setattr(hypergraphs, "solve_nonneg", record)
    rng = random.Random(7)
    for metzler in (True, False) * 36:
        pencil = random_pencil(rng, max_m=3, max_n=3, metzler=metzler, value_pool=7)
        hypergraphs.certify_generic_general(pencil)
    # most reasons are difference systems the simplex no longer sees; larger
    # pencils bring the reasons and joint products that still reach it
    for metzler in (True, False) * 36:
        pencil = random_pencil(rng, max_m=4, max_n=4, metzler=metzler, value_pool=7)
        hypergraphs.certify_generic_general(pencil)
    assert len(systems) > 500
    for rows, rhs in systems:
        assert original(rows, rhs) == reference_solve_nonneg(rows, rhs)


def _difference_row(rng, n, kind):
    """(coefficients, constant): a zero row, or s*(x_a - x_b) with s the
    kind's 1 or 2, from int constants in a small range."""
    coeffs = [0] * n
    if kind != "zero":
        a, b = rng.sample(range(n), 2)
        s = 2 if kind == "doubled" else 1
        coeffs[a], coeffs[b] = s, -s
    return tuple(coeffs), rng.randint(-4, 4)


def test_difference_test_matches_simplex_on_seeded_systems():
    # n = 1..5, with zero rows, doubled rows and equalities; few rows make
    # mostly feasible systems, many rows negative cycles
    rng = random.Random(71)
    seen = {"feasible": 0, "negative cycle": 0, "zero row refutes": 0, "doubled": 0, "equality": 0}
    for _ in range(1500):
        n = rng.randint(1, 5)
        kinds = ["zero"] + (["single", "doubled"] if n > 1 else [])
        size = rng.randint(0, 2 * n + 2)
        rows = [_difference_row(rng, n, rng.choice(kinds)) for _ in range(size)]
        n_eq = rng.randint(0, min(2, len(rows)))
        eqs, ges = rows[:n_eq], rows[n_eq:]
        got = difference_feasible(n, eqs, ges)
        assert got == (feasible_point(n, eqs, ges) is not None), (n, eqs, ges)
        refuted_by_zero = any(
            not any(c) and (d > 0 or (d and k < n_eq)) for k, (c, d) in enumerate(rows)
        )
        if got:
            seen["feasible"] += 1
        else:
            seen["zero row refutes" if refuted_by_zero else "negative cycle"] += 1
        seen["doubled"] += any(2 in c for c, _ in rows)
        seen["equality"] += n_eq > 0 and any(any(c) for c, _ in eqs)
    assert min(seen.values()) > 100, seen


def test_difference_test_declines_other_rows():
    assert difference_feasible(3, [((1, 1, -2), 0)]) is None  # a sigma tie on three variables
    assert difference_feasible(2, [], [((3, -3), 1)]) is None
    assert difference_feasible(2, [], [((1, -2), 1)]) is None
    assert difference_feasible(1, [], [((1,), 1)]) is None
    # a refuting zero row is a verdict whatever else the system holds
    assert difference_feasible(3, [((0, 0, 0), 1)], [((1, 1, -2), 0)]) is False
    assert difference_feasible(0, [], []) is True


def test_difference_test_matches_simplex_on_certification_systems(monkeypatch):
    # every reason system that genericity certification of seeded pencils
    # asks: the negative-cycle test decides most of them, the simplex agrees
    systems = []
    real = hypergraphs.difference_feasible
    monkeypatch.setattr(
        hypergraphs, "difference_feasible", lambda *a: systems.append(a) or real(*a)
    )
    rng = random.Random(72)
    for metzler, pool in [(True, 7), (False, 7), (True, 2), (False, 2)] * 12:
        pencil = random_pencil(rng, max_m=4, max_n=4, metzler=metzler, value_pool=pool)
        hypergraphs.certify_generic_general(pencil)
    verdicts = {True: 0, False: 0, None: 0}
    for n, eqs, ges in systems:
        got = real(n, eqs, ges)
        verdicts[got] += 1
        if got is not None:
            assert got == (feasible_point(n, eqs, ges) is not None), (n, eqs, ges)
    assert min(verdicts.values()) > 30, verdicts
    assert verdicts[None] < (verdicts[True] + verdicts[False]) / 4, verdicts


difference_rows = st.tuples(
    st.sampled_from(["zero", "single", "doubled", "single", "doubled"]),
    st.integers(0, 4), st.integers(1, 4), st.integers(-6, 6), st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(difference_rows, max_size=10))
def test_difference_test_property(n, drawn):
    # the two feasibility procedures agree on every difference system
    eqs, ges = [], []
    for kind, a, shift, d, equality in drawn:
        coeffs = [0] * n
        if kind != "zero" and n > 1:
            b = (a + shift) % n
            a %= n
            if a == b:
                b = (a + 1) % n
            s = 2 if kind == "doubled" else 1
            coeffs[a], coeffs[b] = s, -s
        (eqs if equality else ges).append((tuple(coeffs), d))
    assert difference_feasible(n, eqs, ges) == (feasible_point(n, eqs, ges) is not None)


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_duality_property(data):
    m = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(0, 5)) if m else 0  # n is read off the rows
    rows = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = data.draw(st.lists(small, min_size=m, max_size=m))
    x, y = solve_nonneg(rows, rhs)
    if x is not None:
        assert y is None and len(x) == n and all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
    else:
        assert len(y) == m
        for j in range(n):
            assert sum(y[r] * rows[r][j] for r in range(m)) <= 0
        assert sum(y[r] * rhs[r] for r in range(m)) > 0
