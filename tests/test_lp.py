from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pencil, reference_solve_nonneg
from tropsdp import hypergraphs, lp
from tropsdp.lp import difference_feasible, feasible_point, solve_nonneg
from tropsdp.pencils import stratum_restrict


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


def _search_every_stratum(pencil):
    """The circulation search on each support of the pencil, the full support
    first, until one has a circulating point.  Certification searches the
    full support alone; the lower strata ask further systems, which widen
    the corpora below."""
    for size in range(pencil.n, 0, -1):
        for support in itertools.combinations(range(pencil.n), size):
            if hypergraphs._circulating_point(stratum_restrict(pencil, support)) is not None:
                return


def test_feasible_point_matches_reference_on_certification_systems(monkeypatch):
    # every system that the circulation search decides on the strata of
    # seeded random pencils, reasons and products alike, solved here by
    # both simplex kernels: the search itself takes the reasons' verdicts
    # from the shortest-path test.  The search passes int rows whose
    # constants are D times the real ones, D the stratum's lcm of value
    # denominators: on the real rows the simplex makes the same pivots, so
    # its point is exactly 1/D times the int rows' point.
    asked = []  # (n, eqs, ges, D) of each system the search decides
    search = hypergraphs._circulating_point
    test, point = hypergraphs.difference_feasible, hypergraphs.feasible_point
    den = []

    def searched(pencil):
        den[:] = [pencil._terms[0]]
        return search(pencil)

    def asking(decide):
        return lambda n, eqs, ges: asked.append((n, eqs, ges, *den)) or decide(n, eqs, ges)

    monkeypatch.setattr(hypergraphs, "_circulating_point", searched)
    monkeypatch.setattr(hypergraphs, "difference_feasible", asking(test))
    monkeypatch.setattr(hypergraphs, "feasible_point", asking(point))
    rng = random.Random(7)
    for metzler in (True, False) * 36:
        _search_every_stratum(random_pencil(rng, max_m=3, max_n=3, metzler=metzler, value_pool=7))
    # larger pencils bring the pair ties and joint products
    for metzler in (True, False) * 36:
        _search_every_stratum(random_pencil(rng, max_m=4, max_n=4, metzler=metzler, value_pool=7))
    monkeypatch.undo()
    assert len(asked) > 500
    assert sum(d > 1 for *_, d in asked) > 200
    systems = []  # the int rows' simplex systems
    original = lp.solve_nonneg
    monkeypatch.setattr(lp, "solve_nonneg", lambda rows, rhs: systems.append((rows, rhs)) or original(rows, rhs))
    points = [feasible_point(n, eqs, ges) for n, eqs, ges, _ in asked]
    monkeypatch.undo()
    assert len(systems) == len(asked)
    for rows, rhs in systems:
        assert original(rows, rhs) == reference_solve_nonneg(rows, rhs)
    for (n, eqs, ges, d), y in zip(asked, points):
        assert all(type(c) is int for rows in (eqs, ges) for _, c in rows)
        real = feasible_point(n, *([(a, F(c, d)) for a, c in rows] for rows in (eqs, ges)))
        assert (y is None and real is None) or y == [d * v for v in real], (n, eqs, ges, d)


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


def _pair_tie(n, k1, k2, l, s, d):
    """The equality row s*(x_k1 + x_k2 - 2*x_l) = d on n variables."""
    coeffs = [0] * n
    coeffs[k1] = coeffs[k2] = s
    coeffs[l] = -2 * s
    return tuple(coeffs), d


def test_difference_test_decides_one_pair_tie():
    # one pair tie, of either sign and in any index order, among the rows
    # of the seeded difference systems above.  The simplex also classifies
    # phi = x_k1 + x_k2 - 2*x_l on the difference rows: a finite bound on
    # phi is at most 8 * (n - 1) in modulus, two paths of at most n - 1
    # rows each bounding a difference by 4, so phi >= 10n feasible means
    # phi is unbounded above.
    rng = random.Random(73)
    seen = dict.fromkeys(
        ["sign +1", "sign -1", "l first", "l middle", "l last", "doubled row",
         "difference equality", "zero row", "negative cycle", "phi bounded",
         "phi unbounded above", "phi unbounded below", "phi unbounded both ways",
         "feasible", "tie refutes"], 0)
    for _ in range(2000):
        n = rng.randint(3, 6)
        k1, k2, l = rng.sample(range(n), 3)
        s = rng.choice((1, -1))
        rows = []
        for _ in range(rng.randint(0, 2 * n)):
            kind = rng.choice(["zero", "single", "doubled"])
            if rng.random() < 0.2:
                rows.append(_difference_row(rng, n, kind))
                continue
            # four rows in five on the tie's variables, which bound phi
            c, d = _difference_row(rng, 3, kind)
            coeffs = [0] * n
            for k, v in zip((k1, k2, l), c):
                coeffs[k] = v
            rows.append((tuple(coeffs), d))
        n_eq = rng.randint(0, min(2, len(rows)))
        eqs, ges = rows[:n_eq], rows[n_eq:]
        tied = list(eqs)
        tied.insert(rng.randint(0, n_eq), _pair_tie(n, k1, k2, l, s, rng.randint(-8, 8)))
        got = difference_feasible(n, tied, ges)
        assert got == (feasible_point(n, tied, ges) is not None), (n, tied, ges)
        seen[f"sign {s:+}"] += 1
        seen["l first" if l < min(k1, k2) else "l last" if l > max(k1, k2) else "l middle"] += 1
        seen["doubled row"] += any(2 in c for c, _ in rows)
        seen["difference equality"] += any(any(c) for c, _ in eqs)
        seen["zero row"] += any(not any(c) for c, _ in rows)
        if feasible_point(n, eqs, ges) is None:
            seen["negative cycle"] += not any(
                not any(c) and (d > 0 or (d and k < n_eq)) for k, (c, d) in enumerate(rows))
            continue
        up, down = (feasible_point(n, eqs, [*ges, _pair_tie(n, k1, k2, l, t, 10 * n)]) is not None
                    for t in (1, -1))
        seen[{(False, False): "phi bounded", (True, False): "phi unbounded above",
              (False, True): "phi unbounded below", (True, True): "phi unbounded both ways"}[up, down]] += 1
        seen["feasible" if got else "tie refutes"] += 1
    assert min(seen.values()) > 40, seen


def test_difference_test_declines_other_rows():
    # a sigma tie on three variables is decided: x0 - x2 <= 0 and
    # x1 - x2 <= 1 bound its left side by 1
    bounds = [((-1, 0, 1), 0), ((0, -1, 1), -1)]
    assert difference_feasible(3, [((1, 1, -2), 1)], bounds) is True
    assert difference_feasible(3, [((1, 1, -2), 2)], bounds) is False
    assert difference_feasible(3, [((-1, -1, 2), -2)], bounds) is False
    assert difference_feasible(3, [((1, 1, -2), 0)]) is True
    # two ties, a tie among the inequalities, or other coefficients are declined
    assert difference_feasible(3, [((1, 1, -2), 0), ((1, -2, 1), 0)]) is None
    assert difference_feasible(3, [], [((1, 1, -2), 0)]) is None
    assert difference_feasible(3, [((1, 2, -3), 0)]) is None
    assert difference_feasible(2, [], [((3, -3), 1)]) is None
    assert difference_feasible(2, [], [((1, -2), 1)]) is None
    assert difference_feasible(1, [], [((1,), 1)]) is None
    # a refuting zero row is a verdict whatever else the system holds
    assert difference_feasible(3, [((0, 0, 0), 1)], [((1, 1, -2), 0)]) is False
    assert difference_feasible(0, [], []) is True


def test_difference_test_matches_simplex_on_certification_systems(monkeypatch):
    # every reason system that the circulation search asks on the strata of
    # seeded pencils: the shortest-path test decides each, the simplex agrees
    systems = []
    real = hypergraphs.difference_feasible
    monkeypatch.setattr(
        hypergraphs, "difference_feasible", lambda *a: systems.append(a) or real(*a)
    )
    rng = random.Random(72)
    for metzler, pool in [(True, 7), (False, 7), (True, 2), (False, 2)] * 12:
        pencil = random_pencil(rng, max_m=4, max_n=4, metzler=metzler, value_pool=pool)
        _search_every_stratum(pencil)
    verdicts = {True: 0, False: 0, None: 0}
    ties = 0  # systems with a pair tie, which the simplex decided before
    for n, eqs, ges in systems:
        got = real(n, eqs, ges)
        verdicts[got] += 1
        ties += any(sum(map(bool, c)) == 3 for c, _ in eqs)
        assert got == (feasible_point(n, eqs, ges) is not None), (n, eqs, ges)
    assert verdicts[None] == 0, verdicts
    assert min(verdicts[True], verdicts[False], ties) > 30, (verdicts, ties)


difference_rows = st.tuples(
    st.sampled_from(["zero", "single", "doubled", "single", "doubled"]),
    st.integers(0, 4), st.integers(1, 4), st.integers(-6, 6), st.booleans(),
)


def _drawn_rows(n, drawn):
    """(equalities, inequalities) of the drawn difference_rows on n variables."""
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
    return eqs, ges


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(difference_rows, max_size=10))
def test_difference_test_property(n, drawn):
    # the two feasibility procedures agree on every difference system
    eqs, ges = _drawn_rows(n, drawn)
    assert difference_feasible(n, eqs, ges) == (feasible_point(n, eqs, ges) is not None)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6), st.permutations(range(6)), st.sampled_from((1, -1)),
       st.integers(-8, 8), st.integers(0, 10), st.lists(difference_rows, max_size=10))
def test_pair_tie_property(n, order, s, d, at, drawn):
    # ... and on every difference system with one pair tie among its equalities
    eqs, ges = _drawn_rows(n, drawn)
    k1, k2, l = [k for k in order if k < n][:3]
    eqs.insert(at % (len(eqs) + 1), _pair_tie(n, k1, k2, l, s, d))
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
