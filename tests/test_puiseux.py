from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_add, reference_mul
from tropsdp.errors import DimensionTooLarge
from tropsdp.puiseux import (
    PuiseuxPoly as P,
    PuiseuxSymMatrix,
    SeriesPolynomial,
    add,
    compare,
    is_psd,
    neg,
    mul,
    principal_minor,
    sign_of,
    sval,
    val,
)
from tropsdp.signed import MINUS_INF, TROP_MINUS_INF, neg as tneg, pos as tpos, tmul

t = P.t_power(1)
one = P.constant(1)


def rand_poly(rng, max_terms=3):
    if rng.random() < 0.1:
        return P.zero()
    return P.from_terms(
        [
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-5, 5)))
            for _ in range(rng.randint(1, max_terms))
        ]
    )


def test_arithmetic_examples():
    assert add(P.from_terms([(2, 1), (1, -1)]), t) == P.monomial(1, 2)
    assert mul(P.t_power(F(1, 2)), P.t_power(F(1, 2))) == t
    two_t_plus_1 = P.from_terms([(1, 2), (0, 1)])
    t_minus_1 = P.from_terms([(1, 1), (0, -1)])
    assert mul(two_t_plus_1, t_minus_1) == P.from_terms([(2, 2), (1, -1), (0, -1)])


def test_canonical_form_unique():
    a = P.from_terms([(1, 1), (1, -1), (0, 2)])
    assert a == P.constant(2)
    assert P.from_terms([]) == P.zero()
    assert not P.zero()


def test_val_examples():
    assert val(P.from_terms([(2, 1), (F(1, 2), 3)])) == 2
    assert val(P.zero()) == MINUS_INF
    assert val(P.monomial(-5, -3)) == -3


def test_sval_examples():
    assert sval(P.monomial(-2, 3)) == tneg(3)
    assert sval(P.from_terms([(F(1, 2), 1), (0, 4)])) == tpos(F(1, 2))
    assert sval(P.zero()) == TROP_MINUS_INF


def test_sign_of_examples():
    assert sign_of(one - t * t) == -1
    assert sign_of(t - P.t_power(F(1, 2))) == 1
    assert sign_of(P.zero()) == 0


def test_valuation_laws():
    rng = random.Random(3)
    for _ in range(300):
        x, y = rand_poly(rng), rand_poly(rng)
        assert val(mul(x, y)) == val(x) + val(y)
        vx, vy = val(x), val(y)
        top = vx if vy < vx else vy
        assert val(add(x, y)) <= top
        # equality whenever the leading terms cannot cancel
        if vx != vy or sign_of(x) == sign_of(y):
            assert val(add(x, y)) == top
        assert sval(mul(x, y)) == tmul(sval(x), sval(y))


def test_order_preserving_on_nonnegative():
    rng = random.Random(4)
    kept = 0
    while kept < 100:
        x, y = rand_poly(rng), rand_poly(rng)
        if sign_of(x) < 0 or sign_of(y) < 0:
            continue
        kept += 1
        if sign_of(y - x) >= 0:  # x <= y
            assert val(x) <= val(y)


def test_principal_minor_examples():
    ident = PuiseuxSymMatrix.from_rows([[one, P.zero()], [P.zero(), one]])
    assert principal_minor(ident, [0, 1]) == one
    a = PuiseuxSymMatrix.from_rows([[one, t], [t, one]])
    assert principal_minor(a, [0, 1]) == one - t * t
    b = PuiseuxSymMatrix.from_rows([[one, t], [t, P.constant(4)]])
    assert principal_minor(b, [1]) == P.constant(4)


def test_is_psd_examples():
    ident = PuiseuxSymMatrix.from_rows([[one, P.zero()], [P.zero(), one]])
    assert is_psd(ident)
    assert not is_psd(PuiseuxSymMatrix.from_rows([[one, t], [t, one]]))
    assert is_psd(PuiseuxSymMatrix.from_rows([[t, one], [one, t]]))


def test_is_psd_dimension_bound():
    m = 9
    rows = [[one if i == j else P.zero() for j in range(m)] for i in range(m)]
    big = PuiseuxSymMatrix.from_rows(rows)
    with pytest.raises(DimensionTooLarge):
        is_psd(big)
    assert is_psd(big, max_dim=9)


def test_is_psd_permutation_invariant():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(1, 3)
        entries = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = entries[j][i] = rand_poly(rng, 2)
        a = PuiseuxSymMatrix.from_rows(entries)
        result = is_psd(a)
        for perm in itertools.permutations(range(m)):
            permuted = PuiseuxSymMatrix.from_rows(
                [[entries[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
            )
            assert is_psd(permuted) == result


def test_det_against_leibniz():
    # independent oracle: Leibniz sum over permutations
    rng = random.Random(6)
    for _ in range(20):
        m = rng.randint(1, 4)
        entries = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = entries[j][i] = rand_poly(rng, 2)
        a = PuiseuxSymMatrix.from_rows(entries)
        expected = P.zero()
        for perm in itertools.permutations(range(m)):
            sign = 1
            for i in range(m):
                for j in range(i + 1, m):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = P.constant(sign)
            for i in range(m):
                term = mul(term, entries[i][perm[i]])
            expected = add(expected, term)
        assert principal_minor(a, range(m)) == expected


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        PuiseuxSymMatrix.from_rows([[one, t], [one, one]])
    # equal but distinct objects on the two sides pass, as do shared ones
    pair = [[one, P.monomial(-1, F(1, 2))], [P.monomial(-1, F(1, 2)), one]]
    assert pair[0][1] is not pair[1][0]
    assert PuiseuxSymMatrix.from_rows(pair).m == 2
    shared = P.from_terms([(2, 1), (0, -3)])
    PuiseuxSymMatrix.from_rows([[one, shared, t], [shared, t, one], [t, one, one]])
    # unequal entries raise, naming the first pair below the diagonal
    with pytest.raises(ValueError, match=r"not symmetric at \(2,1\)"):
        PuiseuxSymMatrix.from_rows([[one, t, one], [t, one, t], [one, one, one]])
    with pytest.raises(ValueError, match="not symmetric"):
        PuiseuxSymMatrix.from_rows([[one, neg(t)], [t, one]])


def test_series_polynomial_eval():
    # (t - 1) x1 + 2 x2 at (1, t)
    bp = SeriesPolynomial(2, {(1, 0): t - one, (0, 1): P.constant(2)})
    value = bp.evaluate((one, t))
    assert value == add(t - one, mul(P.constant(2), t))
    assert SeriesPolynomial(1, {(1,): P.zero()}).coeffs == {}


def is_canonical(x: P) -> bool:
    exps = [e for e, _ in x.terms]
    return (
        all(type(e) is F and type(c) is F and c != 0 for e, c in x.terms)
        and all(a > b for a, b in zip(exps, exps[1:]))
    )


def kernel_cases():
    """Seeded operand pairs, each kind of edge case among them."""
    rng = random.Random(7)
    big = 10**9 + 7  # rational exponents with large denominators
    cases = [(P.zero(), P.zero()), (P.zero(), t), (t, P.zero())]
    for _ in range(600):
        kind = rng.choice(["random", "single", "cancel", "shared", "big"])
        x = rand_poly(rng, max_terms=5)
        if kind == "random":
            y = rand_poly(rng, max_terms=5)
        elif kind == "single":
            y = P.monomial(rng.choice([1, -1, F(3, 2)]), F(rng.randint(-4, 4), rng.randint(1, 3)))
        elif kind == "cancel":
            y = neg(x)
        elif kind == "shared":
            # the same exponents with fresh coefficients: every position merges
            y = P.from_terms([(e, F(rng.randint(-3, 3))) for e, _ in x.terms])
        else:
            x = P.from_terms([(F(rng.randint(-big, big), big), F(rng.randint(-5, 5))) for _ in range(4)])
            y = P.from_terms([(F(rng.randint(-big, big), big - 2), F(rng.randint(-5, 5))) for _ in range(4)])
        cases.append((x, y) if rng.random() < 0.5 else (y, x))
    return cases


def test_add_mul_match_dict_reference():
    cancelled = merged = 0
    for x, y in kernel_cases():
        s, p = add(x, y), mul(x, y)
        assert s.terms == reference_add(x, y).terms
        assert p.terms == reference_mul(x, y).terms
        assert is_canonical(s) and is_canonical(p)
        cancelled += bool(x) and not s
        merged += len(s.terms) < len(x.terms) + len(y.terms)
    assert cancelled > 50 and merged > 200


exponents = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
polys = st.lists(st.tuples(exponents, st.integers(-3, 3)), max_size=4).map(P.from_terms)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(x, y, z):
    zero = P.zero()
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == zero and x - x == zero
    assert x + zero == x and zero + x == x
    assert x * one == x and one * x == x
    assert x * zero == zero
    assert all(is_canonical(v) for v in (x + y, x * y, x - y))


def int_series(terms) -> P:
    """Canonical series with int exponents and coefficients, as on the oracle's lattice."""
    acc: dict = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return P(tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c))


int_polys = st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=4).map(int_series)


@st.composite
def compare_pairs(draw):
    """(x, y) of one term type: independent, equal, one zero, or y sharing
    x's leading term and differing below it."""
    kind = draw(st.sampled_from((polys, int_polys)))
    x = draw(kind)
    how = draw(st.sampled_from(("free", "equal", "zero", "lead")))
    if how == "free":
        y = draw(kind)
    elif how == "equal":
        y = P(x.terms)
    elif how == "zero":
        y = P.zero()
    else:
        tail = draw(kind)
        if x and tail:
            shift = x.terms[0][0] - tail.terms[0][0] - 1
            tail = P(tuple((e + shift, c) for e, c in tail.terms))
        y = add(x, tail)
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=300, deadline=None)
@given(compare_pairs())
def test_compare_is_sign_of_difference(pair):
    x, y = pair
    assert compare(x, y) == sign_of(x - y)
    assert compare(y, x) == -compare(x, y)
    assert (compare(x, y) == 0) == (x == y)
