from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_add, reference_is_psd, reference_mul
from tropsdp import puiseux
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


def series_of(terms):
    """The canonical series of the given (exponent, coefficient) terms, each
    number kept as given, int or Fraction; from_terms makes them Fractions."""
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return P(tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c))


def gram(vectors):
    """The Gram matrix rows of the given rows of series: PSD of rank at
    most their length."""
    m = len(vectors)
    rows = [[None] * m for _ in range(m)]
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        rows[i][j] = rows[j][i] = sum((mul(x, y) for x, y in zip(vectors[i], vectors[j])), P.zero())
    return rows


def test_is_psd_reaches_dense_lifts():
    """Dense matrices past any exhaustive minor test, with int terms:
    full-rank and low-rank Grams, and a low-rank Gram minus t^-1 u u^T
    with G u = 0, which is not PSD (u^T A u < 0) though every order-1/2
    minor is nonnegative."""
    rng = random.Random(3)

    def entry():
        return series_of([(rng.randint(0, 2), rng.choice((-2, -1, 1, 2))) for _ in range(2)])

    start = time.perf_counter()
    assert is_psd(PuiseuxSymMatrix.from_rows(gram([[entry() for _ in range(12)] for _ in range(12)])))
    assert is_psd(PuiseuxSymMatrix.from_rows(gram([[entry() for _ in range(4)] for _ in range(16)])))
    m, r = 10, 3
    u = [series_of([(0, rng.choice((-2, -1, 1, 2)))]) for _ in range(m - 1)] + [series_of([(0, 1)])]
    vectors = [[entry() for _ in range(r)] for _ in range(m - 1)]
    # the last row makes every column of the vectors orthogonal to u
    vectors.append([neg(sum((mul(v[k], c) for v, c in zip(vectors, u)), P.zero())) for k in range(r)])
    g = gram(vectors)
    lift = series_of([(-1, -1)])
    a = PuiseuxSymMatrix.from_rows(
        [[add(g[i][j], mul(lift, mul(u[i], u[j]))) for j in range(m)] for i in range(m)]
    )
    assert puiseux._minor_conditions(a.entries, puiseux._nonzero_pairs(a.entries))[0]
    assert not is_psd(a)
    assert time.perf_counter() - start < 10


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
    # independent oracle: Leibniz sum over permutations; half the cases have
    # a zero leading entry, so the elimination must swap rows
    rng = random.Random(6)
    swapped = 0
    for case in range(40):
        m = rng.randint(1, 5)
        entries = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = entries[j][i] = rand_poly(rng, 2)
        if case % 2:
            entries[0][0] = P.zero()
            swapped += m > 1 and any(entries[i][0] for i in range(1, m))
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
    assert swapped > 10


def mixed_matrix(rng, fraction_exponents):
    """A symmetric m x m series matrix, m <= 4: a Gram matrix of full or low
    rank, the same with one diagonal entry shifted, or random entries.
    Coefficients are ints or Fractions at random; exponents are Fractions
    with denominators up to 3, or ints."""
    def entry():
        if rng.random() < 0.15:
            return P.zero()
        terms = []
        for _ in range(rng.randint(1, 2)):
            e = F(rng.randint(-4, 4), rng.choice((1, 2, 3))) if fraction_exponents else rng.randint(-2, 2)
            c = rng.choice((-2, -1, 1, 2))
            terms.append((e, F(c, rng.choice((1, 2, 3))) if rng.random() < 0.5 else c))
        return series_of(terms)

    m = rng.randint(1, 4)
    kind = rng.choice(("gram", "low rank", "shifted", "random"))
    if kind == "random":
        rows = [[None] * m for _ in range(m)]
        for i, j in itertools.combinations_with_replacement(range(m), 2):
            rows[i][j] = rows[j][i] = entry()
        return rows
    rank = rng.randint(1, max(1, m - 1)) if kind == "low rank" else m
    rows = gram([[entry() for _ in range(rank)] for _ in range(m)])
    if kind == "shifted":
        i = rng.randrange(m)
        rows[i][i] = add(rows[i][i], series_of([(rng.randint(-2, 3), rng.choice((-1, 1)))]))
    return rows


def test_fraction_and_mixed_terms_match_reference():
    """is_psd, and the elimination on the matrix's own terms, against the
    Leibniz reference on Fraction-term and mixed int/Fraction matrices."""
    rng = random.Random(17)
    # the second pivot step divides 2t^2 - 1, int terms only, by the int 2:
    # the minor is t^2 - 1/2, so an int remainder is no proof of inexact division
    mixed = PuiseuxSymMatrix.from_rows([
        [P(((0, 2),)), P(((0, 1),)), P(((0, 1),))],
        [P(((0, 1),)), P(((0, 1),)), P(((0, 1),))],
        [P(((0, 1),)), P(((0, 1),)), P(((2, 1), (0, F(1, 2))))],
    ])
    assert principal_minor(mixed, range(3)) == P.from_terms([(2, 1), (0, F(-1, 2))])
    cases = [mixed] + [
        PuiseuxSymMatrix.from_rows(mixed_matrix(rng, fraction_exponents=k % 2 == 0))
        for k in range(240)
    ]
    seen = {True: 0, False: 0}
    for k, a in enumerate(cases):
        want = reference_is_psd(a)
        assert is_psd(a) == want, a
        if k % 3 == 0:  # is_psd scales to ints; this eliminates the terms as given
            outer = puiseux._minor_conditions(a.entries, puiseux._nonzero_pairs(a.entries))[0]
            assert puiseux._psd_verdict(a.entries, outer, [tuple(range(a.m))]) == want, a
        seen[want] += 1
    assert min(seen.values()) > 50


_INEXACT_STEP = """
from tropsdp.errors import CertificateCheckFailed
from tropsdp.puiseux import PuiseuxPoly, _step

assert False, "asserts must be stripped in this run"
one, zero = PuiseuxPoly(((0, 1),)), PuiseuxPoly(())
one_plus_t, one_plus_t2 = PuiseuxPoly(((1, 1), (0, 1))), PuiseuxPoly(((2, 1), (0, 1)))
rows = [[one, zero], [zero, PuiseuxPoly(((3, 1), (2, 1), (1, 1), (0, 1)))]]
_step(rows, 0, (1,), (1,), one_plus_t)
print(rows[1][1])
rows = [[one, zero], [zero, one_plus_t2]]
try:
    _step(rows, 0, (1,), (1,), one_plus_t)
    print("quotient", rows[1][1])
except CertificateCheckFailed:
    print("raised: 1 + t does not divide 1 + t^2")
"""


def test_step_division_check_survives_optimize():
    # the exactness check of the step's division must not be an assert
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INEXACT_STEP],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1*t^2 + 1*t^0", "raised: 1 + t does not divide 1 + t^2"]


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
