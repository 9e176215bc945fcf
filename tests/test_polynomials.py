from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tropsdp.polynomials import (
    VANISHES,
    TropPoly,
    argmax,
    eval_part,
    evaluate,
    tropicalize,
)
from tropsdp.puiseux import PuiseuxPoly as P, SeriesPolynomial, sval
from tropsdp.signed import MINUS_INF, SignedTrop, TROP_MINUS_INF, neg, pos

# the running example: 2 (x) X1^3 (x) X2^4  (+)  (-)0 (x) X2
EXAMPLE = TropPoly(2, {(3, 4): pos(2), (0, 1): neg(0)})


def test_eval_part_examples():
    assert eval_part(EXAMPLE, "+", (F(1), F(-5))) == F(-15)
    assert eval_part(EXAMPLE, "-", (F(1), F(-5))) == F(-5)
    only_neg = TropPoly(1, {(1,): neg(0)})
    assert eval_part(only_neg, "+", (F(0),)) == MINUS_INF


def test_evaluate_examples():
    assert evaluate(EXAMPLE, (pos(1), neg(5))) == pos(25)
    assert evaluate(EXAMPLE, (pos(1), pos(-5))) == neg(-5)
    assert evaluate(EXAMPLE, (pos(1), pos(F(-5, 3)))) is VANISHES


def test_evaluate_with_bottom_coordinates():
    # a -inf coordinate deletes the monomials using it
    p = TropPoly(2, {(1, 0): pos(0), (0, 1): neg(0)})
    assert evaluate(p, (TROP_MINUS_INF, pos(3))) == neg(3)
    assert evaluate(p, (TROP_MINUS_INF, TROP_MINUS_INF)) == TROP_MINUS_INF
    assert evaluate(TropPoly(1, {}), (pos(0),)) == TROP_MINUS_INF
    # an absent variable does not poison a monomial
    const = TropPoly(1, {(0,): pos(7)})
    assert evaluate(const, (TROP_MINUS_INF,)) == pos(7)
    assert eval_part(const, "+", (MINUS_INF,)) == F(7)
    # eval_part drops the terms that use a -inf coordinate and keeps the others
    p = TropPoly(2, {(1, 0): pos(5), (0, 2): pos(1), (1, 1): neg(9)})
    assert eval_part(p, "+", (MINUS_INF, F(3))) == F(7)
    assert eval_part(p, "-", (MINUS_INF, F(3))) == MINUS_INF
    assert eval_part(p, "+", (F(0), MINUS_INF)) == F(5)


def test_argmax_examples():
    p = TropPoly(1, {(0,): pos(0), (1,): pos(0)})
    assert argmax(p, (F(0),)) == frozenset({(0,), (1,)})
    assert argmax(p, (F(1),)) == frozenset({(1,)})
    assert argmax(EXAMPLE, (F(1), F(-5, 3))) == frozenset({(3, 4), (0, 1)})


def test_argmax_requires_nonzero():
    with pytest.raises(ValueError):
        argmax(TropPoly(1, {}), (F(0),))


def test_tropicalize_examples():
    t = P.t_power(1)
    assert tropicalize(SeriesPolynomial(1, {(1,): P.monomial(-1, 3)})) == TropPoly(
        1, {(1,): neg(3)}
    )
    bp = SeriesPolynomial(2, {(1, 0): t - P.constant(1), (0, 1): P.constant(2)})
    assert tropicalize(bp) == TropPoly(2, {(1, 0): pos(1), (0, 1): pos(0)})
    assert tropicalize(SeriesPolynomial(1, {(1,): P.zero()})) == TropPoly(1, {})


def _rand_series_poly(rng, n):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        terms = [
            (F(rng.randint(-4, 4)), F(rng.choice([-3, -2, -1, 1, 2, 3])))
            for _ in range(rng.randint(1, 2))
        ]
        coeffs[alpha] = P.from_terms(terms)
    return SeriesPolynomial(n, coeffs)


def _rand_series_point(rng, n):
    out = []
    for _ in range(n):
        if rng.random() < 0.15:
            out.append(P.zero())
        else:
            out.append(
                P.from_terms(
                    [
                        (F(rng.randint(-3, 3)), F(rng.choice([-2, -1, 1, 2])))
                        for _ in range(rng.randint(1, 2))
                    ]
                )
            )
    return tuple(out)


def test_homomorphism_property():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        bp = _rand_series_poly(rng, n)
        bx = _rand_series_point(rng, n)
        result = evaluate(tropicalize(bp), tuple(sval(v) for v in bx))
        if result is VANISHES:
            continue
        assert result == sval(bp.evaluate(bx))
        checked += 1
    assert checked > 300


def test_positive_part_consistency():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 3)
        coeffs = {
            tuple(rng.randint(0, 2) for _ in range(n)): pos(F(rng.randint(-5, 5)))
            for _ in range(rng.randint(1, 3))
        }
        p = TropPoly(n, coeffs)
        x = tuple(pos(F(rng.randint(-4, 4))) for _ in range(n))
        moduli = tuple(v.value for v in x)
        assert evaluate(p, x) == SignedTrop(1, eval_part(p, "+", moduli))


def test_argmax_shift_invariant():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 3)
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            coeffs[alpha] = SignedTrop(rng.choice([1, -1]), F(rng.randint(-5, 5)))
        p = TropPoly(n, coeffs)
        c = F(rng.randint(-7, 7))
        shifted = TropPoly(
            n, {a: SignedTrop(v.sign, v.value + c) for a, v in p.coeffs.items()}
        )
        x = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        assert argmax(p, x) == argmax(shifted, x)


def test_minus_inf_coefficients_dropped():
    p = TropPoly(1, {(0,): TROP_MINUS_INF, (1,): pos(0)})
    assert p.coeffs == {(1,): pos(0)}
    assert not p.is_zero()
    assert TropPoly(1, {(0,): TROP_MINUS_INF}).is_zero()


def test_both_polynomial_types_compare_by_n_and_nonzero_coefficients():
    # TropPoly and SeriesPolynomial share one coefficient map: zero
    # coefficients drop out, and equality reads n and what is left
    assert TropPoly(2, {(1, 0): pos(1), (0, 1): TROP_MINUS_INF}) == TropPoly(2, {(1, 0): pos(1)})
    assert TropPoly(1, {(1,): pos(1)}) != TropPoly(1, {(1,): neg(1)})
    assert TropPoly(2, {}) != TropPoly(1, {})
    t = P.t_power(1)
    assert SeriesPolynomial(1, {(0,): t, (1,): P.zero()}) == SeriesPolynomial(1, {(0,): t})
    assert SeriesPolynomial(1, {(0,): t}) != SeriesPolynomial(1, {(0,): P.t_power(2)})
    assert SeriesPolynomial(2, {}) != SeriesPolynomial(1, {})
    # the two types never compare equal, not even as zero polynomials
    assert TropPoly(1, {}) != SeriesPolynomial(1, {})
    assert SeriesPolynomial(1, {}) != TropPoly(1, {})
    assert TropPoly(1, {}) != "TropPoly(n=1, {})"


def test_both_polynomial_types_take_n_as_an_int():
    for poly in (TropPoly(F(2), {(1, 0): pos(1)}), SeriesPolynomial(F(2), {(1, 0): P.t_power(1)})):
        assert type(poly.n) is int and poly.n == 2
