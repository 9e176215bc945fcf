"""Signed tropical polynomials: evaluation, vanishing, maximizing monomials.

A tropical polynomial is a finite map from multi-indices to nonzero signed
tropical coefficients.  Evaluating at a signed point either returns the
tropical sum of the greatest-modulus terms (when they agree in sign) or
the VANISHES marker (when two of them disagree): sign cancellation has no
value in the semifield, and callers branch on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .puiseux import SeriesPolynomial, _CoefficientMap, sval
from .signed import (
    MINUS_INF,
    ExtRat,
    SignedTrop,
    TROP_MINUS_INF,
    _check_count,
    format_signed,
    is_minus_inf,
)


class _Vanishes:
    __slots__ = ()

    def __repr__(self):
        return "Vanishes"


#: Marker returned by evaluate() when the maximizing terms cancel in sign.
VANISHES = _Vanishes()

EvalResult = Union[SignedTrop, _Vanishes]


class TropPoly(_CoefficientMap):
    """Tropical polynomial in n variables; coefficients indexed by multi-index."""

    __slots__ = ()

    @staticmethod
    def _is_zero(a: SignedTrop) -> bool:
        return a.sign == 0  # -inf coefficients are never stored

    def __repr__(self):
        body = ", ".join(
            f"{alpha}: {format_signed(a)}" for alpha, a in sorted(self.coeffs.items())
        )
        return f"TropPoly(n={self.n}, {{{body}}})"

    def is_zero(self) -> bool:
        return not self.coeffs


def _monomial_value(alpha: tuple[int, ...], mod: ExtRat, x: Sequence[ExtRat]) -> ExtRat:
    # |a| + <alpha, x>; a variable absent from the monomial cannot poison it
    v = mod
    for k, e in enumerate(alpha):
        if e:
            xk = x[k]
            if is_minus_inf(xk) or is_minus_inf(v):
                return MINUS_INF
            v = v + e * xk
    return v


def eval_part(poly: TropPoly, part: str, x: Sequence[ExtRat]) -> ExtRat:
    """Max of |a_alpha| + <alpha, x> over the positive or negative support.

    part is "+" or "-".  The empty max is -inf.
    """
    if part not in ("+", "-"):
        raise ValueError(f"part must be '+' or '-', got {part!r}")
    _check_count(poly.n, x)
    want = 1 if part == "+" else -1
    best: ExtRat = MINUS_INF
    for alpha, a in poly.coeffs.items():
        if a.sign != want:
            continue
        v = _monomial_value(alpha, a.value, x)
        if best < v:
            best = v
    return best


def evaluate(poly: TropPoly, x: Sequence[SignedTrop]) -> EvalResult:
    """Evaluate at a signed point; VANISHES if the top terms cancel in sign.

    Terms killed by a -inf coordinate are excluded from the greatest-modulus
    comparison; if every term dies (or the polynomial is zero) the result is
    -inf, not VANISHES.
    """
    _check_count(poly.n, x)
    moduli = [v.value for v in x]
    best: ExtRat = MINUS_INF
    best_signs: set[int] = set()
    for alpha, a in poly.coeffs.items():
        value = _monomial_value(alpha, a.value, moduli)
        if is_minus_inf(value):
            continue
        sign = a.sign
        for k, e in enumerate(alpha):
            if e % 2:
                sign *= x[k].sign
        if value > best:
            best = value
            best_signs = {sign}
        elif value == best:
            best_signs.add(sign)
    if is_minus_inf(best):
        return TROP_MINUS_INF
    if len(best_signs) > 1:
        return VANISHES
    return SignedTrop(best_signs.pop(), best)


def argmax(poly: TropPoly, x: Sequence[Fraction]) -> frozenset[tuple[int, ...]]:
    """Maximizing multi-indices of |a_alpha| + <alpha, x> at a finite point."""
    if poly.is_zero():
        raise ValueError("argmax of the zero polynomial is undefined")
    _check_count(poly.n, x)
    if any(is_minus_inf(v) for v in x):
        raise ValueError("argmax is defined at finite points only")
    values = {alpha: _monomial_value(alpha, a.value, x) for alpha, a in poly.coeffs.items()}
    top = max(values.values())
    return frozenset(alpha for alpha, v in values.items() if v == top)


def tropicalize(poly: SeriesPolynomial) -> TropPoly:
    """Coefficient-wise signed valuation; zero coefficients drop out."""
    return TropPoly(poly.n, {alpha: sval(c) for alpha, c in poly.coeffs.items()})
