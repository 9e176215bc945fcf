"""Formal Puiseux polynomials over the rationals, the exact ground field.

A value is a finite sum of terms c * t^e with rational c != 0 and rational
exponents stored in strictly decreasing order, t a large formal parameter.
The empty sum is 0.  Canonical form makes equality of values structural.
The ring operations keep it without re-canonicalizing: a sum is a linear
merge of two term lists, and a product by a single term shifts and scales.
The leading term orders the field: x >= y iff the leading coefficient of
x - y is >= 0, so e.g. t > 1 and t^(1/2) > 1000.

Symmetric matrices over this field support exact principal minors and a
positive-semidefiniteness test: the order-1/2 minors on the nonzero pairs,
then fraction-free elimination of each block of three or more indices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import CertificateCheckFailed
from .signed import (MINUS_INF, ExtRat, SignedTrop, TROP_MINUS_INF, _Value, _check_count,
                     _check_symmetric)


class PuiseuxPoly(_Value):
    """Finite formal sum of (exponent, coefficient) terms, exponents decreasing.

    Direct construction must already be canonical: exponents strictly
    decreasing and no zero coefficient.  Anything else goes through from_terms.
    Terms are Fractions, or ints on the oracle's scaled lattice; add, mul,
    the minors and is_psd take either.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, Fraction], ...] = ()):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(terms: Iterable[tuple[Fraction, Fraction]]) -> "PuiseuxPoly":
        """Canonicalize: merge equal exponents, drop zeros, sort decreasing."""
        acc: dict[Fraction, Fraction] = {}
        for e, c in terms:
            e, c = Fraction(e), Fraction(c)
            acc[e] = acc.get(e, Fraction(0)) + c
        out = tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c != 0)
        return PuiseuxPoly(out)

    @staticmethod
    def zero() -> "PuiseuxPoly":
        return PuiseuxPoly(())

    @staticmethod
    def constant(c) -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(c, 0)

    @staticmethod
    def monomial(c, e) -> "PuiseuxPoly":
        c = Fraction(c)
        return PuiseuxPoly(((Fraction(e), c),)) if c else PuiseuxPoly.zero()

    @staticmethod
    def t_power(e) -> "PuiseuxPoly":
        return PuiseuxPoly.monomial(1, e)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return add(self, other)

    def __sub__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return add(self, neg(other))

    def __neg__(self) -> "PuiseuxPoly":
        return neg(self)

    def __mul__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        return mul(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (e, c) in enumerate(self.terms):
            mag = abs(c)
            body = f"{mag}*t^{e}"
            if idx == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


def add(x: PuiseuxPoly, y: PuiseuxPoly) -> PuiseuxPoly:
    """Linear merge of two canonical term lists; equal exponents cancel."""
    a, b = x.terms, y.terms
    if not a:
        return y
    if not b:
        return x
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea > eb:
            out.append(a[i])
            i += 1
        elif ea < eb:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return PuiseuxPoly(tuple(out))


def neg(x: PuiseuxPoly) -> PuiseuxPoly:
    return PuiseuxPoly(tuple((e, -c) for e, c in x.terms))


def mul(x: PuiseuxPoly, y: PuiseuxPoly) -> PuiseuxPoly:
    """Exact convolution; exponents add."""
    a, b = x.terms, y.terms
    if not a or not b:
        return PuiseuxPoly.zero()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # shifting and scaling by one nonzero term keeps the order canonical
        (e, c), = b
        return PuiseuxPoly(tuple((ea + e, ca * c) for ea, ca in a))
    acc: dict[Fraction, Fraction] = {}
    for ex, cx in a:
        for ey, cy in b:
            e = ex + ey
            acc[e] = acc.get(e, 0) + cx * cy
    out = tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c != 0)
    return PuiseuxPoly(out)


def val(x: PuiseuxPoly) -> ExtRat:
    """Leading exponent; val(0) = -inf."""
    return x.terms[0][0] if x.terms else MINUS_INF


def sign_of(x: PuiseuxPoly) -> int:
    """Sign of the leading coefficient; induces the total order of the field."""
    if not x.terms:
        return 0
    return 1 if x.terms[0][1] > 0 else -1


def compare(x: PuiseuxPoly, y: PuiseuxPoly) -> int:
    """sign_of(x - y), read off the first term where x and y differ."""
    a, b = x.terms, y.terms
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea > eb:
            return 1 if ca > 0 else -1
        if ea < eb:
            return -1 if cb > 0 else 1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a) > len(b):
        return 1 if a[len(b)][1] > 0 else -1
    if len(a) < len(b):
        return -1 if b[len(a)][1] > 0 else 1
    return 0


def sval(x: PuiseuxPoly) -> SignedTrop:
    """Signed valuation: (sign of lc, leading exponent)."""
    if not x.terms:
        return TROP_MINUS_INF
    e, c = x.terms[0]
    return SignedTrop(1 if c > 0 else -1, e)


class _CoefficientMap:
    """A polynomial in n variables as a map from multi-indices to its nonzero
    coefficients, for the tropical and the series side alike: a subclass
    gives only _is_zero, its own zero test on a coefficient."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, ...], object]):
        self.n = n = int(n)
        clean = {}
        for alpha, c in coeffs.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != n or any(e < 0 for e in alpha):
                raise ValueError(f"bad multi-index {alpha!r} for {n} variables")
            if not self._is_zero(c):
                clean[alpha] = c
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and self.coeffs == other.coeffs


class SeriesPolynomial(_CoefficientMap):
    """Polynomial in n variables with PuiseuxPoly coefficients."""

    __slots__ = ()

    @staticmethod
    def _is_zero(c: PuiseuxPoly) -> bool:
        return not c

    def evaluate(self, point: Sequence[PuiseuxPoly]) -> PuiseuxPoly:
        _check_count(self.n, point)
        total = PuiseuxPoly.zero()
        for alpha, c in sorted(self.coeffs.items()):
            term = c
            for k, a in enumerate(alpha):
                for _ in range(a):
                    term = mul(term, point[k])
            total = add(total, term)
        return total


class PuiseuxSymMatrix(_Value):
    """Symmetric square matrix of Puiseux polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[PuiseuxPoly, ...], ...]):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix is not square")
        _check_symmetric(entries)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[PuiseuxPoly]]) -> "PuiseuxSymMatrix":
        return PuiseuxSymMatrix(tuple(tuple(row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.entries)


def _divide(x: PuiseuxPoly, y: PuiseuxPoly) -> PuiseuxPoly:
    """x / y, exact, by long division from the leading terms.  An exact
    quotient's lowest exponent is low(x) - low(y), so a term below it
    raises CertificateCheckFailed, also under python -O; the exponents stay
    on one lattice, so the loop ends.  Int operands that divide give ints."""
    (eb, cb), rest = y.terms[0], PuiseuxPoly(y.terms[1:])
    low, q, r = x.terms[-1][0] - y.terms[-1][0], [], x
    while r.terms:
        e, c = r.terms[0]
        if e - eb < low:
            raise CertificateCheckFailed(f"{y} does not divide {x}")
        c = c // cb if type(c) is int and type(cb) is int and c % cb == 0 else Fraction(c) / cb
        q.append((e - eb, c))
        r = add(PuiseuxPoly(r.terms[1:]), mul(PuiseuxPoly(((e - eb, -c),)), rest))
    return PuiseuxPoly(tuple(q))


def _step(a, p: int, rows, cols, prev) -> None:
    """a_ij <- (a_pp a_ij - a_ip a_pj) / prev in place for i in rows, j in
    cols, prev None for the first pivot: fraction-free, since by Sylvester's
    identity each new a_ij is a minor of the input."""
    app, ap = a[p][p], a[p]
    for i in rows:
        ai, aip = a[i], a[i][p]
        for j in cols:
            x = mul(app, ai[j])
            if aip and ap[j]:
                x = add(x, neg(mul(aip, ap[j])))
            ai[j] = _divide(x, prev) if x and prev is not None else x


def _int_scaled(entries):
    """(rows, D, L): the entry rows after t -> t^D and A -> L A, D and L the
    lcms of exponent and coefficient denominators: int terms, signs kept."""
    terms = [term for row in entries for x in row for term in x.terms]
    d, f = lcm(*(e.denominator for e, _ in terms)), lcm(*(c.denominator for _, c in terms))
    return [[PuiseuxPoly(tuple((int(e * d), int(c * f)) for e, c in x.terms)) for x in row]
            for row in entries], d, f


def principal_minor(a: PuiseuxSymMatrix, index_set: Iterable[int]) -> PuiseuxPoly:
    """Exact determinant of the submatrix on the given (0-based) indices by
    _step on its _int_scaled rows, pivoting on each column's first nonzero
    row, a swap a sign flip; then exponents / D and coefficients / L^k."""
    idx = tuple(sorted(set(int(i) for i in index_set)))
    if not idx:
        raise ValueError("index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= a.m:
        raise ValueError(f"index set {idx!r} out of range for dimension {a.m}")
    rows, d, f = _int_scaled([[a.entries[i][j] for j in idx] for i in idx])
    k, sign, prev = len(idx), 1, None
    for p in range(k):
        r = next((r for r in range(p, k) if rows[r][p]), None)
        if r is None:
            return PuiseuxPoly.zero()
        if r != p:
            rows[p], rows[r], sign = rows[r], rows[p], -sign
        _step(rows, p, range(p + 1, k), range(p + 1, k), prev)
        prev = rows[p][p]
    det = prev if sign > 0 else neg(prev)
    if d == f == 1:
        return det
    return PuiseuxPoly(tuple((Fraction(e, d), Fraction(c, f ** k)) for e, c in det.terms))


def _nonzero_pairs(entries) -> list[tuple[int, int]]:
    """The (i, j), i < j, with entries[i][j] != 0."""
    m = len(entries)
    return [(i, j) for i in range(m) for j in range(i + 1, m) if entries[i][j]]


def _components(m: int, pairs) -> list[tuple[int, ...]]:
    """The connected components of range(m) joined by the given pairs, each
    sorted, in order of their least index."""
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for g in groups.values()]


def _lead_signs(ii, jj, ij, f: int, inner: bool) -> tuple[int, int]:
    """The signs of a_ii a_jj - a_ij^2 and a_ii a_jj - f a_ij^2 as the leads
    (exponent, coefficient) of three nonzero entries decide them, the
    diagonal ones positive: a product has no cancellation, so the lead of
    a_ii a_jj is lead(a_ii) lead(a_jj) and that of f a_ij^2 is f lead(a_ij)^2.
    Unequal lead exponents decide both inequalities, and equal ones decide
    each by its coefficients c_ii c_jj against f c_ij^2; a sign is 0 where
    the compared leads are equal.  The second is 1 when not inner, since no
    caller reads it then."""
    (ei, ci), (ej, cj), (eij, cij) = ii, jj, ij
    lead, sq = (ei + ej, ci * cj), (2 * eij, cij * cij)
    fsq = (sq[0], f * sq[1])
    return (lead > sq) - (lead < sq), (lead > fsq) - (lead < fsq) if inner else 1


def _minor_conditions(entries, pairs) -> tuple[bool, bool]:
    """(outer, inner) of the symmetric matrix with the given entry rows:
    a_ii >= 0 and a_ii a_jj >= f a_ij^2 for every i < j, with f = 1 for the
    outer relaxation and f = (m-1)^2 for the inner one.

    pairs must list every (i, j), i < j, with a_ij != 0, and only those pairs
    are tested: once every a_ii >= 0, a pair with a_ij = 0 satisfies
    a_ii a_jj >= 0 = f a_ij^2 for both f.  f >= 1 and a_ij^2 >= 0, so inner
    implies outer.  outer says that every principal minor of order 1 and 2
    is nonnegative.

    A pair is read from leading terms by _lead_signs.  Only where the
    compared leads are equal are the products formed, once for both f, and
    compared.
    """
    e, m = entries, len(entries)
    if any(sign_of(e[i][i]) < 0 for i in range(m)):
        return False, False
    f, inner = (m - 1) ** 2, True
    for i, j in pairs:
        aii, ajj, aij = e[i][i], e[j][j], e[i][j]
        if not aij:
            continue
        if not aii or not ajj:
            return False, False
        outer, scaled = _lead_signs(aii.terms[0], ajj.terms[0], aij.terms[0], f, inner)
        if not outer or not scaled:
            lhs, full = mul(aii, ajj), mul(aij, aij)
            outer = outer or compare(lhs, full)
            if not scaled:  # with f = 1 it is the outer inequality
                scaled = outer if f == 1 else compare(lhs, mul(PuiseuxPoly(((0, f),)), full))
        if outer < 0:
            return False, False
        inner = inner and scaled >= 0
    return True, inner


def _block_psd(entries, block) -> bool:
    """PSD of the submatrix on block by _step on its diagonal in order.  After
    pivots P each entry is det A[P] > 0 times the Schur complement's, so a
    negative diagonal, or a zero one with a nonzero row, refutes PSD; a zero
    row is dropped; a positive diagonal is pivoted on.  The last index is
    read as the sign of a_pp a_ii - a_ip^2, with no update or division."""
    a = [[entries[i][j] for j in block] for i in block]
    k, prev = len(block), None
    for p in range(k):
        s, rest = sign_of(a[p][p]), range(p + 1, k)
        if s < 0 or (s == 0 and any(a[p][j] for j in rest)):
            return False
        if s == 0:
            continue
        if p == k - 2:
            return compare(mul(a[p][p], a[-1][-1]), mul(a[-1][p], a[-1][p])) >= 0
        for i in rest:  # the upper triangle, mirrored
            _step(a, p, (i,), range(i, k), prev)
            for j in range(i + 1, k):
                a[j][i] = a[i][j]
        prev = a[p][p]
    return True


def _eliminated(blocks) -> list:
    """The parts of a compiled block partition whose PSD needs _block_psd:
    those of 3 or more indices.  On a part of at most 2, outer decides it."""
    return [b for b in blocks if len(b) >= 3]


def _psd_verdict(entries, outer: bool, blocks) -> bool:
    """PSD of the entry rows, given outer from _minor_conditions and blocks a
    partition no nonzero entry crosses: outer, and _block_psd on each part
    _eliminated returns."""
    return outer and all(_block_psd(entries, b) for b in _eliminated(blocks))


def is_psd(a: PuiseuxSymMatrix) -> bool:
    """True iff every principal minor is nonnegative: _psd_verdict on the
    components of the nonzero pattern of the _int_scaled rows."""
    rows = _int_scaled(a.entries)[0]
    pairs = _nonzero_pairs(rows)
    return _psd_verdict(rows, _minor_conditions(rows, pairs)[0], _components(a.m, pairs))
