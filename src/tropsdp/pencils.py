"""Tropical linear matrix pencils and their spectrahedron predicates.

A pencil is a list of n symmetric m x m matrices of signed tropical
numbers, one per variable.  Membership of a point x in the associated
tropical spectrahedron is decided by the order-1 and order-2 principal
minor inequalities; the Metzler case (all off-diagonal coefficients
negative or -inf) admits the direct predicate, the general case reduces
to Metzler pieces indexed by a subset Sigma of row pairs and a direction
map on its complement.

Points live in (Q union {-inf})^n.  Affine problems are handled by
homogenization only: the constant matrix becomes the coefficient of a
fresh first variable, and affine membership fixes that coordinate to 0.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DimensionTooLarge, NotMetzler, PencilFormatError
from .signed import (
    MINUS_INF,
    ExtRat,
    SignedTrop,
    TROP_MINUS_INF,
    _Value,
    _check_count,
    format_signed,
    is_minus_inf,
    parse_rational,
    parse_signed,
)

Matrix = tuple[tuple[SignedTrop, ...], ...]


class TropicalPencil(_Value):
    """n symmetric m x m signed tropical matrices, one per variable."""

    _fields = ("m", "n", "matrices")  # no __slots__: the compiles below cache in __dict__

    def __init__(self, m: int, n: int, matrices: tuple[Matrix, ...]):
        _check_count(n, matrices, "matrices")
        for mat in matrices:
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValueError("matrix dimension mismatch")
            for i in range(m):
                for j in range(i):
                    if mat[i][j] != mat[j][i]:
                        raise ValueError(f"matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrices", matrices)

    @staticmethod
    def from_rows(m: int, n: int, matrices) -> "TropicalPencil":
        return TropicalPencil(
            m, n, tuple(tuple(tuple(row) for row in mat) for mat in matrices)
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.m, self.n, self.matrices))

    def __hash__(self) -> int:
        # frozen, so the field hash is computed once; pencils key caches
        return self._hash

    @cached_property
    def _terms(self):
        """(D, entries), the one integer compile of the values: D is their
        _lattice_lcm, and entries maps every upper-triangle (i, j), in row
        order, to its finite coefficients as (k, sign, D * value) int triples
        in k order."""
        cells = {(i, j): [(k, mat[i][j]) for k, mat in enumerate(self.matrices) if mat[i][j].sign]
                 for i in range(self.m) for j in range(i, self.m)}
        den = _lattice_lcm((a.value for cell in cells.values() for _, a in cell), "pencil's")
        return den, {ij: tuple((k, a.sign, a.value.numerator * (den // a.value.denominator))
                               for k, a in cell) for ij, cell in cells.items()}

    @cached_property
    def is_metzler(self) -> bool:
        """Every off-diagonal coefficient tropically negative or -inf."""
        return all(s < 0 for (i, j), terms in self._terms[1].items() if i != j
                   for _, s, _ in terms)

    @cached_property
    def _constraints(self):
        """(D, table): the order-1/order-2 constraints that can fail, on ints.

        D is the lattice of _terms, and a family is a tuple of (k, D * value)
        int pairs, one per finite coefficient of an entry, in k order.  A
        constraint is (key, left, right): its lhs is the sum of the left
        families' maxima, its rhs len(left) times the max of the right
        families.  Row i gives (i, (pos_ii,), (neg_ii,)); then each pair
        i < j gives ((i, j), (pos_ii, pos_jj), (pos_ij, neg_ij)), which also
        holds when its two right maxima tie.  A row with no negative part
        and a pair with no finite off-diagonal entry have rhs -inf at every
        point, so they always hold and are dropped; the rest keep this order.
        """
        den, entries = self._terms

        def part(i, j, sign):
            return tuple((k, c) for k, s, c in entries[i, j] if s == sign)

        pos = [part(i, i, 1) for i in range(self.m)]
        rows = [(i, (pos[i],), (part(i, i, -1),)) for i in range(self.m)]
        pairs = [((i, j), (pos[i], pos[j]), (part(i, j, 1), part(i, j, -1)))
                 for i, j in itertools.combinations(range(self.m), 2)]
        return den, tuple(c for c in rows + pairs if any(c[2]))

    @cached_property
    def _lift(self):
        """(table, pairs, blocks): the _lift_table of the pencil (canonical iff
        Metzler), the off-diagonal (i, j) of its rows, and the components those
        pairs make of range(m).  Only a listed pair can be nonzero at a point,
        so pairs serve _minor_conditions and blocks _psd_verdict."""
        from .puiseux import _components  # the oracle's layer, loaded by its first lift

        table = _lift_table(self, self.is_metzler)
        pairs = tuple((i, j) for i, j, _ in table if i != j)
        return table, pairs, _components(self.m, pairs)


def _lift_table(pencil: TropicalPencil, canonical: bool) -> tuple:
    """The entry-wise series lift on the lattice D of pencil._terms.

    It has a row (i, j, terms) for every upper-triangle entry with a finite
    value, the diagonal rows first and each part in row order, and a term
    (k, D * value, coefficient) per finite value.  This is the one place
    that picks lift coefficients: -1 for negative entries and, for positive
    ones, m*n under the canonical lift, 1 otherwise (the plain sign).
    """
    pos = pencil.m * pencil.n if canonical else 1
    cells = sorted(pencil._terms[1].items(), key=lambda cell: cell[0][0] != cell[0][1])
    return tuple((i, j, tuple((k, c, pos if s > 0 else -1) for k, s, c in terms))
                 for (i, j), terms in cells if terms)


def _lattice(pencil: TropicalPencil, x: Sequence[ExtRat]):
    """(S, f, X): x scaled by S = f * D onto the integers, so that a table
    term (k, c) is worth c * f + X[k] at x; X[k] is None for -inf."""
    den = pencil._constraints[0]
    scale = math.lcm(den, *(v.denominator for v in x if not is_minus_inf(v)))
    X = [None if is_minus_inf(v) else v.numerator * (scale // v.denominator) for v in x]
    return scale, scale // den, X


def _sides(pencil: TropicalPencil, lattice):
    """The one pass over pencil._constraints at x, lattice its _lattice.

    Yields (constraint, lhs, rhs, tie) per constraint, scaled by S as in
    _lattice, with None for -inf.  lhs and rhs are its two sides, and tie
    says whether the right families' maxima are equal, which only a pair's
    two parts can be.
    """
    _, f, X = lattice

    def top(family):
        best = None
        for k, c in family:
            if X[k] is not None:
                v = c * f + X[k]
                if best is None or v > best:
                    best = v
        return best

    for con in pencil._constraints[1]:
        _, left, right = con
        tops = [top(fam) for fam in left]
        rights = [top(fam) for fam in right]
        best = max((v for v in rights if v is not None), default=None)
        lhs = None if None in tops else sum(tops)
        rhs = None if best is None else len(left) * best
        tie = len(rights) == 2 and rights[0] == rights[1]
        yield con, lhs, rhs, tie


def _holds(lhs, rhs) -> bool:
    # lhs >= rhs, where None is -inf and -inf >= -inf
    return rhs is None or (lhs is not None and lhs >= rhs)


def _member(pencil: TropicalPencil, lattice) -> bool:
    return all(tie or _holds(lhs, rhs) for _, lhs, rhs, tie in _sides(pencil, lattice))


def qij_poly(pencil: TropicalPencil, i: int, j: int) -> TropPoly:
    """The degree-1 tropical polynomial with coefficient Q^(k)_ij on X_k."""
    from .polynomials import TropPoly

    return TropPoly(pencil.n, {tuple(int(t == k) for t in range(pencil.n)): mat[i][j]
                               for k, mat in enumerate(pencil.matrices)})


def _require_metzler(pencil: TropicalPencil) -> None:
    if not pencil.is_metzler:
        raise NotMetzler("pencil has a tropically positive off-diagonal coefficient")


def metzler_member(pencil: TropicalPencil, x: Sequence[ExtRat]) -> bool:
    """Membership in the tropical Metzler spectrahedron of the pencil.

    Diagonal constraints compare positive against negative parts; pair
    constraints compare the product of positive diagonal parts against the
    squared off-diagonal modulus.  -inf >= -inf holds.  This is
    general_member's verdict: a Metzler pair has no positive part, so its
    parts tie only when the rhs is -inf and the pair holds anyway.
    """
    _require_metzler(pencil)
    _check_count(pencil.n, x)
    return _member(pencil, _lattice(pencil, x))


def metzler_strict_member(pencil: TropicalPencil, x: Sequence[Fraction]) -> bool:
    """Strict versions of the nontrivial inequalities at a finite point.

    Constraints whose right-hand side is the zero polynomial are skipped:
    they hold identically and have no strict form.
    """
    _require_metzler(pencil)
    _check_count(pencil.n, x)
    if any(is_minus_inf(v) for v in x):
        raise ValueError("strict membership is defined for finite points only")
    sides = _sides(pencil, _lattice(pencil, x))
    return all(lhs is not None and lhs > rhs for _, lhs, rhs, _ in sides)


def general_member(pencil: TropicalPencil, x: Sequence[ExtRat]) -> bool:
    """Membership for arbitrary sign patterns.

    The pair constraint may also be discharged by an exact tie between the
    positive and negative off-diagonal parts.
    """
    _check_count(pencil.n, x)
    return _member(pencil, _lattice(pencil, x))


#: Most points a grid may have; larger grids are refused before enumeration.
GRID_POINT_LIMIT = 10**6


def grid_axis(n: int, lo, hi, step) -> list[Fraction]:
    """The axis lo, lo + step, ... <= hi of an n-dimensional grid over a box.

    Raises DimensionTooLarge when the n-dimensional grid would have more
    than GRID_POINT_LIMIT points, naming the count while it has at most 128
    bits.  A count of 2 or more per axis has
    count**n >= 2**(n * (count.bit_length() - 1)), which passes the limit
    well before 128 bits, so a larger power is never formed.  It also
    raises DimensionTooLarge when a value's numerator or denominator could
    have more digits than sys.get_int_max_str_digits() lets str() write.
    """
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    count = max(0, (hi - lo) // step + 1)
    small = n * count.bit_length() <= 128
    if count > 1 and (not small or count**n > GRID_POINT_LIMIT):
        size = count**n if small else f"more than {GRID_POINT_LIMIT}"
        raise DimensionTooLarge(f"grid has {size} points, above the limit of {GRID_POINT_LIMIT}")
    # each value one Fraction over the common denominator of lo and step
    den = math.lcm(lo.denominator, step.denominator)
    start = lo.numerator * (den // lo.denominator)
    stride = step.numerator * (den // step.denominator)
    # Python before 3.10.7 has no such limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and max(den, abs(start), abs(start + (count - 1) * stride)) >= 10**digits:
        raise DimensionTooLarge(f"grid values reach 10^{digits}, past str()'s digit limit")
    return [Fraction(start + i * stride, den) for i in range(count)]


def slice_members(
    pencil: TropicalPencil,
    base: Sequence[ExtRat],
    free: tuple[int, ...],
    axis: Sequence[Fraction],
) -> Iterator[list[bool]]:
    """general_member on a 2-D slice, one list of verdicts per grid row.

    The points are base with coordinates free[0], free[1] set to (a, b);
    row a holds the verdicts at (a, b) for b in axis, and the rows come for
    a in axis.  With one free coordinate the points are base with free[0]
    set to b, and the one row holds their verdicts.  axis must be finite
    and ascending, else ValueError; base's values at free are ignored.

    On the slice each family max of the pencil's constraint table is
    max(c, a + u, b + w), compiled once in the integers of the _lattice of
    base and axis.  Along row a it is h(b) = max(k, b + w), k = max(c, a + u),
    so each constraint holds on an interval of b.  h_l >= h_r holds on
    [k_r - w_l, k_l - w_r], with no lower end if k_l >= k_r and no upper end
    if w_l >= w_r.  h_i + h_j >= 2h_r holds on [L, U]: the lhs max(k_i + k_j,
    k_i + b + w_j, b + w_i + k_j, 2b + w_i + w_j) does not fall, so L is the
    least b where one of its terms reaches 2k_r, none if k_i + k_j does;
    lhs - 2b does not rise, so U is the greatest b where one of its terms is
    >= 2w_r, none if w_i + w_j is.  A tie h_p = h_m holds where both are
    flat if k_p = k_m, where both rise if w_p = w_m, or at the one b where a
    flat one meets a steeper one.  A row is an int mask, bit j for axis[j],
    an interval the bits between two bisects of the axis ints, and the
    row's list is read from the mask once.

    With R the largest scaled modulus, a finite family value lies in
    [-2R, 2R]; a missing term gets the coefficient low = -7R - 1, so a
    dropped a + low never beats a finite term.  The one family that is -inf
    on the whole slice has no term in free[0] either: it reads
    max(low, b + low), where a per-point max would read
    max(a + low, b + low).  Both stay below -6R, so a sum with it stays
    below -4R, the least a sum of two finite values can be, and every
    comparison general_member makes keeps its outcome.
    """
    _check_count(pencil.n, base)
    if len(set(free)) != len(free) or len(free) not in (1, 2) or not all(
            0 <= k < pencil.n for k in free):
        raise ValueError(f"free coordinates {free!r} must be one or two distinct indices")
    # one free coordinate: no family has a term that moves with a, so one row
    p, q = free if len(free) == 2 else (None, *free)
    fixed = [MINUS_INF if k in free else v for k, v in enumerate(base)]
    _, g, X = _lattice(pencil, [*fixed, *axis])  # g = S / D scales the table's terms
    xs = {k: v for k, v in enumerate(X[:pencil.n]) if v is not None}
    bs = X[pencil.n:]
    if None in bs:
        raise ValueError("slice axis value -inf: the axis must be finite")
    if bs != sorted(bs):
        raise ValueError("the slice axis must be ascending")
    table = pencil._constraints[1]
    coeffs = [c * g for _, left, right in table for fam in left + right for _, c in fam]
    low = -7 * max(map(abs, coeffs + list(xs.values()) + bs), default=0) - 1
    # (c, u, w) of each family on the slice; index 0 is -inf on the whole slice
    index = {(low, low, low): 0}

    def family(fam) -> int:
        c = u = w = low
        for k, v in fam:
            if k == p:
                u = v * g
            elif k == q:
                w = v * g
            elif k in xs:
                c = max(c, v * g + xs[k])
        return index.setdefault((c, u, w), len(index))

    # diagonal: positive part >= negative part, which holds if the latter is
    # -inf; pair: the two diagonal positive parts against twice the
    # off-diagonal max, or a tie of its positive and negative parts
    diag, pairs = [], []
    for _, left, right in table:
        sides = [family(fam) for fam in left]
        rhs = family(sum(right, ()))
        if rhs:
            if len(left) == 1:
                diag.append((sides[0], rhs))
            else:
                pairs.append((*sides, rhs, family(right[0]), family(right[1])))

    # an end past the axis is first or last: bisect reads it as no end
    first, last = (bs[0], bs[-1]) if bs else (0, -1)

    def span(lo, hi) -> int:
        i, j = bisect_left(bs, lo), bisect_right(bs, hi)
        return (1 << j) - (1 << i) if i < j else 0

    def tie(kp, wp, km, wm) -> int:
        if (kp - km) * (wp - wm) < 0:  # the flat one meets the steeper one
            return span(max(kp, km) - max(wp, wm), max(kp, km) - max(wp, wm))
        flat = span(first, min(kp - wp, km - wm)) if kp == km else 0
        return flat | (span(max(kp - wp, km - wm), last) if wp == wm else 0)

    cs, _, ws = map(list, zip(*index))
    moving = [(i, c, u) for i, (c, u, _) in enumerate(index) if u != low]
    for a in bs if p is not None else [None]:
        ks = cs.copy()
        for i, c, u in moving:
            ks[i] = c if c > a + u else a + u
        lo, hi, mask = first, last, -1
        for left, right in diag:
            if ks[left] < ks[right]:
                lo = max(lo, ks[right] - ws[left])
            if ws[left] < ws[right]:
                hi = min(hi, ks[left] - ws[right])
        for i, j, r, plus, minus in pairs:
            ki, kj, wi, wj, k2, w2 = ks[i], ks[j], ws[i], ws[j], 2 * ks[r], 2 * ws[r]
            below, above = first, last
            if ki + kj < k2:
                below = min(k2 - ki - wj, k2 - wi - kj, -((wi + wj - k2) // 2))
            if wi + wj < w2:
                above = max(ki + wj - w2, wi + kj - w2, (ki + kj - w2) // 2)
            # plus or minus 0: that part is -inf on the whole slice, no tie
            ties = plus and minus and tie(ks[plus], ws[plus], ks[minus], ws[minus])
            if ties:
                mask &= span(below, above) | ties
            else:
                lo, hi = max(lo, below), min(hi, above)
        yield list(map("1".__eq__, bin(mask & span(lo, hi) | 1 << len(bs))[:2:-1]))


class SigmaChoice(_Value):
    """A subset of row pairs plus a direction for each remaining pair."""

    __slots__ = ("m", "sigma", "diamond")

    def __init__(self, m: int, sigma: frozenset[tuple[int, int]],
                 diamond: tuple[tuple[tuple[int, int], str], ...]):
        pairs = {(i, j) for i in range(m) for j in range(i + 1, m)}
        comp = {p for p, _ in diamond}
        if not sigma <= pairs or not comp <= pairs:
            raise ValueError("pair out of range")
        if sigma & comp or sigma | comp != pairs:
            raise ValueError("sigma and diamond must partition the strict upper triangle")
        if any(d not in (">=", "<=") for _, d in diamond):
            raise ValueError("directions must be '>=' or '<='")
        if list(diamond) != sorted(diamond):
            raise ValueError("diamond pairs must be sorted")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "diamond", diamond)

    @staticmethod
    def make(m: int, sigma: Iterable[tuple[int, int]], diamond) -> "SigmaChoice":
        dia = tuple(sorted((tuple(p), d) for p, d in dict(diamond).items()))
        return SigmaChoice(m, frozenset(tuple(p) for p in sigma), dia)


def _sigma_choices(m: int, sigma: frozenset[tuple[int, int]]) -> Iterator[SigmaChoice]:
    """The 2^|diamond| choices of sigma, diamond its complement in pair
    order, each direction tuple in product order, ">=" first."""
    comp = [p for p in itertools.combinations(range(m), 2) if p not in sigma]
    for dirs in itertools.product((">=", "<="), repeat=len(comp)):
        yield SigmaChoice(m, sigma, tuple(zip(comp, dirs)))


def enumerate_choices(m: int, max_m: int = 5):
    """All (sigma, diamond) pairs in a fixed order: larger sigma first."""
    if m > max_m:
        raise DimensionTooLarge(f"m = {m} exceeds choice-enumeration bound {max_m}")
    pairs = list(itertools.combinations(range(m), 2))
    for mask in range(2 ** len(pairs) - 1, -1, -1):
        yield from _sigma_choices(m, frozenset(p for b, p in enumerate(pairs) if mask >> b & 1))


def decompose(pencil: TropicalPencil, choice: SigmaChoice) -> TropicalPencil:
    """The Metzler pencil whose spectrahedron is the (sigma, diamond) piece.

    Block structure: the original diagonal with off-diagonal entries turned
    into negated moduli inside sigma and erased outside, plus one extra
    diagonal row per complement pair carrying that pair's off-diagonal
    polynomial, sign-flipped when the direction is "<=".  Raises
    DimensionTooLarge, naming the size, before anything is built when the
    piece has more than PENCIL_CELL_LIMIT matrix cells.
    """
    if choice.m != pencil.m:
        raise ValueError("choice built for a different dimension")
    comp = [p for p, _ in choice.diamond]
    dirs = dict(choice.diamond)
    m2 = pencil.m + len(comp)
    if pencil.n * m2 * m2 > PENCIL_CELL_LIMIT:
        raise DimensionTooLarge(f"piece of {pencil.n} x {m2} x {m2} = {pencil.n * m2 * m2} "
                                f"matrix cells, above the limit of {PENCIL_CELL_LIMIT}")
    mats = []
    for k in range(pencil.n):
        src = pencil.matrices[k]
        rows = [[TROP_MINUS_INF] * m2 for _ in range(m2)]
        for i in range(pencil.m):
            rows[i][i] = src[i][i]
            for j in range(i + 1, pencil.m):
                if (i, j) in choice.sigma:
                    a = src[i][j]
                    entry = TROP_MINUS_INF if a.sign == 0 else SignedTrop(-1, a.value)
                    rows[i][j] = rows[j][i] = entry
        for idx, (i, j) in enumerate(comp):
            a = src[i][j]
            if dirs[(i, j)] == "<=" and a.sign != 0:
                a = SignedTrop(-a.sign, a.value)
            rows[pencil.m + idx][pencil.m + idx] = a
        mats.append(tuple(tuple(r) for r in rows))
    return TropicalPencil(m2, pencil.n, tuple(mats))


def check_assumption_nondeg(pencil: TropicalPencil) -> list[tuple[int, int, int]]:
    """Pairs (k, i, j) where two positive diagonal coefficients exactly
    balance twice the off-diagonal modulus; empty means nondegenerate."""
    entries = pencil._terms[1]
    pos = [{k: c for k, s, c in entries[i, i] if s > 0} for i in range(pencil.m)]
    return sorted((k, i, j) for (i, j), terms in entries.items() if i != j
                  for k, _, c in terms if k in pos[i] and k in pos[j]
                  and pos[i][k] + pos[j][k] == 2 * c)


def homogenize(q0: Matrix, pencil: TropicalPencil) -> TropicalPencil:
    """Adjoin q0 as the coefficient of a fresh first variable."""
    q0 = tuple(tuple(row) for row in q0)
    return TropicalPencil(pencil.m, pencil.n + 1, (q0,) + pencil.matrices)


def stratum_restrict(pencil: TropicalPencil, support: Iterable[int]) -> TropicalPencil:
    """Sub-pencil on the given variable set, in ascending variable order."""
    ks = sorted(set(int(k) for k in support))
    if not ks:
        raise ValueError("support must be nonempty")
    if ks[0] < 0 or ks[-1] >= pencil.n:
        raise ValueError(f"support {ks!r} out of range for n = {pencil.n}")
    return TropicalPencil(pencil.m, len(ks), tuple(pencil.matrices[k] for k in ks))


# -- pencil documents ---------------------------------------------------------
#
# {"m": int, "n": int, "homogeneous": bool,
#  "matrices": [{"k": int, "entries": [{"i": int, "j": int, "coeff": str}, ...]}, ...]}
#
# k is 0-based; for affine documents (homogeneous = false) k = 0 is the
# constant matrix and k = 1..n match the variables.  i, j are 1-based row
# indices with i <= j; omitted entries are -inf.


#: Most matrix cells a pencil document may declare: m * m for each of its n
#: matrices, and the constant matrix of an affine document.
PENCIL_CELL_LIMIT = 2**16
#: Most bits the lcm of the denominators of a pencil's or a point's values may have.
LATTICE_BITS_LIMIT = 2**14


def _lattice_lcm(values: Iterable[ExtRat], what: str) -> int:
    """The lcm of the finite values' denominators, one distinct denominator
    at a time: DimensionTooLarge as soon as it passes LATTICE_BITS_LIMIT."""
    den = 1
    for d in dict.fromkeys(v.denominator for v in values if not is_minus_inf(v)):
        if (den := math.lcm(den, d)).bit_length() > LATTICE_BITS_LIMIT:
            raise DimensionTooLarge(f"lcm of the {what} denominators reaches {den.bit_length()} "
                                    f"bits, above the limit of {LATTICE_BITS_LIMIT}")
    return den


def _json_int(record, key) -> int:
    # a JSON integer only: int() would take 2.7 or "3", and bool is an int
    value = record[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def pencil_from_obj(obj) -> tuple[TropicalPencil, bool]:
    """Parse a pencil document; returns the homogenized pencil and the flag.

    Raises DimensionTooLarge, naming the size, when the header declares more
    than PENCIL_CELL_LIMIT cells, before any matrix is built."""
    if not isinstance(obj, dict):
        raise PencilFormatError("document must be a JSON object")
    try:
        m, n = _json_int(obj, "m"), _json_int(obj, "n")
        homogeneous = obj["homogeneous"]
        if type(homogeneous) is not bool:
            raise TypeError(f"'homogeneous' must be a JSON bool, got {homogeneous!r}")
        matrices = obj["matrices"]
    except (KeyError, TypeError) as exc:
        raise PencilFormatError(f"missing or malformed header field: {exc}") from exc
    if m < 1 or n < 1:
        raise PencilFormatError("m and n must be positive")
    count = n if homogeneous else n + 1
    if count * m * m > PENCIL_CELL_LIMIT:
        raise DimensionTooLarge(f"{count} x {m} x {m} = {count * m * m} matrix cells, "
                                f"above the limit of {PENCIL_CELL_LIMIT}")
    if not isinstance(matrices, list):
        raise PencilFormatError("'matrices' must be a list")
    k_max = n - 1 if homogeneous else n
    built: dict[int, list[list[SignedTrop]]] = {}
    for entry in matrices:
        try:
            k = _json_int(entry, "k")
            entries = entry["entries"]
        except (KeyError, TypeError) as exc:
            raise PencilFormatError(f"malformed matrix record: {exc}") from exc
        if not 0 <= k <= k_max:
            raise PencilFormatError(f"matrix index k = {k} out of range 0..{k_max}")
        if not isinstance(entries, list):
            raise PencilFormatError(f"'entries' of matrix {k} must be a list")
        if k in built:
            raise PencilFormatError(f"duplicate matrix index k = {k}")
        rows = [[TROP_MINUS_INF] * m for _ in range(m)]
        seen = set()
        for cell in entries:
            try:
                i, j = _json_int(cell, "i"), _json_int(cell, "j")
                coeff = parse_signed(str(cell["coeff"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise PencilFormatError(f"malformed entry in matrix {k}: {exc}") from exc
            if not (1 <= i <= j <= m):
                raise PencilFormatError(
                    f"entry ({i},{j}) of matrix {k} violates 1 <= i <= j <= {m}"
                )
            if (i, j) in seen:
                raise PencilFormatError(f"duplicate entry ({i},{j}) in matrix {k}")
            seen.add((i, j))
            rows[i - 1][j - 1] = coeff
            rows[j - 1][i - 1] = coeff
        built[k] = rows
    empty = tuple(tuple([TROP_MINUS_INF] * m) for _ in range(m))

    def mat(k):
        rows = built.get(k)
        return empty if rows is None else tuple(tuple(r) for r in rows)

    if homogeneous:
        pencil = TropicalPencil(m, n, tuple(mat(k) for k in range(n)))
    else:
        base = TropicalPencil(m, n, tuple(mat(k) for k in range(1, n + 1)))
        pencil = homogenize(mat(0), base)
    return pencil, homogeneous


def pencil_to_obj(pencil: TropicalPencil, homogeneous: bool = True) -> dict:
    """Inverse of pencil_from_obj (affine documents split off the constant)."""
    n_file = pencil.n if homogeneous else pencil.n - 1
    mats = []
    for k in range(pencil.n):
        entries = []
        mat = pencil.matrices[k]
        for i in range(pencil.m):
            for j in range(i, pencil.m):
                if mat[i][j] != TROP_MINUS_INF:
                    entries.append(
                        {"i": i + 1, "j": j + 1, "coeff": format_signed(mat[i][j])}
                    )
        if entries:
            mats.append({"k": k, "entries": entries})
    return {"m": pencil.m, "n": n_file, "homogeneous": homogeneous, "matrices": mats}


def load_pencil(path) -> tuple[TropicalPencil, bool]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
            raise PencilFormatError(f"invalid JSON: {exc}") from exc
    return pencil_from_obj(obj)


def parse_point(text: str) -> tuple[ExtRat, ...]:
    """Comma-separated coordinates; each "p/q" or "-inf"."""
    out: list[ExtRat] = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece == "-inf":
            out.append(MINUS_INF)
        else:
            try:
                out.append(parse_rational(piece))
            except ValueError as exc:
                raise ValueError(f"bad coordinate {piece!r}") from exc
    return tuple(out)


def format_point(x: Sequence[ExtRat]) -> list[str]:
    return ["-inf" if is_minus_inf(v) else str(v) for v in x]
