"""Ground-truth checks over the series field.

Everything here validates the tropical predicates against exact
semidefiniteness of lifted pencils: the outer set (order-2 minor
inequalities) contains every positive-semidefinite point, the inner set
(same inequalities with an (m-1)^2 safety factor) is contained in it, and
monomial lifts of member points of a certified pencil land inside the
inner set for the canonical lift.  Cross-validation walks a grid and
asserts exactly those implications.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CertificateCheckFailed, DimensionTooLarge, NotCertified
from .hypergraphs import Certificate, certify_generic_general, perturb_to_interior
from .pencils import (
    TropicalPencil,
    _holds,
    _lattice,
    _member,
    _require_metzler,
    _sides,
    _sigma_choices,
    decompose,
    format_point,
    metzler_strict_member,
    stratum_restrict,
)
from .polynomials import TropPoly, eval_part, tropicalize
from .puiseux import (
    PuiseuxPoly,
    PuiseuxSymMatrix,
    SeriesPolynomial,
    _components,
    _minor_conditions,
    _nonzero_pairs,
    _psd_verdict,
    add,
    is_psd,
    mul,
    sign_of,
    sval,
)
from .signed import ExtRat, _check_count, is_minus_inf


@dataclass(frozen=True)
class PuiseuxPencil:
    """n symmetric series matrices, one per variable (homogeneous form)."""

    m: int
    n: int
    matrices: tuple[PuiseuxSymMatrix, ...]

    def __post_init__(self):
        _check_count(self.n, self.matrices, "matrices")
        for mat in self.matrices:
            if mat.m != self.m:
                raise ValueError("matrix dimension mismatch")


def sval_pencil(bp: PuiseuxPencil) -> TropicalPencil:
    """Entry-wise signed valuation of a series pencil."""
    mats = tuple(
        tuple(tuple(sval(e) for e in row) for row in mat.entries)
        for mat in bp.matrices
    )
    return TropicalPencil(bp.m, bp.n, mats)


_ZERO = PuiseuxPoly.zero()


def monomial_lift(x: Sequence[ExtRat]) -> tuple[PuiseuxPoly, ...]:
    """Entry-wise t^{x_k}; a -inf coordinate lifts to 0."""
    return tuple(
        PuiseuxPoly.zero() if is_minus_inf(v) else PuiseuxPoly.t_power(v) for v in x
    )


def _lift_table(pencil: TropicalPencil, canonical: bool) -> tuple:
    """The entry-wise series lift on the lattice D of pencil._terms.

    It has a row (i, j, terms) for every upper-triangle entry with a finite
    value, a term (k, D * value, coefficient) per finite value.  This is the
    one place that picks lift coefficients: -1 for negative entries and, for
    positive ones, m*n under the canonical lift, 1 otherwise (the plain sign).
    """
    pos = pencil.m * pencil.n if canonical else 1
    return tuple((i, j, tuple((k, c, pos if s > 0 else -1) for k, s, c in terms))
                 for (i, j), terms in pencil._terms[1].items() if terms)


def _series_pencil(pencil: TropicalPencil, table) -> PuiseuxPencil:
    """A _lift_table as a series pencil: each term a monomial
    c * t^value with Fraction exponent, every other entry zero."""
    den = pencil._terms[0]
    rows = [[[_ZERO] * pencil.m for _ in range(pencil.m)] for _ in range(pencil.n)]
    for i, j, terms in table:
        for k, e, c in terms:
            rows[k][i][j] = rows[k][j][i] = PuiseuxPoly.monomial(c, Fraction(e, den))
    return PuiseuxPencil(pencil.m, pencil.n, tuple(map(PuiseuxSymMatrix.from_rows, rows)))


def canonical_lift(pencil: TropicalPencil) -> PuiseuxPencil:
    """The entry-wise series lift whose spectrahedron tropicalizes exactly.

    Negative entries become -t^value, positive (diagonal) entries become
    m*n*t^value, -inf becomes 0.  The m*n factor makes plain monomial
    points of the tropical set land inside the inner minor relaxation.
    """
    _require_metzler(pencil)
    return _series_pencil(pencil, _lift_table(pencil, True))


def entrywise_lift(pencil: TropicalPencil) -> PuiseuxPencil:
    """Plain sval-faithful lift: sign * t^value per entry, 0 for -inf."""
    return _series_pencil(pencil, _lift_table(pencil, False))


def evaluate_pencil(bp: PuiseuxPencil, bx: Sequence[PuiseuxPoly]) -> PuiseuxSymMatrix:
    """Exact sum of coordinate times matrix."""
    _check_count(bp.n, bx)
    rows = [[PuiseuxPoly.zero()] * bp.m for _ in range(bp.m)]
    for k in range(bp.n):
        coord = bx[k]
        if not coord:
            continue
        mat = bp.matrices[k]
        for i in range(bp.m):
            for j in range(i, bp.m):
                e = mat.entries[i][j]
                if e:
                    rows[i][j] = add(rows[i][j], mul(coord, e))
    for i in range(bp.m):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return PuiseuxSymMatrix.from_rows(rows)


def _check_nonneg_point(bx: Sequence[PuiseuxPoly]) -> None:
    if any(sign_of(v) < 0 for v in bx):
        raise ValueError("point must be entry-wise nonnegative")


def sout_member(bp: PuiseuxPencil, bx: Sequence[PuiseuxPoly]) -> bool:
    """Order-2 minor relaxation: necessary for semidefiniteness."""
    _check_nonneg_point(bx)
    e = evaluate_pencil(bp, bx).entries
    return _minor_conditions(e, _nonzero_pairs(e))[0]


def sin_member(bp: PuiseuxPencil, bx: Sequence[PuiseuxPoly]) -> bool:
    """Order-2 minors with the (m-1)^2 factor: sufficient for semidefiniteness."""
    _check_nonneg_point(bx)
    e = evaluate_pencil(bp, bx).entries
    return _minor_conditions(e, _nonzero_pairs(e))[1]


def psd_member(bp: PuiseuxPencil, bx: Sequence[PuiseuxPoly]) -> bool:
    """Exact semidefiniteness of the evaluated pencil (is_psd)."""
    _check_nonneg_point(bx)
    return is_psd(evaluate_pencil(bp, bx))


# -- grid cross-validation ----------------------------------------------------


#: Most points a grid may have; larger grids are refused before enumeration.
GRID_POINT_LIMIT = 10**6


def grid_axis(n: int, lo, hi, step) -> list[Fraction]:
    """The axis lo, lo + step, ... <= hi of the grid_points(n, ...) box.

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


def grid_points(n: int, lo, hi, step) -> list[tuple[Fraction, ...]]:
    """Lexicographically ordered rational grid over a box."""
    return list(itertools.product(grid_axis(n, lo, hi, step), repeat=n))


def default_grid(n: int) -> list[tuple[Fraction, ...]]:
    """Integer points of [-2, 2]^n plus half-integer midpoints."""
    return grid_points(n, -2, 2, Fraction(1, 2))


@dataclass
class ValidationRecord:
    """Outcome of all oracle checks at one grid point."""

    x: tuple[ExtRat, ...]
    member: bool
    sout: bool | None = None
    sin: bool | None = None
    psd: bool | None = None
    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def to_obj(self) -> dict:
        return {
            "x": format_point(self.x),
            "member": self.member,
            "checks": {"sout": self.sout, "sin": self.sin, "psd": self.psd},
            "ok": self.ok,
        }


_RECORD = '{"x": [%s], "member": %s, "checks": {"sout": %s, "sin": %s, "psd": %s}, "ok": %s}\n'
_JSON = {True: "true", False: "false", None: "null"}


class _Labels(dict):
    # coordinate -> its JSON string, formatted on first use
    def __missing__(self, v):
        label = self[v] = json.dumps(format_point((v,))[0])
        return label


def record_lines(records: Iterable[ValidationRecord]) -> Iterator[str]:
    """json.dumps(rec.to_obj()) of each record and a newline, filled into one
    fixed template; each coordinate's label is formatted once per call."""
    label = _Labels().__getitem__
    for rec in records:
        yield _RECORD % (", ".join(map(label, rec.x)), _JSON[rec.member], _JSON[rec.sout],
                         _JSON[rec.sin], _JSON[rec.psd], _JSON[rec.ok])


def _cached(cache: dict, key, build):
    # cache is scoped to one cross_validate call, so nothing outlives it
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = build()
    return hit


def _compile_lift(pencil: TropicalPencil):
    """(table, pairs, blocks): the _lift_table of the pencil (canonical iff
    Metzler), the off-diagonal (i, j) of its rows, and
    the components those pairs make of range(m).  Only a listed pair can be
    nonzero at a point, so pairs serve _minor_conditions and blocks
    _psd_verdict."""
    table = _lift_table(pencil, pencil.is_metzler)
    pairs = tuple((i, j) for i, j, _ in table if i != j)
    return table, pairs, _components(pencil.m, pairs)


def _lift_at(cache: dict, pencil: TropicalPencil, x, lattice=None):
    """(a, pairs, blocks): a the entry rows of the lift of the pencil
    (canonical iff Metzler) evaluated at t^x, x finite, pairs and blocks its
    compiled sparsity; lattice is _lattice(pencil, x) when the caller has
    already taken it.

    a is taken after t -> t^S with (S, f, X) the lattice of
    pencils._lattice: every term is then a pair of ints.  The substitution
    keeps the order and commutes with add and mul, so every sign read is
    unchanged.  An entry is the add of its table terms c * t^(e * f + X[k]),
    e on the table's lattice D = S / f, c never 0: the series
    evaluate_pencil would form, without its products."""
    _, f, X = lattice or _lattice(pencil, x)
    table, pairs, blocks = _cached(cache, ("lift", pencil), lambda: _compile_lift(pencil))
    rows = [[_ZERO] * pencil.m for _ in range(pencil.m)]
    for i, j, terms in table:
        entry = _ZERO
        for k, e, c in terms:
            entry = add(entry, PuiseuxPoly(((e * f + X[k], c),)))
        rows[i][j] = rows[j][i] = entry
    return rows, pairs, blocks


def _pieces(cache: dict, pencil: TropicalPencil, x, lattice) -> tuple[TropicalPencil, ...]:
    """The Metzler pieces of the sigma whose every diamond piece contains the
    member point x, in enumeration order.

    A Metzler pencil is its own single piece.  Otherwise a piece contains x
    iff x meets its sigma pairs' constraints and both directions of every
    other pair, i.e. a tie: so sigma is the set of pairs whose constraint
    holds at x.  At a member point every other pair ties, so only its
    2^|diamond| pieces are built, cached for the call under (pencil, sigma).
    """
    if pencil.is_metzler:
        return (pencil,)
    diamond = [key for (key, left, _), lhs, rhs, _ in _sides(pencil, x, lattice)
               if len(left) == 2 and not _holds(lhs, rhs)]
    sigma = frozenset(itertools.combinations(range(pencil.m), 2)).difference(diamond)
    return _cached(cache, ("pieces", pencil, sigma), lambda: tuple(
        decompose(pencil, choice) for choice in _sigma_choices(pencil.m, sigma)
    ))


def cross_validate(
    pencil: TropicalPencil,
    grid: Iterable[Sequence[ExtRat]],
    *,
    assume_certified: bool = False,
    max_m: int = 4,
    max_n: int = 4,
) -> list[ValidationRecord]:
    """Check the membership predicate against the exact PSD oracle on a grid.

    Requires a genericity certificate (computed here unless
    assume_certified is set, in which case the caller vouches and the grid
    soundness checks run regardless).  Non-member points must fall outside
    the outer relaxation of the lift; member points must land inside the
    inner relaxation of the canonical lift of a qualifying Metzler piece,
    strictly perturbed first when they sit on the boundary.  The grid may
    be any iterable, a lazy one too: it is read only after certification.

    Membership is decided at every point.  The lift verdicts and the piece
    check run once per class of translates along the all-ones direction,
    exact since A(x + lambda * 1) = t^lambda * A(x) (see _validate_point).
    """
    if not assume_certified:
        result = certify_generic_general(pencil, max_m=max_m, max_n=max_n)
        if not isinstance(result, Certificate):
            raise NotCertified("pencil has a circulation witness; oracle out of scope")
    cache: dict = {}
    return [_validate_point(pencil, x, cache) for x in map(tuple, sorted(grid))]


def _validate_point(pencil: TropicalPencil, x, cache: dict) -> ValidationRecord:
    """The record at x.  Membership and the lift read the one
    _lattice(pencil, x); a point with a -inf coordinate is validated on its
    support's sub-pencil.

    The predicate under test, _member and the stratum's _member, runs at
    every point; _class_record's verdicts and failures are shared by the
    translates x + lambda * 1.  Lemma: a pencil is homogeneous, so its lift
    has A(x + lambda * 1) = t^lambda * A(x).  Each order-1 minor gains
    t^lambda, each order-2 minor and inner bound t^(2 lambda), and PSD is
    kept; both sides of each constraint gain len(left) * lambda, so sigma,
    the tangent edges and slack, the Farkas direction and rho0 are kept and
    the perturbed target moves by lambda * 1.  The key is the (sub-)pencil,
    the membership and x_k - x_first in lowest terms (S // g, d // g), which
    two points share iff they are translates.  The first point of a class in
    sorted order builds its entry, so an exception is raised where a
    per-point run raises it.
    """
    _check_count(pencil.n, x)
    lattice = _lattice(pencil, x)
    rec = ValidationRecord(x=x, member=_member(pencil, x, lattice))
    support = tuple(k for k, v in enumerate(x) if not is_minus_inf(v))
    if not support:
        # all coordinates -inf: the zero matrix, trivially inside
        rec.sout = rec.sin = rec.psd = True
        if not rec.member:
            rec.fail("all--inf point must be a member")
        return rec
    if len(support) < pencil.n:
        # the rest runs on the support's sub-pencil, built once per call
        pencil = _cached(cache, ("stratum", pencil, support),
                         lambda: stratum_restrict(pencil, support))
        x = tuple(x[k] for k in support)
        lattice = _lattice(pencil, x)
        if _member(pencil, x, lattice) != rec.member:
            rec.fail("membership disagrees with its support stratum")
            return rec
    scale, _, X = lattice
    diffs = [v - X[0] for v in X]
    g = math.gcd(scale, *diffs)
    key = ("class", pencil, rec.member, scale // g, tuple(v // g for v in diffs))
    first = _cached(cache, key, lambda: _class_record(cache, pencil, x, lattice, rec.member))
    rec.sout, rec.sin, rec.psd = first.sout, first.sin, first.psd
    for message in first.failures:
        rec.fail(message)
    return rec


def _class_record(cache: dict, pencil: TropicalPencil, x, lattice, member: bool):
    """The lift verdicts and failures at the finite point x of the pencil,
    member its verdict: what every translate x + lambda * 1 shares."""
    rec = ValidationRecord(x=x, member=member)
    # the one evaluation of the pencil at x; every verdict below reads it
    a, pairs, blocks = _lift_at(cache, pencil, x, lattice)
    rec.sout, rec.sin = _minor_conditions(a, pairs)

    if not member:
        rec.psd = _psd_verdict(a, rec.sout, blocks)
        if rec.sout:
            rec.fail("non-member point satisfies the outer minor inequalities")
        if rec.psd:
            rec.fail("non-member point lifts to a semidefinite matrix")
        if rec.sin:
            rec.fail("non-member point satisfies the inner minor inequalities")
        return rec

    if pencil.is_metzler:
        rec.psd = _psd_verdict(a, rec.sout, blocks)
        if not rec.sin:
            rec.fail("member point escapes the inner set of the canonical lift")
        if not rec.psd:
            rec.fail("member point lifts to a non-semidefinite matrix")
        if not rec.sout:
            rec.fail("member point escapes the outer set")

    for piece in _pieces(cache, pencil, x, lattice):
        if metzler_strict_member(piece, x):
            target = x
        else:
            eta, rho0 = perturb_to_interior(piece, x)
            target = tuple(v + rho0 * d for v, d in zip(x, eta))
        if piece is pencil and target is x:
            # a Metzler pencil is its own piece: same lift, same point, same matrix
            psd = rec.psd
        else:
            b, piece_pairs, piece_blocks = _lift_at(cache, piece, target)
            outer = _minor_conditions(b, piece_pairs)[0]
            psd = _psd_verdict(b, outer, piece_blocks)
        if not psd:
            rec.fail("strict point of a Metzler piece of its sigma lifts outside PSD")
    return rec


# -- tropicalized inequality systems ------------------------------------------


class SandwichVerdict(Enum):
    STRICT_IN = "StrictIn"
    WEAK_ONLY = "WeakOnly"
    OUT = "Out"


def valuation_sandwich_check(
    polys: Sequence[SeriesPolynomial], x: Sequence[Fraction]
) -> SandwichVerdict:
    """Classify a point against the tropicalized system of a series system.

    Strictly inside means every tropicalized inequality holds strictly; the
    monomial lift is then checked to satisfy the exact system, which is the
    half of the sandwich that single lifts can witness.  Outside means some
    weak inequality fails, so no lift exists at all.  Anything else is
    undetermined at this level.
    """
    trops: list[TropPoly] = [tropicalize(bp) for bp in polys]
    strict = True
    for tp in trops:
        plus = eval_part(tp, "+", x)
        minus = eval_part(tp, "-", x)
        if not plus >= minus:
            return SandwichVerdict.OUT
        if not plus > minus:
            strict = False
    if not strict:
        return SandwichVerdict.WEAK_ONLY
    bx = monomial_lift(x)
    for bp in polys:
        if sign_of(bp.evaluate(bx)) <= 0:
            raise CertificateCheckFailed(
                f"strict tropical point {format_point(tuple(x))} does not lift strictly"
            )
    return SandwichVerdict.STRICT_IN
