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
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CertificateCheckFailed, NotCertified
from .hypergraphs import Certificate, _perturbed, certify_generic_general
from .pencils import (
    TropicalPencil,
    _holds,
    _lattice,
    _lift_table,
    _member,
    _require_metzler,
    _sides,
    _sigma_choices,
    decompose,
    format_point,
    grid_axis,
    slice_members,
    stratum_restrict,
)
from .polynomials import TropPoly, eval_part, tropicalize
from .puiseux import (
    PuiseuxPoly,
    PuiseuxSymMatrix,
    SeriesPolynomial,
    _eliminated,
    _lead_signs,
    _minor_conditions,
    _nonzero_pairs,
    _psd_verdict,
    add,
    is_psd,
    mul,
    sign_of,
    sval,
)
from .signed import MINUS_INF, ExtRat, _Value, _check_count, is_minus_inf


class PuiseuxPencil(_Value):
    """n symmetric series matrices, one per variable (homogeneous form)."""

    __slots__ = ("m", "n", "matrices")

    def __init__(self, m: int, n: int, matrices: tuple[PuiseuxSymMatrix, ...]):
        _check_count(n, matrices, "matrices")
        for mat in matrices:
            if mat.m != m:
                raise ValueError("matrix dimension mismatch")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrices", matrices)


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


def grid_points(n: int, lo, hi, step) -> list[tuple[Fraction, ...]]:
    """Lexicographically ordered rational grid over a box."""
    return list(itertools.product(grid_axis(n, lo, hi, step), repeat=n))


def default_grid(n: int) -> list[tuple[Fraction, ...]]:
    """Integer points of [-2, 2]^n plus half-integer midpoints."""
    return grid_points(n, -2, 2, Fraction(1, 2))


class ValidationRecord(_Value):
    """Outcome of all oracle checks at one grid point; mutable, so unhashable."""

    __slots__ = ("x", "member", "sout", "sin", "psd", "ok", "failures")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, x: tuple[ExtRat, ...], member: bool, sout: bool | None = None,
                 sin: bool | None = None, psd: bool | None = None, ok: bool = True,
                 failures: list[str] | None = None):
        self.x, self.member, self.sout, self.sin, self.psd, self.ok = x, member, sout, sin, psd, ok
        self.failures = [] if failures is None else failures

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def verdict(self) -> tuple:
        """Every field to_obj prints after x, and to_obj reads them only from
        here: records with equal verdicts print the same line tail."""
        return self.member, self.sout, self.sin, self.psd, self.ok, tuple(self.failures)

    def to_obj(self) -> dict:
        member, sout, sin, psd, ok, failures = self.verdict()
        obj = {
            "x": format_point(self.x),
            "member": member,
            "checks": {"sout": sout, "sin": sin, "psd": psd},
            "ok": ok,
        }
        if not ok:
            obj["failures"] = list(failures)
        return obj


def _summed(terms, f: int, X) -> tuple:
    """The nonzero terms (exponent, coefficient) of a _lift_table row at the
    point whose _lattice has f and X, summed by exponent, in decreasing
    order: () where every exponent's terms cancel."""
    acc = {}
    for k, e, c in terms:
        acc[e * f + X[k]] = acc.get(e * f + X[k], 0) + c
    return tuple(term for term in sorted(acc.items(), reverse=True) if term[1])


def _lift_at(pencil: TropicalPencil, lattice):
    """(a, pairs, blocks): a the entry rows of pencil._lift evaluated at t^x,
    x the finite point whose _lattice is lattice, pairs and blocks its
    compiled sparsity.

    a is taken after t -> t^S with (S, f, X) the lattice of
    pencils._lattice: every term is then a pair of ints.  The substitution
    keeps the order and commutes with add and mul, so every sign read is
    unchanged.  An entry is the sum of its table terms c * t^(e * f + X[k]),
    e on the table's lattice D = S / f, c never 0: the series
    evaluate_pencil would form, without its products, summed by exponent."""
    _, f, X = lattice
    table, pairs, blocks = pencil._lift
    rows = [[_ZERO] * pencil.m for _ in range(pencil.m)]
    for i, j, terms in table:
        rows[i][j] = rows[j][i] = PuiseuxPoly(_summed(terms, f, X))
    return rows, pairs, blocks


def _lift_verdicts(pencil: TropicalPencil, lattice, want_psd=True):
    """(outer, inner, psd) of the lift at the point of lattice, as _lift_at
    takes it: _minor_conditions of its rows and their PSD verdict.  Without
    want_psd a lift outside the inner set is not eliminated: psd is False,
    for a caller that drops it.

    Lead lemma: where the terms at an entry's top exponent do not cancel,
    its lead is that exponent and their coefficient sum, and a product of
    nonzero series has no cancellation.  So one int pass over the table
    reads each entry's lead, and the diagonal rows come first.  A diagonal
    entry whose top terms cancel is summed (_summed) for its true lead or
    0.  A negative diagonal lead fails its order-1 minor, and there
    _minor_conditions gives (False, False) and _psd_verdict False, so the
    pass returns at once.  Each pair is decided by _lead_signs, which reads
    the leads of the products _minor_conditions compares, and a failed pair
    or a zero diagonal entry beside a nonzero one returns at once too.
    Where the pass ends with no minor failed, three cases build the rows
    with _lift_at and take _minor_conditions and _psd_verdict on them:
    - an off-diagonal lead whose coefficients sum to 0;
    - a pair whose compared leads are equal, outer's or, while it holds,
      inner's;
    - outer without inner where PSD is wanted and a compiled block needs
      _block_psd (_eliminated: one of 3 or more indices).

    Metzler lemma: on a Metzler pencil's canonical lift, whose off-diagonal
    coefficients are all -1, no off-diagonal lead cancels.  A diagonal lead
    coefficient, m n p - q with p positive and q <= n - p negative terms at
    the top, is -q < 0 or at least n(m - 1) + 1.  So at a tied pair c_ii c_jj
    exceeds (m - 1)^2 n^2 >= (m - 1)^2 c_ij^2: the pass builds no rows and
    returns (member,) * 3, member the point's metzler_member verdict.

    Sandwich lemma: inner implies PSD.  For m <= 2 inner is outer, which is
    PSD there.  For m > 2 inner makes every row with a_ii = 0 zero; drop
    those.  Scaling the rest by the inverse square roots of their diagonal
    (real Puiseux series form a real closed field) gives a unit diagonal
    and m - 1 off-diagonal entries of modulus at most 1/(m-1) per row:
    diagonally dominant, hence PSD.  So only a lift outside the inner set
    is eliminated (_psd_verdict); one whose blocks have at most 2 indices
    is PSD iff outer.
    """
    _, f, X = lattice
    table, _, blocks = pencil._lift
    diagonal, scale = [None] * pencil.m, (pencil.m - 1) ** 2
    # exact: no off-diagonal lead cancelled and no outer test, nor inner one while it holds, tied
    inner, exact = True, True
    for i, j, terms in table:
        top = None
        for k, e, c in terms:  # the entry's lead (top, lead_c)
            v = e * f + X[k]
            if top is None or v > top:
                top, lead_c = v, c
            elif v == top:
                lead_c += c
        if i == j:
            if not lead_c:  # the top terms cancel: a lower lead, or none
                top, lead_c = (_summed(terms, f, X) or ((None, 0),))[0]
            if lead_c < 0:
                return False, False, False
            diagonal[i] = (top, lead_c) if lead_c else None
        elif not lead_c:
            exact = False
        elif diagonal[i] is None or diagonal[j] is None:
            return False, False, False
        else:
            outer, scaled = _lead_signs(diagonal[i], diagonal[j], (top, lead_c), scale, inner)
            if outer < 0:
                return False, False, False
            exact = exact and outer > 0 and scaled != 0
            inner = inner and scaled >= 0
    if exact and (inner or not want_psd or not _eliminated(blocks)):
        return True, inner, inner or want_psd
    a, pairs, blocks = _lift_at(pencil, lattice)
    outer, inner = _minor_conditions(a, pairs)
    return outer, inner, inner or (want_psd and _psd_verdict(a, outer, blocks))


def _pieces(cache: dict, pencil: TropicalPencil, lattice) -> tuple[TropicalPencil, ...]:
    """The Metzler pieces of the sigma whose every diamond piece contains the
    member point x whose _lattice is lattice, in enumeration order.

    A Metzler pencil is its own single piece.  Otherwise a piece contains x
    iff x meets its sigma pairs' constraints and both directions of every
    other pair, i.e. a tie: so sigma is the set of pairs whose constraint
    holds at x.  At a member point every other pair ties, so only its
    2^|diamond| pieces are built, cached for the call under (pencil, sigma)
    and each under itself, so an equal piece is the same object.

    Lattice lemma: decompose keeps every finite value of its pencil and adds
    none, so a piece's D (the lcm of its value denominators, _terms[0]) is
    its pencil's, and lattice is each piece's _lattice of x as well.
    """
    if pencil.is_metzler:
        return (pencil,)
    diamond = [key for (key, left, _), lhs, rhs, _ in _sides(pencil, lattice)
               if len(left) == 2 and not _holds(lhs, rhs)]
    sigma = frozenset(itertools.combinations(range(pencil.m), 2)).difference(diamond)
    if (pencil, sigma) not in cache:
        pieces = (decompose(pencil, c) for c in _sigma_choices(pencil.m, sigma))
        cache[pencil, sigma] = tuple(cache.setdefault(p, p) for p in pieces)
    return cache[pencil, sigma]


def _certify(pencil: TropicalPencil, max_m: int, max_n: int) -> None:
    result = certify_generic_general(pencil, max_m=max_m, max_n=max_n)
    if not isinstance(result, Certificate):
        raise NotCertified("pencil has a circulation witness; oracle out of scope")


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

    This is the driver for any grid and the only one that reads -inf
    coordinates; it is the per-point reference of _grid_lines and shares
    none of its classes.  It returns one record per grid point, duplicates
    included, in sorted lexicographic order of the grid.  Each point's
    membership is _member's verdict on its own _lattice, which its lift
    reads too.  A point with a -inf coordinate is validated on its
    support's sub-pencil, and its membership there must agree; the
    all--inf point is the zero matrix, trivially inside.
    """
    if not assume_certified:
        _certify(pencil, max_m, max_n)
    # pieces under (pencil, sigma); each piece and sub-pencil under itself,
    # so equal pencils share one object and compile once per call; and the
    # Farkas direction of each tangent Hypergraph met (_perturbed)
    cache: dict = {}
    records = []
    for x in map(tuple, sorted(grid)):
        _check_count(pencil.n, x)
        lattice = _lattice(pencil, x)
        member = _member(pencil, lattice)
        support = tuple(k for k, v in enumerate(lattice[2]) if v is not None)
        sub, y = pencil, x
        if 0 < len(support) < pencil.n:
            sub = stratum_restrict(pencil, support)
            sub = cache.setdefault(sub, sub)
            y = tuple(x[k] for k in support)
            lattice = _lattice(sub, y)
        if not support:
            # all coordinates -inf: the zero matrix, trivially inside
            rec = ValidationRecord(x, member, True, True, True)
            if not member:
                rec.fail("all--inf point must be a member")
        elif sub is not pencil and _member(sub, lattice) != member:
            rec = ValidationRecord(x, member)
            rec.fail("membership disagrees with its support stratum")
        else:
            rec = _class_record(cache, sub, y, lattice, member)
            rec.x = x
        records.append(rec)
    return records


def _grid_lines(
    pencil: TropicalPencil,
    lead: Sequence[ExtRat],
    axis: Sequence[Fraction],
    max_m: int,
    max_n: int,
) -> Iterator[tuple[list[str], int]]:
    """The one walk of the grid lead + axis^(n - len(lead)), axis finite and
    ascending, in lexicographic order; the pencil is certified first.

    Yields (lines, bad) per grid row, the row of the points
    (*lead, *head, b) for b in axis: lines has json.dumps(rec.to_obj()) and
    a newline for each of its cross_validate records, and bad counts the
    ones not ok.  A line is its row's start, its last coordinate's label
    and its class's tail.  A class's first point builds its _class_record,
    then drops it; a tail is rendered once per distinct
    ValidationRecord.verdict, and a class keeps its tail and ok flag.

    Lemma: a pencil is homogeneous, so its lift has
    A(x + lambda * 1) = t^lambda * A(x).  Each order-1 minor gains
    t^lambda, each order-2 minor and inner bound t^(2 lambda), and PSD is
    kept; both sides of each constraint gain len(left) * lambda, so sigma,
    the tangent edges and slack, the Farkas direction and rho0 are kept and
    the perturbed target moves by lambda * 1.  So _class_record's verdicts
    and failures are shared by the translates x + lambda * 1, while
    membership is read at every point.  On the grid's one lattice a point
    x has the ints X = S * x, and x' = x + lambda * 1 exactly when
    X' - X'_0 * 1 = X - X_0 * 1, with lambda = (X'_0 - X_0) / S.  So a class
    is keyed by member and X less X_0.  A fixed lead coordinate never
    moves: with a lead a point is its own class, and no entry is stored,
    as none would be read again.  The first point of a class in
    lexicographic order builds its record, so an exception is raised where
    cross_validate raises it.

    Membership comes a grid row at a time from slice_members on the last
    two free coordinates, one call per value of the leading ones (a single
    row when one coordinate is free), and every point reads the one
    _lattice of the grid's values: its scale may exceed a point's own, but
    every lift verdict is read after t -> t^S for some S > 0, so each class
    record is cross_validate's.
    """
    free = pencil.n - len(lead)
    _certify(pencil, max_m, max_n)
    scale, f, X = _lattice(pencil, (*lead, *axis))
    ints = X[len(lead):]
    last = tuple(range(pencil.n - min(free, 2), pencil.n))
    cache: dict = {}
    opening = '{"x": [' + "".join(json.dumps(v) + ", " for v in format_point(lead))
    classes: dict[tuple, tuple[str, bool]] = {}
    tails: dict[tuple, tuple[str, bool]] = {}
    labels = [json.dumps(v) for v in format_point(axis)]
    for prefix in itertools.product(range(len(axis)), repeat=free - len(last)):
        base = [*lead, *(axis[i] for i in prefix)] + [MINUS_INF] * len(last)
        heads = [(*prefix, a) for a in range(len(axis))] if len(last) == 2 else [prefix]
        for head, members in zip(heads, slice_members(pencil, base, last, axis)):
            start = (*lead, *(axis[i] for i in head))
            start_ints = (*X[:len(lead)], *(ints[i] for i in head))
            row = opening + "".join(labels[i] + ", " for i in head)
            # a point's ints less its first, b's own when the row has no start
            shape = tuple(v - start_ints[0] for v in start_ints)
            offsets = [B - start_ints[0] for B in ints] if start_ints else [0] * len(ints)
            lines, bad = [], 0
            for b, B, label, member, offset in zip(axis, ints, labels, members, offsets):
                key = member, shape, offset
                tail = classes.get(key)
                if tail is None:
                    lattice = scale, f, (*start_ints, B)
                    rec = _class_record(cache, pencil, (*start, b), lattice, member)
                    tail = tails.get(verdict := rec.verdict())
                    if tail is None:
                        # its line from the end of the x list, whose labels hold no "]"
                        line = json.dumps(rec.to_obj())
                        tail = tails[verdict] = line[line.index("]"):] + "\n", rec.ok
                    if not lead:
                        classes[key] = tail
                lines.append(row + label + tail[0])
                bad += not tail[1]
            yield lines, bad


def _class_record(cache: dict, pencil: TropicalPencil, x, lattice, member: bool):
    """The lift verdicts and failures at the finite point x of the pencil,
    member its verdict: what every translate x + lambda * 1 shares
    (_grid_lines' lemma).  The verdicts are _lift_verdicts', read from the
    leads of the lift's entries where they decide.  Each piece is perturbed
    at lattice (_pieces' lattice lemma), with cache, the caller's call
    cache, as _perturbed's Farkas map, and its lift read at the target."""
    rec = ValidationRecord(x=x, member=member)
    # the one evaluation of the pencil at x; every verdict below reads it. A
    # member point of a non-Metzler pencil prints no psd, so none is eliminated
    rec.sout, rec.sin, psd = _lift_verdicts(pencil, lattice, not member or pencil.is_metzler)

    if not member:
        rec.psd = psd
        if rec.sout:
            rec.fail("non-member point satisfies the outer minor inequalities")
        if rec.psd:
            rec.fail("non-member point lifts to a semidefinite matrix")
        if rec.sin:
            rec.fail("non-member point satisfies the inner minor inequalities")
        return rec

    if pencil.is_metzler:
        rec.psd = psd
        if not rec.sin:
            rec.fail("member point escapes the inner set of the canonical lift")
        if not rec.psd:
            rec.fail("member point lifts to a non-semidefinite matrix")
        if not rec.sout:
            rec.fail("member point escapes the outer set")

    for piece in _pieces(cache, pencil, lattice):
        at = _perturbed(piece, lattice, cache)[2]
        # a Metzler pencil is its own piece: same lift, same point, same matrix
        psd = rec.psd if piece is pencil and at is lattice else _lift_verdicts(piece, at)[2]
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
