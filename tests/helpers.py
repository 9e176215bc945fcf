"""Shared builders for pencil-level tests, and reference kernels: the
SignedTrop matrix loops behind is_metzler, the nondegeneracy check and the
series lifts, the dense Fraction simplex, the dict-based Puiseux add and mul, the per-point
slice raster, the per-constraint Fraction loops behind membership, tangent
edges and perturbation slacks, semidefiniteness from the Leibniz sum of
every principal minor, the oracle's per-point checks on Fraction-termed
lifts with the sweep over every (sigma, diamond) piece, and the
piece-by-piece genericity sweep."""

from __future__ import annotations

import itertools
import random
import runpy
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from typing import Sequence

from tropsdp import lp
from tropsdp.errors import CertificateCheckFailed, CirculationExists, DimensionTooLarge
from tropsdp.hypergraphs import (
    Certificate,
    Edge,
    Hypergraph,
    Witness,
    build_tangent_hypergraph,
    farkas_direction,
    find_circulation,
)
from tropsdp.oracle import (
    ValidationRecord,
    canonical_lift,
    entrywise_lift,
    evaluate_pencil,
    monomial_lift,
)
from tropsdp.pencils import (
    SigmaChoice,
    TropicalPencil,
    check_assumption_nondeg,
    decompose,
    enumerate_choices,
    general_member,
    metzler_member,
    stratum_restrict,
)
from tropsdp.puiseux import PuiseuxPoly, PuiseuxSymMatrix, compare, mul, sign_of
from tropsdp.signed import MINUS_INF, SignedTrop, TROP_MINUS_INF, is_minus_inf, parse_signed


def pencil_of(m: int, n: int, entries: dict) -> TropicalPencil:
    """Build a pencil from {(k, i, j): coeff} with 0-based indices, i <= j.

    Coefficients may be SignedTrop values or their textual encoding.
    """
    mats = [[[TROP_MINUS_INF] * m for _ in range(m)] for _ in range(n)]
    for (k, i, j), coeff in entries.items():
        if not isinstance(coeff, SignedTrop):
            coeff = parse_signed(coeff)
        mats[k][i][j] = coeff
        mats[k][j][i] = coeff
    return TropicalPencil.from_rows(m, n, mats)


def wide_denominator_pencil(digits: int) -> dict:
    """Pencil JSON of a 4 x 4 x 4 Metzler pencil from random.Random(3):
    every entry i <= j of every matrix, "+" on the diagonal and "-" off it,
    with value randint(-9, 9) / randrange(10**(digits - 1), 10**digits), so
    its lattice has thousands of bits."""
    rng = random.Random(3)
    matrices = []
    for k in range(4):
        entries = []
        for i, j in itertools.combinations_with_replacement(range(1, 5), 2):
            value = F(rng.randint(-9, 9), rng.randrange(10 ** (digits - 1), 10**digits))
            entries.append({"i": i, "j": j, "coeff": ("+" if i == j else "-") + str(value)})
        matrices.append({"k": k, "entries": entries})
    return {"m": 4, "n": 4, "homogeneous": True, "matrices": matrices}


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def pool_doc(cls: str, index: int) -> dict:
    """Pencil JSON of the benchmark's pool entry cls:index (corpus.pencil_doc),
    run by path, so that nothing is imported or compiled from perfbench."""
    return runpy.run_path(str(CORPUS))["pencil_doc"](cls, index)


#: Planted pencils (cls, index, mu) rich in member points: 405 and 702 of
#: the 729 points of their default grids are members.
PLANTED_RICH = [("N4x3p7", 1, 0), ("M4x3p7", 0, 2)]


def planted_doc(cls: str, index: int, mu) -> dict:
    """Pencil JSON of the planted pencil cls:index at margin mu: the pool
    entry with one positive diagonal term per row raised so that x* = 0 is
    inside.  With rng = random.Random(f"plant:{cls}:{index}"), row i in
    order draws k = rng.randrange(n) and r = F(rng.randint(0, 6),
    rng.randint(1, 7)), and its (k, i, i) coefficient becomes
    +(b_i + mu + r), b_i the largest absolute value of the modulus of any
    entry in row or column i of the pool entry; an earlier (k, i, i) entry
    is replaced."""
    doc, entries = _pool_entries(cls, index)
    rng = random.Random(f"plant:{cls}:{index}")
    raised = {}
    for i in range(doc["m"]):
        k = rng.randrange(doc["n"])
        r = F(rng.randint(0, 6), rng.randint(1, 7))
        b = max(abs(parse_signed(c).value) for (_, *ij), c in entries.items() if i in ij)
        raised[k, i, i] = f"+{b + F(mu) + r}"
    return _with_entries(doc, {**entries, **raised})


def planted_witness_doc(cls: str, index: int, length: int) -> dict:
    """Pencil JSON of the pool entry cls:index with a directed cycle of
    tight diagonal edges 0 -> 1 -> ... -> length - 1 -> 0 at x* = 0, so that
    it is not generic: with a = 1 + the largest absolute value in the entry,
    row r < length gets the (r, r, r) coefficient +a and the
    ((r + 1) mod length, r, r) coefficient -a, replacing earlier entries.
    Needs 2 <= length <= min(m, n)."""
    doc, entries = _pool_entries(cls, index)
    if not 2 <= length <= min(doc["m"], doc["n"]):
        raise ValueError(f"cycle length {length} outside 2..min(m, n)")
    a = 1 + max(abs(parse_signed(c).value) for c in entries.values())
    for r in range(length):
        entries[r, r, r] = f"+{a}"
        entries[(r + 1) % length, r, r] = f"-{a}"
    return _with_entries(doc, entries)


def _pool_entries(cls: str, index: int) -> tuple[dict, dict]:
    """The pool entry cls:index and its coefficients under 0-based (k, i, j)."""
    doc = pool_doc(cls, index)
    return doc, {(mat["k"], e["i"] - 1, e["j"] - 1): e["coeff"]
                 for mat in doc["matrices"] for e in mat["entries"]}


def _with_entries(doc: dict, entries: dict) -> dict:
    """doc with its matrices rebuilt from (k, i, j) -> coefficient, in key order."""
    matrices = [{"k": k, "entries": [{"i": i + 1, "j": j + 1, "coeff": c}
                                     for (k2, i, j), c in sorted(entries.items()) if k2 == k]}
                for k in sorted({key[0] for key in entries})]
    return {**doc, "matrices": matrices}


def random_pencil(
    rng: random.Random,
    max_m: int = 3,
    max_n: int = 3,
    metzler: bool = False,
    density: float = 0.7,
    value_pool: int = 2,
) -> TropicalPencil:
    """Random symmetric pencil; value_pool controls how often values collide."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    entries = {}
    for k in range(n):
        for i in range(m):
            for j in range(i, m):
                if rng.random() > density:
                    continue
                value = F(rng.randint(-4 * value_pool, 4 * value_pool), rng.randint(1, value_pool))
                if i == j:
                    sign = 1 if rng.random() < 0.7 else -1
                elif metzler:
                    sign = -1
                else:
                    sign = 1 if rng.random() < 0.5 else -1
                entries[(k, i, j)] = SignedTrop(sign, value)
    return pencil_of(m, n, entries)


def reference_is_metzler(pencil: TropicalPencil) -> bool:
    """is_metzler as a loop over the SignedTrop matrices."""
    return all(mat[i][j].sign <= 0 for mat in pencil.matrices
               for i in range(pencil.m) for j in range(pencil.m) if i != j)


def reference_nondeg(pencil: TropicalPencil) -> list[tuple[int, int, int]]:
    """check_assumption_nondeg as a loop over the SignedTrop matrices, in
    (k, i, j) order, comparing Fraction values."""
    bad = []
    for k, mat in enumerate(pencil.matrices):
        for i in range(pencil.m):
            for j in range(i + 1, pencil.m):
                if mat[i][i].sign == 1 and mat[j][j].sign == 1:
                    if mat[i][i].value + mat[j][j].value == 2 * mat[i][j].value:
                        bad.append((k, i, j))
    return bad


def reference_lift_entries(pencil: TropicalPencil, canonical: bool) -> list:
    """[k][i][j] entries of canonical_lift (canonical) or entrywise_lift, one
    monomial per SignedTrop entry: coefficient m*n (canonical) or 1 for a
    positive entry, -1 for a negative one, t to the Fraction value; 0 for -inf."""
    plus = pencil.m * pencil.n if canonical else 1
    return [[[PuiseuxPoly.zero() if not a.sign else
              PuiseuxPoly.monomial(plus if a.sign > 0 else -1, a.value) for a in row]
             for row in mat] for mat in pencil.matrices]


def reference_solve_nonneg(
    rows: Sequence[Sequence[F]], rhs: Sequence[F]
) -> tuple[list[F] | None, list[F] | None]:
    """Dense Fraction phase-one simplex with Bland's rule: the reference that
    tropsdp.lp.solve_nonneg must match exactly, choice for choice."""
    zero, one = F(0), F(1)
    m = len(rows)
    n = len(rows[0]) if m else 0
    flip = [one] * m
    tab = []
    for r in range(m):
        row = [F(v) for v in rows[r]] + [zero] * m + [F(rhs[r])]
        if row[-1] < 0:
            row = [-v for v in row]
            flip[r] = -one
        row[n + r] = one
        tab.append(row)
    width = n + m + 1
    # reduced-cost row for min(sum of artificials), basis = artificials
    obj = [-sum((tab[r][j] for r in range(m)), zero) for j in range(width)]
    for r in range(m):
        obj[n + r] += one
    basis = [n + r for r in range(m)]
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        assert leave >= 0, "phase one cannot be unbounded"
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for r in range(m):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [v - f * w for v, w in zip(tab[r], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[-1] == 0:
        x = [zero] * n
        for r, b in enumerate(basis):
            if b < n:
                x[b] = tab[r][-1]
        return x, None
    return None, [flip[r] * (one - obj[n + r]) for r in range(m)]


def reference_add(x: PuiseuxPoly, y: PuiseuxPoly) -> PuiseuxPoly:
    """Sum by re-canonicalizing the concatenated terms: the reference that
    tropsdp.puiseux.add must match term for term."""
    return PuiseuxPoly.from_terms(x.terms + y.terms)


def reference_mul(x: PuiseuxPoly, y: PuiseuxPoly) -> PuiseuxPoly:
    """Product by collecting every term pair in a dict, then sorting."""
    acc: dict[F, F] = {}
    for ex, cx in x.terms:
        for ey, cy in y.terms:
            acc[ex + ey] = acc.get(ex + ey, F(0)) + cx * cy
    return PuiseuxPoly(tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c != 0))


def reference_unbalanced(h: Hypergraph, gamma):
    """The least vertex whose inflow and outflow differ, each summed over all
    edges for that vertex alone, or None: the per-vertex check that
    hypergraphs._unbalanced replaces with one pass."""
    for v in range(h.n_vertices):
        inflow = sum(len(e.tails) * g for e, g in zip(h.edges, gamma) if e.head == v)
        outflow = sum(e.tails.count(v) * g for e, g in zip(h.edges, gamma))
        if inflow != outflow:
            return v
    return None


def reference_minor_conditions(a: PuiseuxSymMatrix) -> tuple[bool, bool]:
    """(outer, inner) of oracle._minor_conditions, testing every pair i < j:
    a_ii >= 0 and a_ii a_jj >= f a_ij^2, f = 1 outer and (m-1)^2 inner."""
    e = a.entries
    if any(sign_of(e[i][i]) < 0 for i in range(a.m)):
        return False, False
    scale = PuiseuxPoly(((0, (a.m - 1) ** 2),))
    inner = True
    for i, j in itertools.combinations(range(a.m), 2):
        lhs = mul(e[i][i], e[j][j])
        sq = mul(e[i][j], e[i][j])
        if compare(lhs, sq) < 0:
            return False, False
        inner = inner and compare(lhs, mul(scale, sq)) >= 0
    return True, inner


def _leibniz_minor(rows, idx) -> dict:
    # exponent -> coefficient of the sum of sign(perm) * prod rows[r][perm(r)]
    # over the permutations of idx that meet no zero entry, each product a
    # dict convolution shared by the permutations that agree on its rows
    total: dict = {}

    def walk(k, used, sign, prod):
        if k == len(idx):
            for ex, c in prod.items():
                total[ex] = total.get(ex, 0) + sign * c
            return
        for col in idx:
            if col not in used and rows[idx[k]][col]:
                nxt: dict = {}
                for ex, cx in prod.items():
                    for ey, cy in rows[idx[k]][col]:
                        nxt[ex + ey] = nxt.get(ex + ey, 0) + cx * cy
                flip = -1 if sum(u > col for u in used) % 2 else 1
                walk(k + 1, used + (col,), sign * flip, nxt)

    walk(0, (), 1, {0: 1})
    return total


def _int_if_whole(c: F):
    return c.numerator if c.denominator == 1 else c


def reference_is_psd(a: PuiseuxSymMatrix) -> bool:
    """True iff every principal minor of every order of the whole matrix,
    each its Leibniz sum, has a nonnegative leading coefficient: no blocks,
    no order-2 shortcut and none of tropsdp.puiseux's arithmetic.  Exponents
    are scaled to ints first (t -> t^D keeps the order).  A permutation
    through a zero entry adds nothing and is skipped, which keeps m <= 6,
    and sparse larger matrices such as polygon9's lifts, affordable."""
    d = lcm(*(F(ex).denominator for row in a.entries for p in row for ex, _ in p.terms))
    rows = [[tuple((int(ex * d), _int_if_whole(F(c))) for ex, c in p.terms) for p in row]
            for row in a.entries]
    for size in range(1, a.m + 1):
        for idx in itertools.combinations(range(a.m), size):
            total = _leibniz_minor(rows, idx)
            lead = max((ex for ex, c in total.items() if c), default=None)
            if lead is not None and total[lead] < 0:
                return False
    return True


def reference_slice_csv(
    pencil: TropicalPencil, homogeneous: bool, fixed: dict[int, F], lo: F, hi: F, step: F
) -> str:
    """The slice verb's CSV from one predicate call per grid point: the
    reference that tropsdp.pencils.slice_members and the verb must match."""
    n_coords = pencil.n if homogeneous else pencil.n - 1
    free = [k for k in range(n_coords) if k not in fixed]
    member = metzler_member if pencil.is_metzler else general_member
    axis = []
    v = lo
    while v <= hi:
        axis.append(v)
        v += step
    lines = ["x1,x2,member"]
    for a, b in itertools.product(axis, repeat=2):
        coords = [MINUS_INF] * n_coords
        for k, value in fixed.items():
            coords[k] = value
        coords[free[0]] = a
        coords[free[1]] = b
        point = tuple(coords) if homogeneous else (F(0), *coords)
        lines.append(f"{a},{b},{1 if member(pencil, point) else 0}")
    return "\n".join(lines) + "\n"


def reference_families(pencil: TropicalPencil) -> dict:
    """(i, j) -> (positive, negative, finite) families of (k, value) pairs
    over i <= j, values as Fractions, with no constraint dropped."""
    data = {}
    for i in range(pencil.m):
        for j in range(i, pencil.m):
            pos, neg_, fin = [], [], []
            for k in range(pencil.n):
                a = pencil.matrices[k][i][j]
                if a.sign:
                    (pos if a.sign == 1 else neg_).append((k, a.value))
                    fin.append((k, a.value))
            data[(i, j)] = (tuple(pos), tuple(neg_), tuple(fin))
    return data


def _family_max(family, x):
    best = MINUS_INF
    for k, v in family:
        if not is_minus_inf(x[k]) and best < v + x[k]:
            best = v + x[k]
    return best


def reference_general_member(pencil: TropicalPencil, x) -> bool:
    """general_member as one Fraction loop per constraint (metzler_member
    on a Metzler pencil)."""
    ij = reference_families(pencil)
    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if not _family_max(pos, x) >= _family_max(neg_, x):
            return False
    for i, j in itertools.combinations(range(pencil.m), 2):
        pos, neg_, _ = ij[(i, j)]
        plus, minus = _family_max(pos, x), _family_max(neg_, x)
        rhs = plus if plus >= minus else minus
        if is_minus_inf(rhs):
            continue
        lhs_i, lhs_j = _family_max(ij[(i, i)][0], x), _family_max(ij[(j, j)][0], x)
        ok = not is_minus_inf(lhs_i) and not is_minus_inf(lhs_j) and lhs_i + lhs_j >= 2 * rhs
        if not ok and plus != minus:
            return False
    return True


def reference_strict_member(pencil: TropicalPencil, x) -> bool:
    """metzler_strict_member as one Fraction loop per constraint."""
    ij = reference_families(pencil)
    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if neg_ and not _family_max(pos, x) > _family_max(neg_, x):
            return False
    for i, j in itertools.combinations(range(pencil.m), 2):
        fin = ij[(i, j)][2]
        if not fin:
            continue
        lhs_i, lhs_j = _family_max(ij[(i, i)][0], x), _family_max(ij[(j, j)][0], x)
        if is_minus_inf(lhs_i) or is_minus_inf(lhs_j) or not lhs_i + lhs_j > 2 * _family_max(fin, x):
            return False
    return True


def _argmax_family(family, x):
    best, arg = None, []
    for k, v in family:
        if best is None or v + x[k] > best:
            best, arg = v + x[k], [k]
        elif v + x[k] == best:
            arg.append(k)
    return arg, best


def reference_tangent_hypergraph(pencil: TropicalPencil, x) -> Hypergraph:
    """build_tangent_hypergraph as one Fraction loop per constraint."""
    ij = reference_families(pencil)
    edges = set()
    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if pos and neg_:
            (arg_p, top_p), (arg_n, top_n) = _argmax_family(pos, x), _argmax_family(neg_, x)
            if top_p == top_n:
                edges.update(Edge((k,), l) for k in arg_p for l in arg_n)
    for i, j in itertools.combinations(range(pencil.m), 2):
        pos_i, pos_j, fin = ij[(i, i)][0], ij[(j, j)][0], ij[(i, j)][2]
        if fin and pos_i and pos_j:
            (arg_i, top_i), (arg_j, top_j) = _argmax_family(pos_i, x), _argmax_family(pos_j, x)
            arg_h, top_h = _argmax_family(fin, x)
            if top_i + top_j == 2 * top_h:
                edges.update(Edge(tuple(sorted((k1, k2))), l)
                             for k1 in arg_i for k2 in arg_j for l in arg_h)
    return Hypergraph(pencil.n, tuple(sorted(edges, key=lambda e: (len(e.tails), e.tails, e.head))))


def reference_perturb(pencil: TropicalPencil, x) -> tuple[tuple[F, ...], F]:
    """(eta, rho0) of perturb_to_interior, with the slacks collected by one
    Fraction loop per constraint; no strictness re-check."""
    if not reference_general_member(pencil, x):
        raise ValueError("point is not in the tropical spectrahedron")
    eta = farkas_direction(reference_tangent_hypergraph(pencil, x))
    if eta is None:
        raise CirculationExists("tangent hypergraph at the point admits a circulation")
    ij = reference_families(pencil)
    slacks = []

    def family_slacks(family):
        _, top = _argmax_family(family, x)
        slacks.extend(top - (v + x[k]) for k, v in family if top > v + x[k])
        return top

    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if neg_:
            slacks.append(family_slacks(pos) - family_slacks(neg_))
    for i, j in itertools.combinations(range(pencil.m), 2):
        if ij[(i, j)][2]:
            lhs = family_slacks(ij[(i, i)][0]) + family_slacks(ij[(j, j)][0])
            slacks.append(lhs - 2 * family_slacks(ij[(i, j)][2]))
    slacks = [v for v in slacks if v > 0]
    spread = max((abs(v) for v in eta), default=F(0))
    return eta, F(1) if not slacks or spread == 0 else min(slacks) / (8 * spread)


def _reference_piece_table(pencil: TropicalPencil, max_choice_m: int):
    # pieces grouped by sigma, in enumeration order; a Metzler pencil is its
    # own single piece
    if pencil.is_metzler:
        pairs = frozenset(itertools.combinations(range(pencil.m), 2))
        return ((pairs, ((SigmaChoice(pencil.m, pairs, ()), pencil),)),)
    by_sigma: dict = {}
    for choice in enumerate_choices(pencil.m, max_m=max_choice_m):
        by_sigma.setdefault(choice.sigma, []).append((choice, decompose(pencil, choice)))
    return tuple(by_sigma.items())


def _reference_strict_pieces(pieces_by_sigma, x):
    # the first sigma whose every diamond piece contains x
    for sigma, pieces in pieces_by_sigma:
        if all(reference_general_member(piece, x) for _, piece in pieces):
            return sigma, pieces
    return None, []


def _fraction_lift(cache: dict, pencil: TropicalPencil):
    # memoized in the reference's own call-scoped dict
    key = "fraction lift", pencil
    if key not in cache:
        cache[key] = canonical_lift(pencil) if pencil.is_metzler else entrywise_lift(pencil)
    return cache[key]


def reference_validate_point(
    pencil: TropicalPencil, x, max_choice_m: int, cache: dict
) -> ValidationRecord:
    """One point of cross_validate, evaluated on the public Fraction-termed
    lifts at the monomial lift of x, with the Fraction loops' membership,
    strictness and perturbation, its sigma found by testing every piece of
    every sigma: the reference whose records and failure lists the
    integer-lattice oracle must match."""
    member = reference_general_member(pencil, x)
    rec = ValidationRecord(x=x, member=member)
    support = tuple(k for k, v in enumerate(x) if not is_minus_inf(v))
    if len(support) < pencil.n:
        if not support:
            rec.sout = rec.sin = rec.psd = True
            if not member:
                rec.fail("all--inf point must be a member")
            return rec
        sub = stratum_restrict(pencil, support)
        sub_x = tuple(x[k] for k in support)
        if reference_general_member(sub, sub_x) != member:
            rec.fail("membership disagrees with its support stratum")
            return rec
        inner = reference_validate_point(sub, sub_x, max_choice_m, cache)
        rec.sout, rec.sin, rec.psd = inner.sout, inner.sin, inner.psd
        if not inner.ok:
            rec.ok = False
            rec.failures = inner.failures
        return rec

    metz = pencil.is_metzler
    lift = _fraction_lift(cache, pencil)
    a = evaluate_pencil(lift, monomial_lift(x))
    rec.sout, rec.sin = reference_minor_conditions(a)

    if not member:
        rec.psd = reference_is_psd(a)
        if rec.sout:
            rec.fail("non-member point satisfies the outer minor inequalities")
        if rec.psd:
            rec.fail("non-member point lifts to a semidefinite matrix")
        if rec.sin:
            rec.fail("non-member point satisfies the inner minor inequalities")
        return rec

    if metz:
        rec.psd = reference_is_psd(a)
        if not rec.sin:
            rec.fail("member point escapes the inner set of the canonical lift")
        if not rec.psd:
            rec.fail("member point lifts to a non-semidefinite matrix")
        if not rec.sout:
            rec.fail("member point escapes the outer set")

    if ("pieces", pencil) not in cache:
        cache["pieces", pencil] = _reference_piece_table(pencil, max_choice_m)
    table = cache["pieces", pencil]
    sigma, pieces = _reference_strict_pieces(table, x)
    if sigma is None:
        rec.fail("no sigma piece family contains the member point")
        return rec
    for choice, piece in pieces:
        if reference_strict_member(piece, x):
            target = x
        else:
            eta, rho0 = reference_perturb(piece, x)
            target = tuple(v + rho0 * d for v, d in zip(x, eta))
            if not reference_strict_member(piece, target):
                rec.fail(f"perturbation not strict in piece sigma={sorted(choice.sigma)}")
                continue
        if piece is pencil and target is x:
            psd = rec.psd
        else:
            piece_lift = _fraction_lift(cache, piece)
            psd = reference_is_psd(evaluate_pencil(piece_lift, monomial_lift(target)))
        if not psd:
            rec.fail("strict point of a Metzler piece of its sigma lifts outside PSD")
    return rec


def _reference_candidate_edges(pencil: TropicalPencil) -> dict:
    # edge -> distinct (equality rows, inequality rows) realizing it, in the
    # order the constraints are met: diagonal rows, then pairs
    n, ij = pencil.n, reference_families(pencil)
    cand: dict = {}

    def row(coeffs, const):
        out = [0] * n
        for k, c in coeffs:
            out[k] += c
        return tuple(out), const

    def top(family, k_star, v_star):
        return [row(((k_star, 1), (k, -1)), v - v_star) for k, v in family if k != k_star]

    def push(edge, eq, ges):
        reasons = cand.setdefault(edge, [])
        if ((eq,), tuple(ges)) not in reasons:
            reasons.append(((eq,), tuple(ges)))

    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        for (k, vk), (l, vl) in itertools.product(pos, neg_):
            push(Edge((k,), l), row(((k, 1), (l, -1)), vl - vk), top(pos, k, vk) + top(neg_, l, vl))
    for i, j in itertools.combinations(range(pencil.m), 2):
        pos_i, pos_j, fin = ij[(i, i)][0], ij[(j, j)][0], ij[(i, j)][2]
        for (k1, v1), (k2, v2), (l, w) in itertools.product(pos_i, pos_j, fin):
            eq = row(((k1, 1), (k2, 1), (l, -2)), 2 * w - v1 - v2)
            ges = top(pos_i, k1, v1) + top(pos_j, k2, v2) + top(fin, l, w)
            push(Edge(tuple(sorted((k1, k2))), l), eq, ges)
    return cand


def _reference_core(piece: TropicalPencil, memo: dict | None):
    n = piece.n

    def feasible(eqs, ges):
        if memo is None:
            return lp.feasible_point(n, eqs, ges)
        if (n, eqs, ges) not in memo:
            memo[(n, eqs, ges)] = lp.feasible_point(n, eqs, ges)
        return memo[(n, eqs, ges)]

    cand = _reference_candidate_edges(piece)
    edges, reasons = [], []
    for edge in sorted(cand, key=lambda e: (len(e.tails), e.tails, e.head)):
        live = [(r, x) for r in cand[edge] for x in [feasible(*r)] if x is not None]
        if live:
            edges.append(edge)
            reasons.append(live)
    minimal: list[set] = []
    for size in range(1, min(n + 1, len(edges)) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            if any(ms < set(combo) for ms in minimal):
                continue
            if {t for i in combo for t in edges[i].tails} != {edges[i].head for i in combo}:
                continue
            if find_circulation(Hypergraph(n, tuple(edges[i] for i in combo))) is None:
                continue
            minimal.append(set(combo))
            for chosen in itertools.product(*(reasons[i] for i in combo)):
                if size == 1:
                    x = chosen[0][1]
                else:
                    eqs = tuple(row for (e, _), _ in chosen for row in e)
                    ges = tuple(row for (_, g), _ in chosen for row in g)
                    x = feasible(eqs, ges)
                if x is not None:
                    graph = build_tangent_hypergraph(piece, x)
                    circ = find_circulation(graph)
                    if circ is None:
                        raise CertificateCheckFailed(f"no circulation at witness {x}")
                    return tuple(x), graph, circ
    return None


def reference_certify_general(pencil: TropicalPencil, max_m: int = 4, max_n: int = 4):
    """certify_generic_general as a sweep: a full circulation search in every
    stratum of every (sigma, diamond) piece, larger sigma first, identical
    pieces searched once.  The reference the search over the union of the
    pieces' atoms must match verdict for verdict, and witness for witness
    on Metzler pencils."""
    if pencil.m > max_m or pencil.n > max_n:
        raise DimensionTooLarge(f"m = {pencil.m}, n = {pencil.n} exceed ({max_m}, {max_n})")
    if pencil.is_metzler:
        pairs = frozenset(itertools.combinations(range(pencil.m), 2))
        choices = [SigmaChoice(pencil.m, pairs, ())]
    else:
        choices = list(enumerate_choices(pencil.m, max_m=max(max_m, 5)))
    cache: dict = {}
    memo = None if pencil.is_metzler else {}
    for choice in choices:
        dec = decompose(pencil, choice)
        for size in range(pencil.n, 0, -1):
            for support in itertools.combinations(range(pencil.n), size):
                piece = stratum_restrict(dec, support)
                if piece.matrices not in cache:
                    cache[piece.matrices] = _reference_core(piece, memo)
                if cache[piece.matrices] is not None:
                    x, graph, circ = cache[piece.matrices]
                    return Witness(x, graph.edges, circ.gamma, choice.sigma, choice.diamond, support)
    if check_assumption_nondeg(pencil):
        raise CertificateCheckFailed("a degenerate minor escaped the genericity search")
    return Certificate()
