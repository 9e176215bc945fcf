"""Shared builders for pencil-level tests, and reference kernels: the dense
Fraction simplex, the dict-based Puiseux add and mul, the per-point
slice raster, the oracle's per-point checks on Fraction-termed lifts, and
the piece-by-piece genericity sweep."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from typing import Sequence

from tropsdp import lp
from tropsdp.errors import CertificateCheckFailed, DimensionTooLarge
from tropsdp.hypergraphs import (
    Certificate,
    Edge,
    Hypergraph,
    Witness,
    build_tangent_hypergraph,
    find_circulation,
    perturb_to_interior,
)
from tropsdp.oracle import (
    ValidationRecord,
    _cached,
    _minor_conditions,
    _piece_table,
    _strict_pieces,
    canonical_lift_pencil,
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
    metzler_strict_member,
    stratum_restrict,
)
from tropsdp.puiseux import PuiseuxPoly, is_psd
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


def _fraction_lift(pencil: TropicalPencil):
    return canonical_lift_pencil(pencil) if pencil.is_metzler else entrywise_lift(pencil)


def reference_validate_point(
    pencil: TropicalPencil, x, psd_dim_bound: int, max_choice_m: int, cache: dict
) -> ValidationRecord:
    """One point of cross_validate, evaluated on the public Fraction-termed
    lifts at the monomial lift of x: the reference whose records and
    failure lists the integer-lattice oracle must match."""
    member = general_member(pencil, x)
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
        if general_member(sub, sub_x) != member:
            rec.fail("membership disagrees with its support stratum")
            return rec
        inner = reference_validate_point(sub, sub_x, psd_dim_bound, max_choice_m, cache)
        rec.sout, rec.sin, rec.psd = inner.sout, inner.sin, inner.psd
        if not inner.ok:
            rec.ok = False
            rec.failures = inner.failures
        return rec

    metz = pencil.is_metzler
    lift = _cached(cache, ("fraction lift", pencil), lambda: _fraction_lift(pencil))
    a = evaluate_pencil(lift, monomial_lift(x))
    rec.sout, rec.sin = _minor_conditions(a)

    if not member:
        rec.psd = is_psd(a, max_dim=psd_dim_bound)
        if rec.sout:
            rec.fail("non-member point satisfies the outer minor inequalities")
        if rec.psd:
            rec.fail("non-member point lifts to a semidefinite matrix")
        if rec.sin:
            rec.fail("non-member point satisfies the inner minor inequalities")
        return rec

    if metz:
        rec.psd = is_psd(a, max_dim=psd_dim_bound)
        if not rec.sin:
            rec.fail("member point escapes the inner set of the canonical lift")
        if not rec.psd:
            rec.fail("member point lifts to a non-semidefinite matrix")
        if not rec.sout:
            rec.fail("member point escapes the outer set")

    table = _cached(cache, ("pieces", pencil), lambda: _piece_table(pencil, max_choice_m))
    sigma, pieces = _strict_pieces(table, x)
    if sigma is None:
        rec.fail("no sigma piece family contains the member point")
        return rec
    for choice, piece in pieces:
        if metzler_strict_member(piece, x):
            target = x
        else:
            eta, rho0 = perturb_to_interior(piece, x)
            target = tuple(v + rho0 * d for v, d in zip(x, eta))
            if not metzler_strict_member(piece, target):
                rec.fail(f"perturbation not strict in piece sigma={sorted(choice.sigma)}")
                continue
        if piece is pencil and target is x:
            psd = rec.psd
        else:
            piece_lift = _cached(cache, ("fraction lift", piece), lambda: _fraction_lift(piece))
            psd = is_psd(evaluate_pencil(piece_lift, monomial_lift(target)), psd_dim_bound)
        if not psd:
            rec.fail(
                f"strict point of piece sigma={sorted(choice.sigma)} lifts outside PSD"
            )
    return rec


def _reference_candidate_edges(pencil: TropicalPencil) -> dict:
    # edge -> distinct (equality rows, inequality rows) realizing it, in the
    # order the constraints are met: diagonal rows, then pairs
    n, ij = pencil.n, pencil._ij
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
