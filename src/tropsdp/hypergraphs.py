"""Tangent hypergraphs, circulations, and genericity certificates.

At a finite point x, every tight inequality of a Metzler pencil donates
directed hyperedges: a tight diagonal constraint links each maximizing
variable of its positive part (tail) to each maximizer of its negative
part (head); a tight pair constraint links the two maximizers of the
diagonal positive parts (tails, a multiset) to each maximizer of the
off-diagonal modulus (head).  A circulation is a nonnegative normalized
edge flow balancing tail-weighted inflow against multiplicity-counted
outflow at every vertex.

The genericity certificate decides whether any real point admits a
circulation: it enumerates inclusion-minimal candidate edge subsets that
circulate, and asks an exact LP whether some point realizes all their
defining ties simultaneously.  When no point does, every tangent
hypergraph is circulation-free; by LP duality each such hypergraph then
has a direction strictly improving all tight constraints at once, which
is what perturb_to_interior returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateCheckFailed, CirculationExists, DimensionTooLarge
from .lp import feasible_point, solve_nonneg
from .pencils import (
    SigmaChoice,
    TropicalPencil,
    check_assumption_nondeg,
    decompose,
    enumerate_choices,
    metzler_member,
    metzler_strict_member,
    stratum_restrict,
)
from .pencils import _require_metzler  # noqa: F401  (shared precondition check)
from .puiseux import PuiseuxPoly, PuiseuxSymMatrix
from .signed import is_minus_inf

ZERO = Fraction(0)


@dataclass(frozen=True)
class Edge:
    """Directed hyperedge: a sorted tail multiset of size 1 or 2 and a head."""

    tails: tuple[int, ...]
    head: int

    def __post_init__(self):
        if len(self.tails) not in (1, 2):
            raise ValueError("an edge has one or two tails")
        if tuple(sorted(self.tails)) != self.tails:
            raise ValueError("tails must be sorted")


@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class Circulation:
    """Normalized nonnegative flow indexed like the hypergraph's edges."""

    gamma: tuple[Fraction, ...]


@dataclass(frozen=True)
class Certificate:
    """No point's tangent hypergraph circulates: the pencil is generic."""


@dataclass(frozen=True)
class Witness:
    """A point whose tangent hypergraph admits a circulation."""

    x: tuple[Fraction, ...]
    edges: tuple[Edge, ...]
    gamma: tuple[Fraction, ...]
    sigma: frozenset[tuple[int, int]] | None = None
    diamond: tuple[tuple[tuple[int, int], str], ...] | None = None
    stratum: tuple[int, ...] | None = None


def result_to_obj(res) -> dict:
    """Spec JSON for certification outcomes."""
    if isinstance(res, Certificate):
        return {"status": "generic"}
    return {
        "status": "witness",
        "sigma": [[i + 1, j + 1] for (i, j) in sorted(res.sigma or ())],
        "diamond": {f"{i + 1},{j + 1}": d for (i, j), d in (res.diamond or ())},
        "stratum": list(res.stratum or ()),
        "x": [str(v) for v in res.x],
        "circulation": {str(i): str(g) for i, g in enumerate(res.gamma)},
    }


def _argmax_family(family, x) -> tuple[list[int], Fraction]:
    best = None
    arg: list[int] = []
    for k, v in family:
        val = v + x[k]
        if best is None or val > best:
            best = val
            arg = [k]
        elif val == best:
            arg.append(k)
    return arg, best


def build_tangent_hypergraph(pencil: TropicalPencil, x: Sequence[Fraction]) -> Hypergraph:
    """Edges of the tight constraints at a finite point of R^n."""
    _require_metzler(pencil)
    if len(x) != pencil.n:
        raise ValueError(f"expected {pencil.n} coordinates, got {len(x)}")
    if any(is_minus_inf(v) for v in x):
        raise ValueError("tangent hypergraph is defined at finite points only")
    ij = pencil._ij
    edges: set[Edge] = set()
    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if not pos or not neg_:
            continue
        arg_p, top_p = _argmax_family(pos, x)
        arg_n, top_n = _argmax_family(neg_, x)
        if top_p == top_n:
            for k in arg_p:
                for l in arg_n:
                    edges.add(Edge((k,), l))
    for i in range(pencil.m):
        for j in range(i + 1, pencil.m):
            _, _, fin = ij[(i, j)]
            if not fin:
                continue
            pos_i = ij[(i, i)][0]
            pos_j = ij[(j, j)][0]
            if not pos_i or not pos_j:
                continue
            arg_i, top_i = _argmax_family(pos_i, x)
            arg_j, top_j = _argmax_family(pos_j, x)
            arg_h, top_h = _argmax_family(fin, x)
            if top_i + top_j == 2 * top_h:
                for k1 in arg_i:
                    for k2 in arg_j:
                        for l in arg_h:
                            edges.add(Edge(tuple(sorted((k1, k2))), l))
    ordered = tuple(sorted(edges, key=lambda e: (len(e.tails), e.tails, e.head)))
    return Hypergraph(pencil.n, ordered)


def _circulation_solve(h: Hypergraph):
    # rows: flow balance per vertex, then normalization; columns: edges
    n_e = len(h.edges)
    rows = []
    rhs = []
    for v in range(h.n_vertices):
        row = [0] * n_e
        for idx, e in enumerate(h.edges):
            c = 0
            if e.head == v:
                c += len(e.tails)
            c -= e.tails.count(v)
            row[idx] = c
        rows.append(row)
        rhs.append(0)
    rows.append([1] * n_e)
    rhs.append(1)
    return solve_nonneg(rows, rhs)


def find_circulation(h: Hypergraph) -> Circulation | None:
    """A normalized circulation if the polytope is nonempty, else None."""
    if not h.edges:
        return None
    sol, _ = _circulation_solve(h)
    if sol is None:
        return None
    gamma = tuple(sol)
    if not all(g >= 0 for g in gamma) or sum(gamma) != 1:
        raise CertificateCheckFailed(f"circulation {gamma} is not a normalized flow")
    for v in range(h.n_vertices):
        inflow = sum(len(e.tails) * g for e, g in zip(h.edges, gamma) if e.head == v)
        outflow = sum(e.tails.count(v) * g for e, g in zip(h.edges, gamma))
        if inflow != outflow:
            raise CertificateCheckFailed(f"circulation {gamma} does not balance at {v}")
    return Circulation(gamma)


def farkas_direction(h: Hypergraph) -> tuple[Fraction, ...] | None:
    """A vector with sum of tail values > tail-count times head value on
    every edge; exists exactly when no circulation does."""
    if not h.edges:
        return tuple([ZERO] * h.n_vertices)
    sol, dual = _circulation_solve(h)
    if sol is not None:
        return None
    eta = tuple(dual[: h.n_vertices])
    for e in h.edges:
        if not sum(eta[v] for v in e.tails) > len(e.tails) * eta[e.head]:
            raise CertificateCheckFailed(f"direction {eta} is not strict on edge {e}")
    return eta


def lift_matrices(pencil: TropicalPencil, canonical: bool, term) -> tuple[PuiseuxSymMatrix, ...]:
    """Entry-wise series lift, each finite entry a -> term(coefficient, a.value).

    The coefficient is -1 for negative entries and, for positive ones, m*n
    under the canonical lift, 1 otherwise (the plain sign); -inf becomes 0.
    """
    factor = pencil.m * pencil.n if canonical else 1
    zero = PuiseuxPoly.zero()
    return tuple(
        PuiseuxSymMatrix(tuple(
            tuple(zero if not a.sign else term(factor if a.sign > 0 else -1, a.value) for a in row)
            for row in mat
        ))
        for mat in pencil.matrices
    )


def canonical_lift(pencil: TropicalPencil) -> tuple[PuiseuxSymMatrix, ...]:
    """The entry-wise series lift whose spectrahedron tropicalizes exactly.

    Negative entries become -t^value, positive (diagonal) entries become
    m*n*t^value, -inf becomes 0.  The m*n factor makes plain monomial
    points of the tropical set land inside the inner minor relaxation.
    """
    _require_metzler(pencil)
    return lift_matrices(pencil, True, PuiseuxPoly.monomial)


# -- genericity certification -------------------------------------------------


class _Reason:
    """Linear system realizing one candidate edge: tie equality plus the
    inequalities keeping the named monomials maximal in their families."""

    __slots__ = ("eqs", "ges")

    def __init__(self, eqs, ges):
        self.eqs = tuple(eqs)
        self.ges = tuple(ges)


def _row(n: int, plus: dict[int, int], const: Fraction):
    coeffs = [0] * n
    for k, c in plus.items():
        coeffs[k] += c
    return tuple(coeffs), const


def _maximality_rows(n, family, k_star, v_star):
    rows = []
    for k, v in family:
        if k == k_star:
            continue
        # v_star + x_k* >= v + x_k
        rows.append(_row(n, {k_star: 1, k: -1}, v - v_star))
    return rows


def _candidate_edges(pencil: TropicalPencil) -> dict[Edge, list[_Reason]]:
    n = pencil.n
    ij = pencil._ij
    cand: dict[Edge, list[_Reason]] = {}

    def push(edge, reason):
        cand.setdefault(edge, []).append(reason)

    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        for k, vk in pos:
            for l, vl in neg_:
                eq = [_row(n, {k: 1, l: -1}, vl - vk)]
                ges = _maximality_rows(n, pos, k, vk) + _maximality_rows(n, neg_, l, vl)
                push(Edge((k,), l), _Reason(eq, ges))
    for i in range(pencil.m):
        for j in range(i + 1, pencil.m):
            _, _, fin = ij[(i, j)]
            if not fin:
                continue
            pos_i = ij[(i, i)][0]
            pos_j = ij[(j, j)][0]
            for (k1, v1), (k2, v2) in itertools.product(pos_i, pos_j):
                for l, w in fin:
                    coeffs: dict[int, int] = {}
                    for k, c in ((k1, 1), (k2, 1), (l, -2)):
                        coeffs[k] = coeffs.get(k, 0) + c
                    eq = [_row(n, coeffs, 2 * w - v1 - v2)]
                    ges = (
                        _maximality_rows(n, pos_i, k1, v1)
                        + _maximality_rows(n, pos_j, k2, v2)
                        + _maximality_rows(n, fin, l, w)
                    )
                    push(Edge(tuple(sorted((k1, k2))), l), _Reason(eq, ges))
    return cand


def _dedupe_reasons(reasons: list[_Reason]) -> list[_Reason]:
    seen = set()
    out = []
    for r in reasons:
        key = (r.eqs, r.ges)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _feasible(memo: dict | None, n: int, eqs: tuple, ges: tuple):
    # feasible_point on the exact rows, so a repeated system gets the same x;
    # without a memo (one Metzler piece: systems hardly repeat) it just solves
    if memo is None:
        return feasible_point(n, eqs, ges)
    key = (n, eqs, ges)
    if key not in memo:
        memo[key] = feasible_point(n, eqs, ges)
    return memo[key]


def _contains_any(mask: int, masks: set[int]) -> bool:
    # walk the proper nonempty submasks of mask: 2^|mask| - 2 set lookups
    sub = (mask - 1) & mask
    while sub:
        if sub in masks:
            return True
        sub = (sub - 1) & mask
    return False


def _certify_metzler_core(pencil: TropicalPencil, memo: dict | None):
    """None when generic, else (x, tangent hypergraph, circulation).

    memo, if given, maps (n, equality rows, inequality rows) to
    feasible_point's answer; the caller scopes it to one certification.
    """
    n = pencil.n
    cand = _candidate_edges(pencil)
    edges: list[Edge] = []
    reasons: list[list[tuple[_Reason, list]]] = []  # live reasons, each with its point
    for edge in sorted(cand, key=lambda e: (len(e.tails), e.tails, e.head)):
        live = []
        for r in _dedupe_reasons(cand[edge]):
            x = _feasible(memo, n, r.eqs, r.ges)
            if x is not None:
                live.append((r, x))
        if live:
            edges.append(edge)
            reasons.append(live)
    minimal: set[int] = set()  # circulating edge subsets, as bitmasks
    for size in range(1, min(n + 1, len(edges)) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            mask = sum(1 << idx for idx in combo)
            if minimal and _contains_any(mask, minimal):
                continue
            tails = set()
            heads = set()
            for idx in combo:
                tails.update(edges[idx].tails)
                heads.add(edges[idx].head)
            if tails != heads:
                # a strictly positive circulation forces equal activity sets
                continue
            sub = Hypergraph(n, tuple(edges[idx] for idx in combo))
            if find_circulation(sub) is None:
                continue
            minimal.add(mask)
            for chosen in itertools.product(*(reasons[idx] for idx in combo)):
                if size == 1:
                    # one reason's system is the filter's: reuse its point
                    x = chosen[0][1]
                else:
                    eqs = tuple(row for r, _ in chosen for row in r.eqs)
                    ges = tuple(row for r, _ in chosen for row in r.ges)
                    x = _feasible(memo, n, eqs, ges)
                if x is not None:
                    graph = build_tangent_hypergraph(pencil, x)
                    circ = find_circulation(graph)
                    if circ is None:
                        raise CertificateCheckFailed(
                            f"the tangent hypergraph at witness {x} does not circulate"
                        )
                    return tuple(x), graph, circ
    return None


def certify_generic_metzler(
    pencil: TropicalPencil, max_m: int = 4, max_n: int = 4
) -> Certificate | Witness:
    """Decide whether some real point's tangent hypergraph circulates.

    A Certificate implies the nondegeneracy assumption and regularity of
    the real part of the tropical spectrahedron; a Witness carries the
    point and a valid circulation of its tangent hypergraph.
    """
    _require_metzler(pencil)
    if pencil.m > max_m or pencil.n > max_n:
        raise DimensionTooLarge(
            f"m = {pencil.m}, n = {pencil.n} exceed bounds ({max_m}, {max_n})"
        )
    res = _certify_metzler_core(pencil, None)
    if res is None:
        return Certificate()
    x, graph, circ = res
    return Witness(x=x, edges=graph.edges, gamma=circ.gamma)


def _strata(n: int):
    for size in range(n, 0, -1):
        yield from itertools.combinations(range(n), size)


def _identity_choice(m: int) -> SigmaChoice:
    pairs = frozenset((i, j) for i in range(m) for j in range(i + 1, m))
    return SigmaChoice(m, pairs, ())


def certify_generic_general(
    pencil: TropicalPencil, max_m: int = 4, max_n: int = 4
) -> Certificate | Witness:
    """Certify every stratum of every Metzler piece of the pencil.

    Metzler pencils skip the (sigma, diamond) sweep: their spectrahedron
    is its own single piece and regularity of its strata is exactly what
    the per-stratum circulation search decides.  Non-Metzler pencils sweep
    all pieces; identical pieces (common when off-diagonals are -inf) are
    certified once.
    """
    if pencil.m > max_m or pencil.n > max_n:
        raise DimensionTooLarge(
            f"m = {pencil.m}, n = {pencil.n} exceed bounds ({max_m}, {max_n})"
        )
    if pencil.is_metzler:
        choices = [_identity_choice(pencil.m)]
    else:
        choices = list(enumerate_choices(pencil.m, max_m=max(max_m, 5)))
    # keyed by the matrices, not the piece, so no piece's cached index
    # outlives its certification
    cache: dict[tuple, object] = {}
    memo = None if pencil.is_metzler else {}
    for choice in choices:
        dec = decompose(pencil, choice)
        for support in _strata(pencil.n):
            piece = stratum_restrict(dec, support)
            res = cache.get(piece.matrices, cache)  # cache itself marks a miss
            if res is cache:
                res = cache[piece.matrices] = _certify_metzler_core(piece, memo)
            if res is not None:
                x, graph, circ = res
                return Witness(
                    x=x,
                    edges=graph.edges,
                    gamma=circ.gamma,
                    sigma=choice.sigma,
                    diamond=choice.diamond,
                    stratum=support,
                )
    if check_assumption_nondeg(pencil):
        raise CertificateCheckFailed("a degenerate minor escaped the genericity search")
    return Certificate()


def perturb_to_interior(
    pencil: TropicalPencil, x: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], Fraction]:
    """A direction and step bound moving a member point strictly inside.

    Returns (eta, rho0) with x + rho*eta strictly feasible for every
    rational 0 < rho <= rho0.  rho0 keeps every family's maximizer set
    fixed, so each constraint is affine in rho on (0, rho0] and strictness
    at rho0 (checked) propagates down to 0.
    """
    _require_metzler(pencil)
    if not metzler_member(pencil, x):
        raise ValueError("point is not in the tropical spectrahedron")
    eta = farkas_direction(build_tangent_hypergraph(pencil, x))
    if eta is None:
        raise CirculationExists("tangent hypergraph at the point admits a circulation")

    slacks: list[Fraction] = []
    ij = pencil._ij

    def family_slacks(family):
        _, top = _argmax_family(family, x)
        for k, v in family:
            gap = top - (v + x[k])
            if gap > 0:
                slacks.append(gap)
        return top

    for i in range(pencil.m):
        pos, neg_, _ = ij[(i, i)]
        if not neg_:
            continue
        lhs = family_slacks(pos)
        rhs = family_slacks(neg_)
        if lhs - rhs > 0:
            slacks.append(lhs - rhs)
    for i in range(pencil.m):
        for j in range(i + 1, pencil.m):
            _, _, fin = ij[(i, j)]
            if not fin:
                continue
            lhs = family_slacks(ij[(i, i)][0]) + family_slacks(ij[(j, j)][0])
            rhs = 2 * family_slacks(fin)
            if lhs - rhs > 0:
                slacks.append(lhs - rhs)

    spread = max((abs(v) for v in eta), default=ZERO)
    if not slacks or spread == 0:
        rho0 = Fraction(1)
    else:
        rho0 = min(slacks) / (8 * spread)
    x2 = tuple(v + rho0 * d for v, d in zip(x, eta))
    if not metzler_strict_member(pencil, x2):
        raise CertificateCheckFailed("perturbation failed its own strictness check")
    return eta, rho0
