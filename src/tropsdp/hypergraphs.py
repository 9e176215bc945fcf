"""Tangent hypergraphs, circulations, and genericity certificates.

At a finite point x, every tight inequality of a Metzler pencil donates
directed hyperedges: a tight diagonal constraint links each maximizing
variable of its positive part (tail) to each maximizer of its negative
part (head); a tight pair constraint links the two maximizers of the
diagonal positive parts (tails, a multiset) to each maximizer of the
off-diagonal modulus (head).  A circulation is a nonnegative normalized
edge flow balancing tail-weighted inflow against multiplicity-counted
outflow at every vertex.  One phase-one LP over the circulation polytope
answers both ways: a circulation, or the Farkas direction of its duals,
which strictly improves every edge's constraint at once.

The genericity certificate decides whether any real point admits a
circulation: it enumerates inclusion-minimal candidate edge subsets that
circulate, and asks an exact LP whether some point realizes all their
defining ties simultaneously.  When no point does, every tangent
hypergraph is circulation-free and has a Farkas direction, which is what
perturb_to_interior returns.

The search rests on one lemma.  The balance matrix B has zero column
sums.  Let C be an inclusion-minimal circulating set with active set U
(its tails, which equal its heads).  Its circulation is positive and the
kernel of B_C is one-dimensional, so |C| = rank + 1 <= |U|; every vertex
of U heads an edge of C, so |C| = |U| and the heads are distinct.  Hence
only sets of at most n edges with distinct heads covering their tails are
candidates.  C is a circuit of B, so every proper subset of C has
independent columns (Rockafellar, "The elementary vectors of a subspace of
R^N", 1969).  The search drops a prefix once a fraction-free echelon finds
its columns dependent; a full set whose last column then reduces to zero
has a kernel line, a minimal circulation iff its spanning vector has one sign.

One search, on the full support, decides every stratum.  Let x in R^S
circulate for the pencil restricted to the variables S, and set every
coordinate outside S to min(x) - (max v - min v) - 1, v ranging over the
pencil's finite values.  Every family with a member in S keeps its maximum
and its maximizers, since the members outside S lie strictly below; so
every constraint tight at x, both sides finite, stays tight with the same
edges, and the constraints whose families lie wholly outside S can only
add edges.  The circulation, padded with zeros, circulates at the extended
point on the full pencil, in the same (sigma, diamond) piece.  This is
why certify_generic_general searches once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import CertificateCheckFailed, CirculationExists, DimensionTooLarge
from .lp import _scaled, difference_feasible, feasible_point, solve_nonneg
from .pencils import (
    SigmaChoice,
    TropicalPencil,
    _lattice,
    _require_metzler,
    _sides,
    check_assumption_nondeg,
    decompose,
    metzler_strict_member,
)
from .signed import _Value, _check_count, is_minus_inf

ZERO = Fraction(0)


class Edge(_Value):
    """Directed hyperedge: a sorted tail multiset of size 1 or 2 and a head."""

    __slots__ = ("tails", "head")

    def __init__(self, tails: tuple[int, ...], head: int):
        if len(tails) not in (1, 2):
            raise ValueError("an edge has one or two tails")
        if tuple(sorted(tails)) != tails:
            raise ValueError("tails must be sorted")
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "head", head)

    # written out, not read through _values: edges key the search's sets and dicts
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tails, self.head) == (other.tails, other.head)
        return NotImplemented

    def __hash__(self):
        return hash((self.tails, self.head))


class Hypergraph(_Value):
    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[Edge, ...]):
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)


class Circulation(_Value):
    """Normalized nonnegative flow indexed like the hypergraph's edges."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: tuple[Fraction, ...]):
        object.__setattr__(self, "gamma", gamma)


class Certificate(_Value):
    """No point's tangent hypergraph circulates: the pencil is generic."""

    __slots__ = ()


class Witness(_Value):
    """A point whose tangent hypergraph admits a circulation."""

    __slots__ = ("x", "edges", "gamma", "sigma", "diamond", "stratum")

    def __init__(self, x: tuple[Fraction, ...], edges: tuple[Edge, ...],
                 gamma: tuple[Fraction, ...], sigma: frozenset[tuple[int, int]],
                 diamond: tuple[tuple[tuple[int, int], str], ...], stratum: tuple[int, ...]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "diamond", diamond)
        object.__setattr__(self, "stratum", stratum)


def result_to_obj(res) -> dict:
    """Spec JSON for certification outcomes."""
    if isinstance(res, Certificate):
        return {"status": "generic"}
    return {
        "status": "witness",
        "sigma": [[i + 1, j + 1] for (i, j) in sorted(res.sigma)],
        "diamond": {f"{i + 1},{j + 1}": d for (i, j), d in res.diamond},
        "stratum": list(res.stratum),
        "x": [str(v) for v in res.x],
        "circulation": {str(i): str(g) for i, g in enumerate(res.gamma)},
    }


def _tangent(pencil: TropicalPencil, x: Sequence[Fraction]):
    """(edges, slack, member) at a finite point x of R^n: one _sides pass on
    one _lattice.

    edges are the hyperedges of the tight constraints, sorted; slack is the
    least positive gap below a family max or between a constraint's two
    sides, or None, also when no constraint is tight and nothing reads it;
    member is metzler_member's verdict.  Each family's terms are held to a
    top read from the same pass: a left family's own max and, on the right,
    rhs / len(left).  At a finite point of a Metzler pencil every rhs is
    finite and no pair's parts tie, so a constraint fails exactly when its
    lhs is -inf or below its rhs.
    """
    _require_metzler(pencil)
    _check_count(pencil.n, x)
    if any(is_minus_inf(v) for v in x):
        raise ValueError("tangent hypergraph is defined at finite points only")
    lattice = scale, f, X = _lattice(pencil, x)
    sides = list(_sides(pencil, lattice))
    member = all(lhs is not None and lhs >= rhs for _, lhs, rhs, _ in sides)
    edges: set[Edge] = set()
    slacks = []
    tight = any(lhs == rhs for _, lhs, rhs, _ in sides)  # else no edge, and no slack is read
    for (_, left, right), lhs, rhs, _ in sides if tight else ():
        # every family's terms and top on the scale S; an empty left family's is None
        values = [[(k, c * f + X[k]) for k, c in fam] for fam in left + right]
        tops = [max((v for _, v in fam), default=None) for fam in values[:len(left)]]
        tops += [rhs // len(left)] * len(right)
        slacks += [t - v for fam, t in zip(values, tops) for _, v in fam if v < t]
        if lhs is not None and lhs > rhs:
            slacks.append(lhs - rhs)
        elif lhs == rhs:
            # the maximizers of each left family are tails, those of the right side heads
            args = [[k for k, v in fam if v == t] for fam, t in zip(values, tops)]
            heads = [l for arg in args[len(left):] for l in arg]
            edges.update(Edge(tuple(sorted(tails)), l)
                         for tails in itertools.product(*args[:len(left)]) for l in heads)
    ordered = tuple(sorted(edges, key=lambda e: (len(e.tails), e.tails, e.head)))
    slack = Fraction(min(slacks), scale) if slacks else None
    return ordered, slack, member


def build_tangent_hypergraph(pencil: TropicalPencil, x: Sequence[Fraction]) -> Hypergraph:
    """Edges of the tight constraints at a finite point of R^n."""
    return Hypergraph(pencil.n, _tangent(pencil, x)[0])


def _balance_rows(edges: Sequence[Edge], vertices) -> list[list[int]]:
    """The balance matrix B on the given vertices: per vertex, each edge's
    tail count if the vertex is its head, minus the tail slots it fills."""
    return [[len(e.tails) * (e.head == v) - e.tails.count(v) for e in edges] for v in vertices]


def _unbalanced(h: Hypergraph, gamma) -> int | None:
    """The least vertex whose inflow, tail count times gamma summed over the
    edges it heads, differs from its outflow, gamma summed over the tail
    slots it fills, or None: one exact pass over the edges with nonzero gamma."""
    balance = [0] * h.n_vertices
    for e, g in zip(h.edges, gamma):
        if g:
            balance[e.head] += len(e.tails) * g
            for v in e.tails:
                balance[v] -= g
    return next((v for v, b in enumerate(balance) if b), None)


def _circulation_solve(h: Hypergraph) -> tuple[Circulation | None, tuple[Fraction, ...] | None]:
    """(circulation, None) when the circulation polytope, B gamma = 0 with
    gamma >= 0 summing to 1, is nonempty, else (None, eta) with eta the
    Farkas direction of its phase-one duals: one solve, both answers
    re-checked.  An edgeless hypergraph has the zero direction."""
    if not h.edges:
        return None, tuple([ZERO] * h.n_vertices)
    rows = _balance_rows(h.edges, range(h.n_vertices)) + [[1] * len(h.edges)]
    sol, dual = solve_nonneg(rows, [0] * h.n_vertices + [1])
    if sol is not None:
        gamma = tuple(sol)
        if not all(g >= 0 for g in gamma) or sum(gamma) != 1:
            raise CertificateCheckFailed(f"circulation {gamma} is not a normalized flow")
        v = _unbalanced(h, _scaled(gamma)[1])
        if v is not None:
            raise CertificateCheckFailed(f"circulation {gamma} does not balance at {v}")
        return Circulation(gamma), None
    eta = tuple(dual[: h.n_vertices])
    for e in h.edges:
        if not sum(eta[v] for v in e.tails) > len(e.tails) * eta[e.head]:
            raise CertificateCheckFailed(f"direction {eta} is not strict on edge {e}")
    return None, eta


def find_circulation(h: Hypergraph) -> Circulation | None:
    """A normalized circulation if the polytope is nonempty, else None."""
    return _circulation_solve(h)[0]


def farkas_direction(h: Hypergraph) -> tuple[Fraction, ...] | None:
    """A vector with sum of tail values > tail-count times head value on
    every edge; exists exactly when no circulation does."""
    return _circulation_solve(h)[1]


# -- genericity certification -------------------------------------------------


class _Reason:
    """Linear system realizing one candidate edge: tie equality plus the
    inequalities keeping the named monomials maximal in their families.
    Each row is (int coefficients, int constant), the constant D times the
    real one for the pencil's D.  tags name the atoms donating it:
    (pair, option), or None for a diagonal constraint, which every piece
    has."""

    __slots__ = ("eqs", "ges", "tags")

    def __init__(self, eqs, ges, tag):
        self.eqs = eqs
        self.ges = ges
        self.tags = (tag,)


def _candidate_edges(pencil: TropicalPencil) -> dict[Edge, list[_Reason]]:
    """Candidate edges of the atoms of every (sigma, diamond) piece, each
    with its distinct reasons in order.

    The atoms are the m diagonal constraints and, per row pair (i, j), the
    options "sigma" (the pair constraint against the moduli of all finite
    off-diagonal entries), ">=" (the diagonal row pos(i,j) >= neg(i,j)) and
    "<=" (that row flipped).  On a Metzler pencil pos(i,j) is empty, so the
    atoms are the pencil's own constraints.  They come from the pencil's
    constraint table, whose int terms are D times the values, so each row
    keeps the int constant c of the real constraint with constant c / D.
    """
    n = pencil.n
    table = pencil._constraints
    cand: dict[Edge, dict[tuple, _Reason]] = {}

    def row(plus, const):
        coeffs = [0] * n
        for k, c in plus:
            coeffs[k] += c
        return tuple(coeffs), const

    def top(family, k_star, c_star):
        # c_star + x_k* >= c + x_k for every other member
        return [row(((k_star, 1), (k, -1)), c - c_star) for k, c in family if k != k_star]

    def push(edge, tie, eq, ges, tag):
        reasons = cand.setdefault(edge, {})
        key = ((row(eq, tie),), tuple(ges))
        r = reasons.get(key)
        if r is None:
            reasons[key] = _Reason(*key, tag)
        elif None not in r.tags and tag not in r.tags:
            r.tags += (tag,)

    def diagonal(pos, neg_, tag):
        for (k, ck), (l, cl) in itertools.product(pos, neg_):
            ges = top(pos, k, ck) + top(neg_, l, cl)
            push(Edge((k,), l), cl - ck, ((k, 1), (l, -1)), ges, tag)

    for key, left, right in table:  # rows first, then pairs
        if len(left) == 1:
            diagonal(*left, *right, None)
        else:
            diagonal(*right, (key, ">="))
            diagonal(*reversed(right), (key, "<="))
    for key, left, right in (c for c in table if len(c[1]) == 2):
        (pos_i, pos_j), fin = left, sorted(sum(right, ()))
        for (k1, c1), (k2, c2), (l, w) in itertools.product(pos_i, pos_j, fin):
            ges = top(pos_i, k1, c1) + top(pos_j, k2, c2) + top(fin, l, w)
            push(Edge(tuple(sorted((k1, k2))), l), 2 * w - c1 - c2,
                 ((k1, 1), (k2, 1), (l, -2)), ges, (key, "sigma"))
    return {edge: list(reasons.values()) for edge, reasons in cand.items()}


def _options(chosen) -> dict[tuple[int, int], str] | None:
    """A pair -> option map taking one donating atom per reason and no pair
    in two options, or None when the reasons belong to no common piece."""
    for tags in itertools.product(*(r.tags for r in chosen)):
        picked: dict[tuple[int, int], str] = {}
        for tag in tags:
            if tag is not None and picked.setdefault(*tag) != tag[1]:
                break
        else:
            return picked
    return None


def _tie_sum(chosen, gamma) -> int:
    # sum of gamma_e D c_e over the tie rows sum_tails x - |tails| x_head = c_e;
    # the left-hand sides cancel under a circulation, so nonzero: infeasible
    return sum(g * r.eqs[0][1] for g, r in zip(gamma, chosen))


def _reduced(col, comb, echelon):
    """col, and comb, the edge combination it stands for, reduced against echelon."""
    for v, p, w in echelon:
        f = col[p]
        if f:
            d = v[p]
            col = [d * a - f * b for a, b in zip(col, v)]
            comb = [d * a - f * b for a, b in zip(comb, w)]
    return col, comb


def _circulating_sets(edges: Sequence[Edge], size: int, columns, start=0, combo=(), tails=0,
                      heads=0, echelon=(), pending=None):
    """(combo, gamma): the minimal circulating sets of size edges, as index
    tuples in itertools.combinations order, each with its positive int
    circulation; columns[idx] is the balance column of edges[idx].  Heads
    are distinct, a prefix's tails and heads span at most size vertices,
    and the tails equal the heads at the last edge.  echelon holds the
    prefix's columns fraction-free reduced, each with its pivot row and
    int combination, but for the newest, pending, reduced only once a
    longer set needs it: zero, the prefix is dependent and the branch ends.
    At the last edge a zero column spans the set's kernel.
    """
    last = len(combo) + 1 == size
    for idx in range(start, len(edges)):
        e = edges[idx]
        t = tails | 1 << e.tails[0] | 1 << e.tails[-1]
        h = heads | 1 << e.head
        if h == heads or (t | h).bit_count() > size or last and t != h:
            continue
        if pending:
            col, comb = _reduced(*pending, echelon)
            if not any(col):
                return
            echelon += ((col, next(r for r, a in enumerate(col) if a), comb),)
            pending = None
        comb = [0] * size
        comb[len(combo)] = 1
        if not last:
            yield from _circulating_sets(edges, size, columns, idx + 1, combo + (idx,), t, h,
                                         echelon, (columns[idx], comb))
            continue
        col, comb = _reduced(columns[idx], comb, echelon)
        if not any(col) and (min(comb) > 0 or max(comb) < 0):
            yield combo + (idx,), tuple(abs(g) for g in comb)


def _circulating_point(pencil: TropicalPencil):
    """None when generic, else (x, pair -> option of the atoms used).

    One search over the union of the atoms of every piece: each reason of
    each candidate edge is decided, an edge is live while one of its
    reasons has a point, each inclusion-minimal circulating set of live
    edges is tried with every product of reasons from a common piece, and a
    product of two or more reasons whose tie sum is nonzero is skipped
    without an LP.  Every reason is a difference system with at most one
    pair tie, decided by difference_feasible's shortest paths; the simplex
    runs only for the products, the witness's point among them.  Both read
    the int rows.

    By the module's lemma a minimal circulating set has at most n edges,
    with distinct heads whose bitmask equals its tails' bitmask, and no
    dependent proper subset; _circulating_sets yields exactly these sets,
    and each one's circulation is re-checked.
    """
    n = pencil.n
    den = pencil._terms[0]
    cand = _candidate_edges(pencil)
    edges: list[Edge] = []
    reasons: list[list[_Reason]] = []  # the live reasons of each edge
    for edge in sorted(cand, key=lambda e: (len(e.tails), e.tails, e.head)):
        live = []
        for r in cand[edge]:
            verdict = difference_feasible(n, r.eqs, r.ges)
            if verdict is None:
                raise CertificateCheckFailed(f"difference_feasible declined reason {r.eqs, r.ges}")
            if verdict:
                live.append(r)
        if live:
            edges.append(edge)
            reasons.append(live)
    columns = list(zip(*_balance_rows(edges, range(n))))
    for size in range(1, min(n, len(edges)) + 1):
        for combo, gamma in _circulating_sets(edges, size, columns):
            graph = Hypergraph(n, tuple(edges[idx] for idx in combo))
            if not all(g > 0 for g in gamma) or _unbalanced(graph, gamma) is not None:
                raise CertificateCheckFailed(f"{gamma} is not a positive circulation of {graph}")
            for chosen in itertools.product(*(reasons[idx] for idx in combo)):
                if size > 1 and _tie_sum(chosen, gamma) or (options := _options(chosen)) is None:
                    continue
                # the simplex on the int rows: every constant is D times the
                # real one, so Bland's pivots are those of the real rows, at
                # D times the real point
                y = feasible_point(n, tuple(row for r in chosen for row in r.eqs),
                                   tuple(row for r in chosen for row in r.ges))
                if y is not None:
                    return tuple(v / den for v in y), options
                if size == 1:
                    # one reason's system is the filter's, which found it live
                    raise CertificateCheckFailed(
                        f"reason {chosen[0].eqs, chosen[0].ges} is live but has no point")
    return None


def certify_generic_general(
    pencil: TropicalPencil, max_m: int = 4, max_n: int = 4
) -> Certificate | Witness:
    """Certify every stratum of every Metzler (sigma, diamond) piece.

    One search over the full support decides every stratum, by the
    module's extension lemma: a circulating point x of a stratum extends
    to one of the full support, in the same piece, by setting each missing
    coordinate to min(x) - (max v - min v) - 1 over the pencil's finite
    values v, below every family maximum.  The search runs over the
    atoms of all 3^(m(m-1)/2) pieces together: whether an edge set
    circulates does not depend on the piece, and a reason product is
    tried only when its atoms are compatible, i.e. give no pair two
    options.  Every piece that completes a compatible choice has the
    chosen tight edges at the point found, so a witness names the piece
    from the options it picked, with every unpicked pair in sigma, and is
    re-checked on that piece's tangent hypergraph.  A Metzler pencil is
    its own single piece: its atoms are its constraints.  The witness's
    stratum is always every variable.
    """
    if pencil.m > max_m or pencil.n > max_n:
        raise DimensionTooLarge(f"m = {pencil.m}, n = {pencil.n} exceed bounds ({max_m}, {max_n})")
    res = _circulating_point(pencil)
    if res is not None:
        x, options = res
        diamond = {p: d for p, d in options.items() if d != "sigma"}
        sigma = set(itertools.combinations(range(pencil.m), 2)) - diamond.keys()
        choice = SigmaChoice.make(pencil.m, sigma, diamond)
        graph = build_tangent_hypergraph(decompose(pencil, choice), x)
        circ = find_circulation(graph)
        if circ is None:
            raise CertificateCheckFailed(f"the tangent hypergraph at witness {x} does not circulate")
        return Witness(x, graph.edges, circ.gamma, choice.sigma, choice.diamond,
                       tuple(range(pencil.n)))
    if check_assumption_nondeg(pencil):
        raise CertificateCheckFailed("a degenerate minor escaped the genericity search")
    return Certificate()


def perturb_to_interior(
    pencil: TropicalPencil, x: Sequence[Fraction], cache: dict | None = None
) -> tuple[tuple[Fraction, ...], Fraction]:
    """A direction and step bound moving a member point strictly inside.

    Returns (eta, rho0) with x + rho*eta strictly feasible for every
    rational 0 < rho <= rho0.  With no tangent edge x is strict, since at a
    finite point every kept rhs is finite and a tight constraint donates an
    edge, and the one _tangent pass gives (0, 1).  Else eta is the
    farkas_direction of the tangent hypergraph, nonzero as it is strict on
    an edge, and rho0, from the slack of the same pass, keeps every
    family's maximizer set fixed: each constraint is affine in rho on
    (0, rho0], so strictness at rho0 (checked with metzler_strict_member)
    propagates down to 0.

    A caller that perturbs many points may pass a dict for the length of
    its call: it keeps the farkas_direction of each tangent Hypergraph, so
    a repeated one solves its LP once.
    """
    edges, slack, member = _tangent(pencil, x)
    if not member:
        raise ValueError("point is not in the tropical spectrahedron")
    if not edges:
        return tuple([ZERO] * pencil.n), Fraction(1)
    cache = {} if cache is None else cache
    h = Hypergraph(pencil.n, edges)
    if h not in cache:
        cache[h] = farkas_direction(h)
    eta = cache[h]
    if eta is None:
        raise CirculationExists("tangent hypergraph at the point admits a circulation")
    rho0 = Fraction(1) if slack is None else slack / (8 * max(map(abs, eta)))
    if not metzler_strict_member(pencil, tuple(v + rho0 * d for v, d in zip(x, eta))):
        raise CertificateCheckFailed("perturbation failed its own strictness check")
    return eta, rho0
