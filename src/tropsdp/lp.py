"""Exact rational linear feasibility: phase-one simplex with Bland's rule,
by fraction-free integer pivoting.

Each tableau row is scaled to integers once, by the lcm of its
denominators.  Integer row R then stands for R / R[basis], and the basic
entry R[basis] stays positive.  A pivot on entry p of row P replaces every
other row R whose entering entry f is nonzero by p*R - f*P (both reduced by
gcd(p, f)), updating only P's nonzero columns after the scaling, and then
divides R by the gcd of its entries (Edmonds 1967; Bareiss 1968).  The
objective row carries its own positive denominator.  Ratios are compared by
cross-multiplying positive entries, so every entering and leaving choice,
and hence the answer, is the one the same simplex makes on Fractions.
Bland's rule guarantees termination.  Infeasibility comes with a Farkas
certificate extracted from the phase-one duals.

Difference systems, whose rows are each zero or s*(x_a - x_b), are also
decided without the simplex: such a system is feasible exactly when its
constraint graph has no negative cycle (Bellman 1958; Shostak 1981).

So is a difference system with one pair tie, an equality
s*(x_k1 + x_k2 - 2*x_l) = d with s = +-1 and k1, k2, l distinct, which
fixes phi = z_k1 + z_k2 - 2*z_l at 2d/s in z = 2x units.  Lemma: when the
difference rows have no negative cycle, phi ranges over their solutions
exactly on [-(dist(k1 -> l) + dist(k2 -> l)), dist(l -> k1) + dist(l -> k2)],
with dist the shortest-path weight in their constraint graph and an
unreachable endpoint making that end infinite.  Two paths from l to k1
and k2 bound phi above, two paths back bound it below.  The upper bound is
attained: by LP duality max phi is the least cost of a flow of two units
from l, one to k1 and one to k2, on an uncapacitated network with no
negative cycle, and such a flow splits into two paths and cycles of
weight >= 0 (Ahuja, Magnanti and Orlin, "Network Flows", 1993); with no
such flow max phi is unbounded.  The lower bound is the same on the
reversed arcs.  The solutions form a convex set, so the system is
feasible exactly when 2d/s lies in the interval.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]

ZERO = Fraction(0)


def _scaled(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(s, s * values) with s the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def solve_nonneg(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Find x >= 0 with A x = b, or a Farkas certificate of infeasibility.

    Entries are ints or Fractions.  Returns (x, None) when feasible, else
    (None, y) with yA <= 0 and yb > 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    width = n + m + 1
    # tableau row r: [A_r | artificial unit column | b_r], negated when b_r < 0
    tab: list[list[int]] = []
    flip: list[int] = []
    scales: list[int] = []
    for r in range(m):
        scale, vals = _scaled([*rows[r], rhs[r]])
        flip.append(-1 if vals[-1] < 0 else 1)
        if vals[-1] < 0:
            vals = [-v for v in vals]
        row = vals[:n] + [0] * m + vals[n:]
        row[n + r] = scale
        tab.append(row)
        scales.append(scale)
    # reduced costs of min(sum of artificials) with the artificial basis:
    # obj / den, where the artificial columns cost 0 and the rest -sum of rows
    den = lcm(*scales)
    obj = [0] * width
    for r, row in enumerate(tab):
        k = den // scales[r]
        for j, v in enumerate(row):
            if v:
                obj[j] -= k * v
    for r in range(m):
        obj[n + r] = 0
    basis = list(range(n, n + m))

    while True:
        for enter in range(n + m):
            if obj[enter] < 0:
                break  # Bland: smallest index
        else:
            break
        leave = -1
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                if leave < 0:
                    leave, top, bot = r, tab[r][-1], a
                    continue
                # tab[r][-1] / a against the best ratio top / bot
                lhs = tab[r][-1] * bot
                rhs_ = top * a
                if lhs < rhs_ or (lhs == rhs_ and basis[r] < basis[leave]):
                    leave, top, bot = r, tab[r][-1], a
        if leave < 0:
            raise AssertionError("phase one cannot be unbounded")
        prow = tab[leave]
        p = prow[enter]
        support = [j for j in range(width) if prow[j]]
        for r in range(m):
            f = tab[r][enter]
            if r == leave or not f:
                continue
            g = gcd(p, f)
            tab[r] = _eliminate(tab[r], p // g, f // g, prow, support)
        f = obj[enter]
        if f:
            g = gcd(p, f)
            obj.append(den)
            obj = _eliminate(obj, p // g, f // g, prow, support)
            den = obj.pop()
        basis[leave] = enter

    if obj[-1] == 0:
        x = [ZERO] * n
        for r, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(tab[r][-1], tab[r][b])
        return x, None
    # infeasible: dual from the reduced costs of the artificial columns
    return None, [Fraction(flip[r] * (den - obj[n + r]), den) for r in range(m)]


def _eliminate(row: list[int], p: int, f: int, prow: list[int], support: list[int]):
    """(p*row - f*prow) divided by its gcd; prow is zero outside support.
    Entries of row past len(prow) are only scaled."""
    if p != 1:
        row = [v * p for v in row]
    for j in support:
        row[j] -= f * prow[j]
    g = gcd(*row)
    if g != 1:
        row = [v // g for v in row]
    return row


def feasible_point(
    n_vars: int,
    equalities: Sequence[tuple[Sequence[Rational], Rational]],
    inequalities: Sequence[tuple[Sequence[Rational], Rational]] = (),
) -> list[Fraction] | None:
    """Find free x with c.x = d for equalities and c.x >= d for inequalities.

    Returns a rational point or None.  Free variables are split into
    differences of nonnegative ones; inequalities get surplus variables.
    Coefficients pass to solve_nonneg as given: scaling a constraint would
    change the phase-one objective, and with it the point returned.
    """
    n_eq = len(equalities)
    width = 2 * n_vars + len(inequalities)
    rows: list[list[Rational]] = []
    rhs: list[Rational] = []
    for idx, (coeffs, d) in enumerate((*equalities, *inequalities)):
        row: list[Rational] = [0] * width
        for k, c in enumerate(coeffs):
            if c:
                row[k] = c
                row[n_vars + k] = -c
        if idx >= n_eq:
            row[2 * n_vars + idx - n_eq] = -1
        rows.append(row)
        rhs.append(d)
    if not rows:
        return [ZERO] * n_vars
    sol, _ = solve_nonneg(rows, rhs)
    if sol is None:
        return None
    return [sol[k] - sol[n_vars + k] for k in range(n_vars)]


def difference_feasible(
    n_vars: int,
    equalities: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]] = (),
) -> bool | None:
    """Whether feasible_point has a point, for a difference system with at
    most one pair tie.

    Every row must be zero or s*(x_a - x_b) with s in {1, 2}, except at
    most one equality, the pair tie s*(x_k1 + x_k2 - 2*x_l) = d with s in
    {1, -1} and k1, k2, l distinct; every constant must be an int.  Any
    other system, such as one with two ties or a tie among the
    inequalities, is declined: the answer is None.  With z = 2x a row
    s*(x_a - x_b) >= d reads z_a - z_b >= 2d/s, an integer, that is an
    arc a -> b of weight -2d/s bounding z_b - z_a.  Bellman-Ford from the
    zero potential settles within n_vars rounds exactly when no cycle is
    negative.  The tie then asks whether the integer 2d/s lies in the
    module's interval, read off two more Bellman-Ford passes from l, on
    the arcs and on the reversed arcs.
    """
    n_eq = len(equalities)
    arcs: list[tuple[int, int, int]] = []
    tie = None
    for idx, (coeffs, d) in enumerate((*equalities, *inequalities)):
        support = [k for k, c in enumerate(coeffs) if c]
        if not support:
            if d > 0 or (d and idx < n_eq):
                return False
            continue
        if len(support) == 3:
            k1, k2, l = sorted(support, key=lambda k: abs(coeffs[k]))
            s = coeffs[k1]
            if tie or idx >= n_eq or s not in (1, -1) or coeffs[k2] != s or coeffs[l] != -2 * s:
                return None
            tie = k1, k2, l, 2 * d // s
            continue
        if len(support) != 2:
            return None
        a, b = support
        s = coeffs[a]
        if s < 0:
            a, b, s = b, a, -s
        if s > 2 or coeffs[b] != -s:
            return None
        w = 2 * d // s
        arcs.append((a, b, -w))
        if idx < n_eq:
            arcs.append((b, a, w))
    if _shortest([0] * n_vars, arcs) is None:
        return False
    if tie is None:
        return True
    k1, k2, l, phi = tie
    source: list[int | None] = [None] * n_vars
    source[l] = 0
    ahead = _shortest(list(source), arcs)
    back = _shortest(source, [(b, a, w) for a, b, w in arcs])
    return (None in (back[k1], back[k2]) or phi >= -back[k1] - back[k2]) and (
        None in (ahead[k1], ahead[k2]) or phi <= ahead[k1] + ahead[k2])


def _shortest(dist: list[int | None], arcs: list[tuple[int, int, int]]) -> list[int | None] | None:
    """Bellman-Ford from the weights dist, None where unreached: the
    shortest-path weights, or None when a round still changes them after
    len(dist) rounds, which happens exactly when a reached cycle is
    negative."""
    for _ in range(len(dist)):
        settled = True
        for a, b, w in arcs:
            da = dist[a]
            if da is not None and (dist[b] is None or da + w < dist[b]):
                dist[b] = da + w
                settled = False
        if settled:
            return dist
    return None if arcs else dist
