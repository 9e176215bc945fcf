"""Shared builders for pencil-level tests, and reference kernels: the dense
Fraction simplex, the dict-based Puiseux add and mul, the per-point
slice raster, and the oracle's per-point checks on Fraction-termed lifts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from typing import Sequence

from tropsdp.hypergraphs import perturb_to_interior
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
    TropicalPencil,
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
