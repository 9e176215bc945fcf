"""Output checks.  Each returns None when the output is right, else a reason.

The reference code here is the benchmark's own: it reads pencil JSON
itself, builds the (sigma, diamond) piece and the tangent edges from their
definitions, and decides polygon membership by exact ray casting.  Where
no independent reference exists, two different code paths of the package
are compared (the Metzler against the general predicate, and the general
predicate against the union over sigma of the intersection over diamond
of the Metzler pieces).  Every output is also compared with the output
recorded in expected.json when one was recorded.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# -- pencil model ------------------------------------------------------------------


def parse_doc(doc: dict):
    """(m, n, {(k, i, j): (sign, value)}) of a pencil document, homogenized:
    an affine document's constant matrix k = 0 becomes variable 0, so every
    index k already names a variable of the homogenized pencil."""
    m = doc["m"]
    n = doc["n"] if doc["homogeneous"] else doc["n"] + 1
    entries = {}
    for mat in doc["matrices"]:
        for e in mat["entries"]:
            text = e["coeff"]
            if text == "-inf":
                continue
            sign = 1 if text[0] == "+" else -1
            i, j = e["i"] - 1, e["j"] - 1
            entries[(mat["k"], i, j)] = entries[(mat["k"], j, i)] = (sign, Fraction(text[1:]))
    return m, n, entries


def _piece(m, entries, sigma, diamond, stratum):
    """Diagonal families and off-diagonal families of the Metzler piece.

    Returns (diag, off): diag[r] = (positive, negative) lists of (var, value)
    per diagonal row r of the piece; off[(r, s)] = list of (var, value) of
    the (negative) off-diagonal entry.  Variables are renumbered to the
    stratum's order.
    """
    comp = sorted(diamond)
    diag = [([], []) for _ in range(m + len(comp))]
    off = {}
    for new_k, k in enumerate(stratum):
        for i in range(m):
            a = entries.get((k, i, i))
            if a:
                diag[i][0 if a[0] > 0 else 1].append((new_k, a[1]))
            for j in range(i + 1, m):
                a = entries.get((k, i, j))
                if a and (i, j) in sigma:
                    off.setdefault((i, j), []).append((new_k, a[1]))
        for r, (i, j) in enumerate(comp):
            a = entries.get((k, i, j))
            if a:
                sign = a[0] if diamond[(i, j)] == ">=" else -a[0]
                diag[m + r][0 if sign > 0 else 1].append((new_k, a[1]))
    return diag, off


def _argmax(family, x):
    best = None
    arg = []
    for k, v in family:
        val = v + x[k]
        if best is None or val > best:
            best, arg = val, [k]
        elif val == best:
            arg.append(k)
    return arg, best


def check_witness(doc: dict, out: dict) -> str | None:
    """x is a finite point of the named piece restricted to the named
    stratum, and gamma >= 0 with sum 1 balances on the edges that are tight
    at x.

    Membership of x is not required: the certificate is about every real
    point, and the search returns points that realize the ties of a
    circulating edge set whether or not they satisfy the other constraints.
    """
    m, n, entries = parse_doc(doc)
    pairs = {(i, j) for i in range(m) for j in range(i + 1, m)}
    sigma = {(i - 1, j - 1) for i, j in out["sigma"]}
    diamond = {}
    for key, d in out["diamond"].items():
        i, j = (int(v) - 1 for v in key.split(","))
        diamond[(i, j)] = d
    if sigma & set(diamond) or sigma | set(diamond) != pairs:
        return "sigma and diamond do not partition the row pairs"
    if any(d not in (">=", "<=") for d in diamond.values()):
        return "bad diamond direction"
    metzler = all(entries[key][0] < 0 for key in entries if key[1] != key[2])
    if metzler and diamond:
        return "a Metzler pencil is its own single piece"
    stratum = out["stratum"]
    if not stratum or stratum != sorted(set(stratum)) or stratum[-1] >= n or stratum[0] < 0:
        return "bad stratum"
    x = [Fraction(v) for v in out["x"]]
    if len(x) != len(stratum):
        return "x does not have one coordinate per stratum variable"
    diag, off = _piece(m, entries, sigma, diamond, stratum)

    # tangent edges at x
    edges = set()
    for pos, neg in diag:
        if pos and neg:
            arg_p, top_p = _argmax(pos, x)
            arg_n, top_n = _argmax(neg, x)
            if top_p == top_n:
                edges.update(((k,), l) for k in arg_p for l in arg_n)
    for (i, j), fam in off.items():
        if not diag[i][0] or not diag[j][0]:
            continue
        arg_i, top_i = _argmax(diag[i][0], x)
        arg_j, top_j = _argmax(diag[j][0], x)
        arg_h, top_h = _argmax(fam, x)
        if top_i + top_j == 2 * top_h:
            edges.update(
                (tuple(sorted((k1, k2))), l) for k1 in arg_i for k2 in arg_j for l in arg_h
            )
    edges = sorted(edges, key=lambda e: (len(e[0]), e[0], e[1]))
    circ = out["circulation"]
    if sorted(circ, key=int) != [str(i) for i in range(len(edges))]:
        return f"circulation has {len(circ)} entries for {len(edges)} tight edges"
    gamma = [Fraction(circ[str(i)]) for i in range(len(edges))]
    if any(g < 0 for g in gamma) or sum(gamma) != 1:
        return "circulation is not a normalized nonnegative flow"
    for v in range(len(stratum)):
        inflow = sum(len(t) * g for (t, h), g in zip(edges, gamma) if h == v)
        outflow = sum(t.count(v) * g for (t, _), g in zip(edges, gamma))
        if inflow != outflow:
            return f"circulation does not balance at vertex {v}"
    return None


# -- polygon reference ---------------------------------------------------------------

# The x0 = 0 slice of fixtures/polygon9.json is this closed 13-gon.
POLYGON9 = [
    (Fraction(a), Fraction(b))
    for a, b in [(1, 4), (3, 4), (4, 3), (4, 1), (5, 1), (5, 2), (6, 4),
                 (8, 6), (8, 8), (6, 8), (5, 7), (3, 6), (1, 6)]
]


def in_polygon(p, verts=POLYGON9) -> bool:
    """Exact ray casting; the boundary counts as inside.  Exact for integer
    and Fraction coordinates alike."""
    px, py = p
    n = len(verts)
    inside = False
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        if (bx - ax) * (py - ay) == (by - ay) * (px - ax) and (
            min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)
        ):
            return True
        if (ay > py) != (by > py):
            # the edge crosses the horizontal line through p right of p
            if ((ax - px) * (by - ay) + (py - ay) * (bx - ax)) * (by - ay) > 0:
                inside = not inside
    return inside


# -- per-verb checks -------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_generic(doc: dict, rc: int, out: str) -> str | None:
    try:
        obj = json.loads(out)
    except ValueError:
        return f"exit {rc} without a JSON result"
    if rc == 0:
        return None if obj == {"status": "generic"} else "exit 0 without a certificate"
    if rc == 1 and obj.get("status") == "witness":
        return check_witness(doc, obj)
    return f"exit {rc}"


def check_validate(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    for line in out.splitlines():
        rec = json.loads(line)
        if rec.get("ok") is not True:
            return f"validation record not ok at x = {rec.get('x')}"
    return None


def _axis(lo, hi, step):
    out, v = [], lo
    while v <= hi:
        out.append(v)
        v += step
    return out


def slice_args(extra):
    """(fixed coordinates, lo, hi, step) of a slice argv tail."""
    fixed, box, step = {}, None, None
    it = iter(extra)
    for tok in it:
        if tok == "--fix":
            name, value = next(it).split("=")
            fixed[int(name[1:])] = Fraction(value)
        elif tok.startswith("--box="):
            box = tok.split("=", 1)[1]
        elif tok == "--box":
            box = next(it)
        elif tok == "--step":
            step = Fraction(next(it))
    lo, hi = (Fraction(v) for v in box.split(","))
    return fixed, lo, hi, step


def _predicates(pencil):
    """(reference, predicate the slice verb uses) for one pencil."""
    from tropsdp import pencils as P

    if pencil.is_metzler:
        return (lambda x: P.general_member(pencil, x)), (lambda x: P.metzler_member(pencil, x))
    by_sigma = {}
    for choice in P.enumerate_choices(pencil.m):
        by_sigma.setdefault(choice.sigma, []).append(P.decompose(pencil, choice))

    def union(x):
        return any(all(P.metzler_member(piece, x) for piece in pieces)
                   for pieces in by_sigma.values())

    return union, (lambda x: P.general_member(pencil, x))


def check_slice(key, pencil, homogeneous, extra, rc, out) -> str | None:
    """Grid order and shape, both verdicts present, then the verdicts against
    the independent reference (polygon9) or, on a sample of points plus
    points with -inf coordinates, against a second predicate path."""
    if rc != 0:
        return f"exit {rc}"
    lines = out.splitlines()
    if not lines or lines[0] != "x1,x2,member":
        return "missing CSV header"
    fixed, lo, hi, step = slice_args(extra)
    axis = _axis(lo, hi, step)
    grid = [(a, b) for a in axis for b in axis]
    if len(lines) - 1 != len(grid):
        return f"{len(lines) - 1} rows for {len(grid)} grid points"
    verdicts = {}
    for (a, b), line in zip(grid, lines[1:]):
        head, _, sv = line.rpartition(",")
        if head != f"{a},{b}" or sv not in ("0", "1"):
            return f"bad row {line!r}"
        verdicts[(a, b)] = sv == "1"
    if len(set(verdicts.values())) != 2:
        return "slice does not show both verdicts"
    if key == "fixture:polygon9.json":
        # exact in integers: scale the grid and the vertices by the step's denominator
        scale = step.denominator * lo.denominator
        verts = [(int(a * scale), int(b * scale)) for a, b in POLYGON9]
        for (a, b), v in verdicts.items():
            if v != in_polygon((int(a * scale), int(b * scale)), verts):
                return f"polygon9 raster disagrees with the 13-gon at {(a, b)}"
        return None
    n_coords = pencil.n if homogeneous else pencil.n - 1
    free = [k for k in range(n_coords) if k not in fixed]
    reference, cli_member = _predicates(pencil)

    def embed(a, b):
        coords = [fixed.get(k) for k in range(n_coords)]
        coords[free[0]], coords[free[1]] = a, b
        return tuple(coords) if homogeneous else (Fraction(0), *coords)

    from tropsdp.signed import MINUS_INF

    rng = random.Random(key)
    sample = rng.sample(grid, 48)
    for a, b in sample:
        x = embed(a, b)
        if reference(x) != verdicts[(a, b)]:
            return f"verdict at {(a, b)} disagrees with the reference predicate"
    for a, b in sample[:16]:
        for x in (embed(MINUS_INF, b), embed(a, MINUS_INF)):
            if reference(x) != cli_member(x):
                return "predicates disagree at a point with a -inf coordinate"
    return None
