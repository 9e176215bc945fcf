"""Command line front end: membership, certification, decomposition,
hypergraph inspection, grid validation, and 2-D slice rasters.

Exit codes: 0 success (member / generic / zero failures), 1 negative
outcome (non-member / witness / failures), 2 any error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from operator import getitem

from .errors import PencilFormatError
from .hypergraphs import (
    Certificate,
    _circulation_solve,
    build_tangent_hypergraph,
    certify_generic_general,
    result_to_obj,
)
from .oracle import cross_validate, grid_axis, record_lines
from .pencils import (
    SigmaChoice,
    decompose,
    general_member,
    load_pencil,
    parse_point,
    pencil_to_obj,
    slice_members,
)
from .signed import MINUS_INF, is_minus_inf, parse_rational


class CliError(Exception):
    pass


def _load(path):
    try:
        return load_pencil(path)
    except (OSError, PencilFormatError) as exc:
        raise CliError(f"cannot load pencil {path}: {exc}") from exc


def _point_for(pencil, homogeneous, text):
    try:
        x = parse_point(text)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    want = pencil.n if homogeneous else pencil.n - 1
    if len(x) != want:
        raise CliError(f"expected {want} coordinates, got {len(x)}")
    return x if homogeneous else (Fraction(0),) + x


def cmd_member(args) -> int:
    pencil, homogeneous = _load(args.file)
    x = _point_for(pencil, homogeneous, args.at)
    # on a Metzler pencil general_member is metzler_member's verdict
    verdict = general_member(pencil, x)
    predicate = "metzler" if pencil.is_metzler else "general"
    print(json.dumps({"member": verdict, "predicate": predicate}))
    return 0 if verdict else 1


def cmd_generic(args) -> int:
    pencil, _ = _load(args.file)
    result = certify_generic_general(pencil, max_m=args.max_m, max_n=args.max_n)
    print(json.dumps(result_to_obj(result)))
    return 0 if isinstance(result, Certificate) else 1


def _parse_pairs(text, directed):
    """{(i, j): direction}, 0-based, of the ";"-separated entries of --sigma
    ("i,j", direction None) or, when directed, --diamond ("i,j:>=" or
    "i,j:<="), 1-based; a pair listed twice is refused."""
    option = "--diamond" if directed else "--sigma"
    pairs = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            pair, direction = piece.split(":") if directed else (piece, None)
            i, j = (int(v) for v in pair.split(","))
        except ValueError as exc:
            raise CliError(f"bad {option} entry {piece!r}") from exc
        if directed and direction not in (">=", "<="):
            raise CliError(f"bad direction {direction!r}")
        if (i - 1, j - 1) in pairs:
            raise CliError(f"{option} lists pair {i},{j} twice")
        pairs[(i - 1, j - 1)] = direction
    return pairs


def cmd_decompose(args) -> int:
    pencil, _ = _load(args.file)
    try:
        choice = SigmaChoice.make(pencil.m, _parse_pairs(args.sigma, False),
                                  _parse_pairs(args.diamond, True))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    piece = decompose(pencil, choice)
    print(json.dumps(pencil_to_obj(piece, homogeneous=True)))
    return 0


def cmd_hypergraph(args) -> int:
    pencil, homogeneous = _load(args.file)
    x = _point_for(pencil, homogeneous, args.at)
    if any(is_minus_inf(v) for v in x):
        raise CliError("tangent hypergraph requires a finite point")
    graph = build_tangent_hypergraph(pencil, x)
    circ, eta = _circulation_solve(graph)
    obj = {
        "vertices": graph.n_vertices,
        "edges": [{"tails": list(e.tails), "head": e.head} for e in graph.edges],
        "circulation": None
        if circ is None
        else {str(i): str(g) for i, g in enumerate(circ.gamma)},
        "direction": None if eta is None else [str(v) for v in eta],
    }
    print(json.dumps(obj))
    return 0


def _box(args):
    """(lo, hi, step) of --box "lo,hi" and --step, lo <= hi and step > 0."""
    try:
        lo, hi = (parse_rational(v) for v in args.box.split(","))
        step = parse_rational(args.step)
    except ValueError as exc:
        raise CliError(f"bad box/step: {exc}") from exc
    if step <= 0:
        raise CliError("step must be positive")
    if lo > hi:
        raise CliError(f"empty box {args.box!r}: lo > hi")
    return lo, hi, step


def cmd_validate(args) -> int:
    pencil, homogeneous = _load(args.file)
    free = pencil.n if homogeneous else pencil.n - 1
    # lazy: cross_validate certifies before it draws a point
    grid = itertools.product(grid_axis(free, *_box(args)), repeat=free)
    if not homogeneous:
        grid = ((Fraction(0),) + p for p in grid)
    records = cross_validate(pencil, grid, max_m=args.max_m, max_n=args.max_n)
    sys.stdout.writelines(record_lines(records))
    bad = sum(not rec.ok for rec in records)
    print(f"{len(records)} points, {bad} failures", file=sys.stderr)
    return 0 if bad == 0 else 1


def cmd_slice(args) -> int:
    pencil, homogeneous = _load(args.file)
    fixed: dict[int, Fraction] = {}
    for spec_ in args.fix or []:
        try:
            name, value = spec_.split("=")
            if not name.startswith("x"):
                raise ValueError(f"bad variable {name!r}")
            k = int(name[1:])
            value = parse_rational(value)
        except ValueError as exc:
            raise CliError(f"bad --fix {spec_!r}: {exc}") from exc
        if k in fixed:
            raise CliError(f"--fix x{k} given twice")
        fixed[k] = value
    n_coords = pencil.n if homogeneous else pencil.n - 1
    if any(not 0 <= k < n_coords for k in fixed):
        raise CliError(f"--fix variable out of range x0..x{n_coords - 1}")
    free = [k for k in range(n_coords) if k not in fixed]
    if len(free) != 2:
        raise CliError(f"need exactly 2 free variables after fixing, got {len(free)}")
    axis = grid_axis(2, *_box(args))
    base = [fixed.get(k, MINUS_INF) for k in range(n_coords)]
    if not homogeneous:
        base = [Fraction(0), *base]
        free = [k + 1 for k in free]
    labels = [str(v) for v in axis]
    # a row's lines are its label joined by each column's suffix for its verdict
    suffixes = [(f",{b},0\n", f",{b},1\n") for b in labels]
    write = sys.stdout.write
    write("x1,x2,member\n")
    for a, row in zip(labels, slice_members(pencil, base, tuple(free), axis)):
        write(a + a.join(map(getitem, suffixes, row)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsdp",
        description="Exact membership, genericity and oracle checks for "
        "tropical spectrahedra described by pencil JSON files.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("member", help="decide membership of a point")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="comma-separated point, -inf allowed")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("generic", help="certify genericity or find a witness")
    p.add_argument("file")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("decompose", help="emit one Metzler piece as pencil JSON")
    p.add_argument("file")
    p.add_argument("--sigma", default="", help='pairs "i,j;i,j" (1-based)')
    p.add_argument("--diamond", default="", help='entries "i,j:>=;i,j:<=" (1-based)')
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("hypergraph", help="tangent hypergraph at a point")
    p.add_argument("file")
    p.add_argument("--at", required=True)
    p.set_defaults(func=cmd_hypergraph)

    p = sub.add_parser("validate", help="cross-validate predicate vs PSD oracle")
    p.add_argument("file")
    p.add_argument("--box", default="-2,2", help='"lo,hi"')
    p.add_argument("--step", default="1/2")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--psd-bound", type=int, help="ignored: PSD testing has no dimension bound")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("slice", help="CSV raster of a 2-D slice")
    p.add_argument("file")
    p.add_argument("--fix", action="append", help='e.g. "x0=0"; repeatable')
    p.add_argument("--box", required=True, help='"lo,hi"')
    p.add_argument("--step", required=True, help="positive rational")
    p.set_defaults(func=cmd_slice)
    return parser


# Built once per process: parse_args keeps no state between calls (each
# returns a fresh Namespace, and --fix appends to a new list), so repeated
# main() calls in one process share it.
_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code; callable repeatedly."""
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: every failure exits 2 with a message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
