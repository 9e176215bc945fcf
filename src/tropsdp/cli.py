"""Command line front end: membership, certification, decomposition,
hypergraph inspection, grid validation, and 2-D slice rasters.

Each verb imports the layers it calls when it runs, so member, decompose
and slice never load the LP, hypergraph, oracle or Puiseux modules.

Exit codes: 0 success (member / generic / zero failures), 1 negative
outcome (non-member / witness / failures), 2 any error, 141 (128 + SIGPIPE)
when the reader of stdout hung up before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from operator import getitem

from .errors import PencilFormatError
from .pencils import (
    SigmaChoice,
    _lattice_lcm,
    decompose,
    general_member,
    grid_axis,
    load_pencil,
    parse_point,
    pencil_to_obj,
    slice_members,
)
from .signed import MINUS_INF, ExtRat, _check_count, parse_rational


class CliError(Exception):
    pass


def _load(path):
    """(pencil, lead), lead the coordinates a point of the file leaves out:
    () for a homogeneous file, (0,) for an affine one, whose x0 is fixed."""
    try:
        pencil, homogeneous = load_pencil(path)
    except (OSError, PencilFormatError) as exc:
        raise CliError(f"cannot load pencil {path}: {exc}") from exc
    return pencil, () if homogeneous else (Fraction(0),)


def ascii_int(text: str) -> int:
    """An index or bound field of the command line: ASCII digits, surrounding
    space stripped; int() alone would also take "+", "_" and other digits.
    argparse names a type= function in its refusal: "invalid ascii_int value"."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a number of ASCII digits: {text!r}")
    return int(text)


def _point_for(pencil, lead, text):
    try:
        x = parse_point(text)
        _check_count(pencil.n - len(lead), x)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _lattice_lcm(x, "--at")
    return lead + x


def cmd_member(args) -> int:
    pencil, lead = _load(args.file)
    x = _point_for(pencil, lead, args.at)
    # on a Metzler pencil general_member is metzler_member's verdict
    verdict = general_member(pencil, x)
    predicate = "metzler" if pencil.is_metzler else "general"
    print(json.dumps({"member": verdict, "predicate": predicate}))
    return 0 if verdict else 1


def cmd_generic(args) -> int:
    from .hypergraphs import Certificate, certify_generic_general, result_to_obj

    pencil, _ = _load(args.file)
    result = certify_generic_general(pencil, max_m=args.max_m, max_n=args.max_n)
    print(json.dumps(result_to_obj(result)))
    return 0 if isinstance(result, Certificate) else 1


def _parse_pairs(text, directed):
    """{(i, j): direction}, 0-based, of the ";"-separated entries of --sigma
    ("i,j", direction None) or, when directed, --diamond ("i,j:>=" or
    "i,j:<="), 1-based, i < j; a pair listed twice is refused."""
    option = "--diamond" if directed else "--sigma"
    pairs = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            pair, direction = piece.split(":") if directed else (piece, None)
            i, j = (ascii_int(v) for v in pair.split(","))
        except ValueError as exc:
            raise CliError(f"bad {option} entry {piece!r}") from exc
        if i >= j:
            raise CliError(f"bad {option} entry {piece!r}: need i < j")
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
    from .hypergraphs import _circulation_solve, build_tangent_hypergraph

    pencil, lead = _load(args.file)
    x = _point_for(pencil, lead, args.at)
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
    """(lo, hi, step) of --box "lo,hi" and --step, lo <= hi, step > 0."""
    if args.box.count(",") != 1:
        raise CliError(f'--box takes "lo,hi", got {args.box!r}')
    try:
        lo, hi = (parse_rational(v) for v in args.box.split(","))
        step = parse_rational(args.step)
    except ValueError as exc:
        raise CliError(f"bad box/step: {exc}") from exc
    if step <= 0:
        raise CliError(f"--step must be positive, got {args.step!r}")
    if lo > hi:
        raise CliError(f"empty box {args.box!r}: lo > hi")
    return lo, hi, step


def cmd_validate(args) -> int:
    from .oracle import _grid_lines

    pencil, lead = _load(args.file)
    axis = grid_axis(pencil.n - len(lead), *_box(args))
    # _grid_lines certifies before its first row, so a refusal writes nothing;
    # each row is written as it is validated, as slice writes its rows
    points = bad = 0
    for row, row_bad in _grid_lines(pencil, lead, axis, args.max_m, args.max_n):
        sys.stdout.writelines(row)
        points += len(row)
        bad += row_bad
    print(f"{points} points, {bad} failures", file=sys.stderr)
    return 0 if bad == 0 else 1


def cmd_slice(args) -> int:
    pencil, lead = _load(args.file)
    fixed: dict[int, ExtRat] = {}
    for spec_ in args.fix or []:
        try:
            name, value = spec_.split("=")
            if not name.startswith("x"):
                raise ValueError(f"bad variable {name!r}")
            k = ascii_int(name[1:])
            value = parse_point(value)  # one coordinate, read as --at reads one
            _check_count(1, value)
        except ValueError as exc:
            raise CliError(f"bad --fix {spec_!r}: {exc}") from exc
        if k in fixed:
            raise CliError(f"--fix x{k} given twice")
        fixed[k] = value[0]
    _lattice_lcm(fixed.values(), "--fix")
    n_coords = pencil.n - len(lead)
    if any(not 0 <= k < n_coords for k in fixed):
        raise CliError(f"--fix variable out of range x0..x{n_coords - 1}")
    free = [k for k in range(n_coords) if k not in fixed]
    if len(free) != 2:
        raise CliError(f"need exactly 2 free variables after fixing, got {len(free)}")
    axis = grid_axis(2, *_box(args))
    base = [*lead, *(fixed.get(k, MINUS_INF) for k in range(n_coords))]
    free = [k + len(lead) for k in free]
    labels = [str(v) for v in axis]
    # a row's lines are its label joined by each column's suffix for its verdict
    suffixes = [(f",{b},0\n", f",{b},1\n") for b in labels]
    write = sys.stdout.write
    write("x1,x2,member\n")
    for a, row in zip(labels, slice_members(pencil, base, tuple(free), axis)):
        write(a + a.join(map(getitem, suffixes, row)))
    return 0


_EQUALS_FORM = "; a value starting with - needs the = form, --%(dest)s=VALUE"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsdp",
        description="Exact membership, genericity and oracle checks for "
        "tropical spectrahedra described by pencil JSON files.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("member", help="decide membership of a point")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="comma-separated point, -inf allowed" + _EQUALS_FORM)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("generic", help="certify genericity or find a witness")
    p.add_argument("file")
    p.add_argument("--max-m", type=ascii_int, default=4)
    p.add_argument("--max-n", type=ascii_int, default=4)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("decompose", help="emit one Metzler piece as pencil JSON")
    p.add_argument("file")
    p.add_argument("--sigma", default="", help='pairs "i,j;i,j" (1-based)')
    p.add_argument("--diamond", default="", help='entries "i,j:>=;i,j:<=" (1-based)')
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("hypergraph", help="tangent hypergraph at a point")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="comma-separated finite point" + _EQUALS_FORM)
    p.set_defaults(func=cmd_hypergraph)

    p = sub.add_parser("validate", help="cross-validate predicate vs PSD oracle")
    p.add_argument("file")
    p.add_argument("--box", default="-2,2", help='"lo,hi"' + _EQUALS_FORM)
    p.add_argument("--step", default="1/2", help="positive rational" + _EQUALS_FORM)
    p.add_argument("--max-m", type=ascii_int, default=4)
    p.add_argument("--max-n", type=ascii_int, default=4)
    p.add_argument("--psd-bound", type=ascii_int, help="ignored: PSD testing has no dimension bound")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("slice", help="CSV raster of a 2-D slice")
    p.add_argument("file")
    p.add_argument("--fix", action="append", help='e.g. "x0=0"; repeatable')
    p.add_argument("--box", required=True, help='"lo,hi"' + _EQUALS_FORM)
    p.add_argument("--step", required=True, help="positive rational" + _EQUALS_FORM)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader hung up: what is left goes to devnull, so the final
        # flush stays quiet, and the status is a shell's for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: every failure exits 2 with a message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
