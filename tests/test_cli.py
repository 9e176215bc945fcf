from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import FIXTURES
from helpers import (PLANTED_RICH, pencil_of, planted_doc, pool_doc, random_pencil,
                     wide_denominator_pencil)
from tropsdp.cli import main
from tropsdp.errors import CertificateCheckFailed, NotCertified
from tropsdp.hypergraphs import Certificate, certify_generic_general
from tropsdp.oracle import cross_validate, grid_axis
from tropsdp.pencils import general_member, homogenize, load_pencil, pencil_to_obj
from tropsdp.signed import MINUS_INF, pos


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_verdicts(capsys):
    code, out, _ = run(capsys, "member", FIXTURES / "line_pencil.json", "--at", "0,0,0")
    assert code == 0
    assert json.loads(out) == {"member": True, "predicate": "metzler"}
    code, out, _ = run(capsys, "member", FIXTURES / "line_pencil.json", "--at", "0,0,-1")
    assert code == 1
    assert json.loads(out)["member"] is False
    code, out, _ = run(capsys, "member", FIXTURES / "quadrant_ray.json", "--at", "0,1,1")
    assert code == 0
    assert json.loads(out)["predicate"] == "general"


def test_member_affine_point_length(capsys):
    code, out, _ = run(capsys, "member", FIXTURES / "affine_quadrant.json", "--at=-1,-inf")
    assert code == 0 and json.loads(out)["member"] is True
    code, _, err = run(capsys, "member", FIXTURES / "affine_quadrant.json", "--at", "0,0,0")
    assert code == 2 and "expected 2 coordinates" in err


def test_member_malformed_inputs(capsys):
    code, _, err = run(capsys, "member", FIXTURES / "line_pencil.json", "--at", "0,0,q/0")
    assert code == 2 and "bad coordinate" in err
    code, _, err = run(capsys, "member", FIXTURES / "line_pencil.json", "--at", "0,0,1/0")
    assert code == 2 and "bad coordinate '1/0'" in err
    code, _, err = run(capsys, "member", FIXTURES / "nonexistent.json", "--at", "0")
    assert code == 2


def test_exponent_notation_is_refused_fast(capsys, tmp_path):
    # Fraction("1e10000000") would build a ten-million-digit integer; every
    # rational read from outside text refuses exponent notation instead
    doc = json.loads((FIXTURES / "m1_distinct.json").read_text())
    doc["matrices"][0]["entries"][0]["coeff"] = "+1e10000000"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("member", FIXTURES / "quadrant_ray.json", "--at", "0,1e10000000,0"),
        ("member", FIXTURES / "m1_distinct.json", "--at", "0,1e10000000"),
        ("member", path, "--at", "0"),
        ("validate", FIXTURES / "m1_distinct.json", "--box=-1,1E10000000", "--step", "1"),
        ("validate", FIXTURES / "m1_distinct.json", "--step", "1e-10000000"),
        ("slice", FIXTURES / "polygon9.json", "--fix", "x0=1e10000000", "--box", "0,8",
         "--step", "1"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "" and "10000000" in err, (argv, err)


def test_non_ascii_digits_are_refused(capsys, tmp_path):
    # Fraction reads "\u0663" (Arabic-Indic three) as 3; outside text may
    # spell a rational in ASCII digits only
    doc = json.loads((FIXTURES / "m1_distinct.json").read_text())
    doc["matrices"][0]["entries"][0]["coeff"] = "+\u0663"
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps(doc))
    for argv, text in (
        (("member", path, "--at", "0,0"), "\u0663"),
        (("generic", path), "\u0663"),
        (("member", FIXTURES / "quadrant_ray.json", "--at", "0,\u0661,0"), "\u0661"),
        (("validate", FIXTURES / "m1_distinct.json", "--step", "1/\uff12"), "\uff12"),
        (("slice", FIXTURES / "polygon9.json", "--fix", "x0=\u0660", "--box", "0,8",
          "--step", "1"), "\u0660"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"{text}'" in err, (argv, err)


def test_oversized_header_is_refused_before_building(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"m": 1000000, "n": 1, "homogeneous": true, "matrices": []}')
    start = time.perf_counter()
    code, out, err = run(capsys, "member", path, "--at", "0")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "1 x 1000000 x 1000000 = 1000000000000 matrix cells, above the limit of 65536" in err
    # an integer past Python's digit limit is a format error, not a bare ValueError
    path.write_text('{"m": ' + "9" * 5000 + ', "n": 1, "homogeneous": true, "matrices": []}')
    code, out, err = run(capsys, "member", path, "--at", "0")
    assert code == 2 and out == "" and "cannot load pencil" in err


def _m1_file(path, coeffs):
    # a homogeneous m = 1 pencil whose matrix k holds only entry (1,1) coeffs[k]
    path.write_text(json.dumps({"m": 1, "n": len(coeffs), "homogeneous": True, "matrices": [
        {"k": k, "entries": [{"i": 1, "j": 1, "coeff": c}]} for k, c in enumerate(coeffs)]}))
    return path


def test_lattice_limit_refuses_large_denominators(capsys, tmp_path):
    # 2^9000 and 3^6000 have an lcm of about 18.5k bits, above the 2^14 limit:
    # refused before any value is scaled, whether in the pencil or in a point
    big = (f"1/{2**9000}", f"1/{3**6000}")
    pencil = _m1_file(tmp_path / "big.json", [f"+{v}" for v in big] + ["-0"])
    pair = _m1_file(tmp_path / "pair.json", [f"+{v}" for v in big])
    flat = _m1_file(tmp_path / "flat.json", ["+0", "+0", "-1", "+0"])
    for argv in (
        ("member", pencil, "--at", "0,0,0"),
        ("generic", pencil),
        ("member", pair, "--at", "0,0"),
        ("generic", pair),
        ("validate", pencil),
        ("member", flat, "--at", f"{big[0]},{big[1]},0,0"),
        ("slice", flat, f"--fix=x0={big[0]}", f"--fix=x1={big[1]}", "--box", "0,1",
         "--step", "1"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv[0]
        assert code == 2 and out == "" and err.startswith("error: DimensionTooLarge: "), err
        assert "above the limit of 16384" in err
    # one denominator of 2^14000, 4,215 digits, is under the limit; at 0 the
    # positive part 2^-14000 beats the negative part 0 by that much
    pencil = _m1_file(tmp_path / "under.json", [f"+1/{2**14000}", "-0"])
    assert run(capsys, "member", pencil, "--at", "0,0")[:2] == (0, '{"member": true, '
                                                                '"predicate": "metzler"}\n')
    assert run(capsys, "member", pencil, "--at", f"0,1/{2**14000}")[0] == 0
    assert run(capsys, "member", pencil, "--at", f"0,1/{2**13999}")[0] == 1
    assert run(capsys, "generic", pencil)[:2] == (0, '{"status": "generic"}\n')


def test_generic_exit_codes(capsys):
    code, out, _ = run(capsys, "generic", FIXTURES / "line_pencil.json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "witness" and obj["x"] == ["0", "0", "0"]
    code, out, _ = run(capsys, "generic", FIXTURES / "m1_distinct.json")
    assert code == 0 and json.loads(out) == {"status": "generic"}
    code, _, err = run(capsys, "generic", FIXTURES / "polygon9.json")
    assert code == 2 and "DimensionTooLarge" in err
    code, _, _ = run(capsys, "generic", FIXTURES / "polygon9.json", "--max-m", "9")
    assert code == 0


def test_hypergraph_output(capsys):
    code, out, _ = run(capsys, "hypergraph", FIXTURES / "line_pencil.json", "--at", "0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["edges"] == [
        {"tails": [0], "head": 1},
        {"tails": [0], "head": 2},
        {"tails": [1, 2], "head": 0},
    ]
    assert obj["circulation"] == {"0": "1/3", "1": "1/3", "2": "1/3"}
    assert obj["direction"] is None
    # the library's own finite-point rule reaches the user; on a non-Metzler
    # pencil its Metzler check comes first
    code, out, err = run(capsys, "hypergraph", FIXTURES / "line_pencil.json", "--at=-inf,0,0")
    assert code == 2 and out == ""
    assert err == "error: ValueError: tangent hypergraph is defined at finite points only\n"
    code, out, err = run(capsys, "hypergraph", FIXTURES / "quadrant_ray.json", "--at=-inf,0,0")
    assert code == 2 and out == "" and err.startswith("error: NotMetzler: ")


def test_hypergraph_direction_from_one_solve(capsys, monkeypatch):
    # edges but no circulation: one phase-one solve gives both answers
    from tropsdp import hypergraphs

    calls = []
    solve = hypergraphs.solve_nonneg
    monkeypatch.setattr(
        hypergraphs, "solve_nonneg", lambda rows, rhs: calls.append(rows) or solve(rows, rhs)
    )
    code, out, _ = run(capsys, "hypergraph", FIXTURES / "polygon9.json", "--at", "0,8,8")
    assert code == 0
    obj = json.loads(out)
    assert obj["edges"] == [{"tails": [0], "head": 1}, {"tails": [0], "head": 2}]
    assert obj["circulation"] is None and obj["direction"] == ["1", "0", "0"]
    assert len(calls) == 1


def test_decompose_round_trips(capsys):
    code, out, _ = run(
        capsys, "decompose", FIXTURES / "quadrant_ray.json", "--diamond", "1,2:>="
    )
    assert code == 0
    from tropsdp.pencils import pencil_from_obj

    piece, homogeneous = pencil_from_obj(json.loads(out))
    assert homogeneous and piece.m == 3 and piece.is_metzler


def test_decompose_refuses_repeated_and_malformed_pairs(capsys):
    # --sigma and --diamond share one parser: a pair listed twice or out of
    # order (i >= j) is refused
    ray = FIXTURES / "quadrant_ray.json"
    for argv, message in (
        (("--diamond", "1,2:>=;1,2:<="), "--diamond lists pair 1,2 twice"),
        (("--sigma", "1,2;1,2"), "--sigma lists pair 1,2 twice"),
        (("--diamond", "1,2"), "bad --diamond entry '1,2'"),
        (("--sigma", "1,2:>="), "bad --sigma entry '1,2:>='"),
        (("--diamond", "1,2:>"), "bad direction '>'"),
        (("--sigma", "1,2", "--diamond", "1,2:>="), "partition"),
        (("--sigma", "2,1"), "bad --sigma entry '2,1': need i < j"),
        (("--sigma", "1,1"), "bad --sigma entry '1,1': need i < j"),
        (("--diamond", "2,1:>="), "bad --diamond entry '2,1:>=': need i < j"),
    ):
        code, out, err = run(capsys, "decompose", ray, *argv)
        assert code == 2 and out == "" and message in err, (argv, err)
    code, out, _ = run(capsys, "decompose", ray, "--sigma", " 1,2 ; ")
    assert code == 0 and json.loads(out)["m"] == 2


def test_decompose_output_is_bounded(capsys, tmp_path):
    # the header's 8 x 90 x 90 cells pass its limit; with all 4005 pairs in
    # diamond the piece would be 8 matrices of 4095 x 4095
    path = tmp_path / "wide.json"
    path.write_text('{"m": 90, "n": 8, "homogeneous": true, "matrices": []}')
    diamond = ";".join(f"{i},{j}:>=" for i in range(1, 91) for j in range(i + 1, 91))
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", path, "--diamond", diamond)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "8 x 4095 x 4095 = 134152200 matrix cells, above the limit of 65536" in err


def test_slice_quadrant_union_diagonal(capsys):
    code, out, _ = run(
        capsys,
        "slice",
        FIXTURES / "quadrant_ray.json",
        "--fix",
        "x0=0",
        "--box=-2,2",
        "--step",
        "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,member"
    members = {
        (a, b)
        for a, b, v in (line.split(",") for line in lines[1:])
        if v == "1"
    }
    expected = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a <= 0 and b <= 0) or a == b:
                expected.add((str(a), str(b)))
    assert members == expected


def test_slice_errors(capsys):
    code, _, err = run(
        capsys, "slice", FIXTURES / "quadrant_ray.json", "--fix", "x0=0",
        "--box=-2,2", "--step", "0",
    )
    assert code == 2 and err == "error: --step must be positive, got '0'\n"
    code, _, err = run(
        capsys, "slice", FIXTURES / "quadrant_ray.json", "--box=-2,2", "--step", "1"
    )
    assert code == 2 and "free variables" in err
    for fix, refusal in (("y0=0", "bad variable 'y0'"), ("x9=0", "out of range x0..x2")):
        code, out, err = run(
            capsys, "slice", FIXTURES / "polygon9.json", "--fix", fix, "--box", "0,8",
            "--step", "1",
        )
        assert code == 2 and out == "" and refusal in err, (fix, err)


def test_slice_refuses_a_variable_fixed_twice(capsys):
    code, out, err = run(
        capsys, "slice", FIXTURES / "polygon9.json", "--fix", "x0=0", "--fix", "x0=1",
        "--box", "0,8", "--step", "1",
    )
    assert code == 2 and out == "" and "--fix x0 given twice" in err


def test_empty_box_is_refused(capsys):
    # lo > hi has no points: refused with the box named, for both grid verbs
    code, out, err = run(
        capsys, "validate", FIXTURES / "m1_distinct.json", "--box", "2,-2", "--step", "1"
    )
    assert code == 2 and out == "" and "empty box '2,-2'" in err
    code, out, err = run(
        capsys, "slice", FIXTURES / "polygon9.json", "--fix", "x0=0", "--box", "8,0",
        "--step", "1",
    )
    assert code == 2 and out == "" and "empty box '8,0'" in err
    # lo == hi is a one-point axis
    code, out, err = run(
        capsys, "validate", FIXTURES / "m1_distinct.json", "--box", "1,1", "--step", "1"
    )
    assert code == 0 and len(out.splitlines()) == 1 and "1 points, 0 failures" in err
    code, out, _ = run(
        capsys, "slice", FIXTURES / "polygon9.json", "--fix", "x0=0", "--box", "8,8",
        "--step", "1",
    )
    assert code == 0 and out.splitlines() == ["x1,x2,member", "8,8,1"]


def test_oversized_grids_exit_before_enumerating(capsys):
    # (10^9 + 1)^2 points on two free coordinates: refused from the count,
    # with no row printed
    for argv in (
        ("slice", FIXTURES / "polygon9.json", "--fix", "x0=0"),
        ("validate", FIXTURES / "m1_distinct.json"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--box=0,1000000", "--step", "1/1000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "grid has 1000000002000000001 points" in err


def test_grid_values_past_the_digit_limit_are_refused(capsys):
    # each rational is under str()'s digit limit, but a grid value's
    # denominator is q1 * q2: refused before a record or a row is written
    q1, q2 = 10**4000 + 1, 10**4000 + 3
    box, step = f"--box=1/{q1},2", f"--step={q2 - 7}/{q2}"
    for argv in (
        ("validate", FIXTURES / "m1_distinct.json"),
        ("validate", FIXTURES / "quadrant_ray.json"),
        ("validate", FIXTURES / "polygon9.json", "--max-m", "9"),
        ("slice", FIXTURES / "polygon9.json", "--fix", "x0=0"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, box, step)
        assert time.perf_counter() - start < 1, argv[:2]
        assert code == 2 and out == "" and "DimensionTooLarge" in err, (argv[:2], err)
    # a denominator of as many digits as the limit allows is written
    limit = sys.get_int_max_str_digits()
    den = 10 ** (limit - 1) + 1
    code, out, _ = run(capsys, "validate", FIXTURES / "m1_distinct.json", f"--box=1/{den},1",
                       "--step", "1")
    assert code == 0 and json.loads(out)["x"] == [f"1/{den}"] * 2
    # with the limit off, str() writes any int and nothing is refused
    sys.set_int_max_str_digits(0)
    try:
        assert len(grid_axis(2, Fraction(1, q1), 2, Fraction(q2 - 7, q2))) == 3
    finally:
        sys.set_int_max_str_digits(limit)


def test_index_fields_take_ascii_digits_only(capsys):
    # int() would read "0_1" as 1, "+0" and "\u0660" as 0, and "1_0" as 10
    ray, m1 = FIXTURES / "quadrant_ray.json", FIXTURES / "m1_distinct.json"
    box = ("--box", "0,1", "--step", "1")
    for argv, field in (
        (("slice", ray, "--fix=x0_1=0", *box), "'0_1'"),
        (("slice", ray, "--fix=x\u0660=0", *box), "'\u0660'"),
        (("slice", ray, "--fix=x+0=0", *box), "'+0'"),
        (("decompose", ray, "--sigma", "0_1,2"), "'0_1,2'"),
        (("decompose", ray, "--diamond", "\u0661,\u0662:>="), "'\u0661,\u0662:>='"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and field in err, (argv, err)
    for argv in (
        ("generic", m1, "--max-m", "\u0664"),
        ("generic", m1, "--max-m", "1_0"),
        ("generic", m1, "--max-n", "+4"),
        ("validate", m1, "--psd-bound", "\uff13"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2, argv
        assert f"{argv[-2]}: invalid" in capsys.readouterr().err
    # ASCII digits with surrounding space read as before
    assert run(capsys, "slice", ray, "--fix=x 0 =0", *box) == run(
        capsys, "slice", ray, "--fix=x0=0", *box)
    code, out, _ = run(capsys, "decompose", ray, "--sigma", " 1 , 2 ")
    assert code == 0 and json.loads(out)["m"] == 2
    assert run(capsys, "generic", m1, "--max-m", " 04", "--max-n", "2")[:2] == (
        0, '{"status": "generic"}\n')
    assert run(capsys, "validate", m1, "--psd-bound", "9")[0] == 0


def test_grid_size_is_decided_without_forming_its_power(capsys, tmp_path):
    # 9^65536 points on the default box, (10^300)^65536 on a wide one and
    # about 10^16000 on a slice: each refused from a bound on the per-axis
    # count, without forming the power
    wide = tmp_path / "wide.json"
    wide.write_text('{"m": 1, "n": 65536, "homogeneous": true, "matrices": []}')
    nines = "9" * 4000
    for argv in (
        ("validate", wide),
        ("validate", wide, "--box=0," + "9" * 300, "--step", "1"),
        ("slice", FIXTURES / "polygon9.json", "--fix", "x0=0", f"--box=0,{nines}",
         "--step", f"1/{nines}"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv[:2]
        assert code == 2 and out == "" and "DimensionTooLarge" in err, (argv[:2], err)
        assert "grid has more than 1000000 points" in err


def test_validate_refusal_draws_no_grid_point(capsys, monkeypatch):
    # 97^3 = 912673 points at step 1/24: validate certifies first, so a
    # witness or an oversized pencil is refused before a point is drawn
    from tropsdp import oracle

    grids, drawn = [], []
    real = oracle._grid_lines
    monkeypatch.setattr(oracle, "_grid_lines", lambda pencil, lead, axis, *bounds: (
        grids.append((lead, axis)) or real(pencil, lead, axis, *bounds)))
    # every grid point's membership row and class record goes through these two
    real_rows, real_record = oracle.slice_members, oracle._class_record
    monkeypatch.setattr(oracle, "slice_members",
                        lambda *args: drawn.append(args) or real_rows(*args))
    monkeypatch.setattr(oracle, "_class_record",
                        lambda *args: drawn.append(args) or real_record(*args))
    for name, refusal in (("line_pencil.json", "NotCertified"),
                          ("polygon9.json", "DimensionTooLarge")):
        start = time.perf_counter()
        code, out, err = run(capsys, "validate", FIXTURES / name, "--step", "1/24")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and refusal in err
        lead, axis = grids.pop()
        assert (*lead, axis[0], axis[-1], len(axis)) == (-2, 2, 97) and drawn == []


def test_a_fault_after_the_first_row_keeps_the_earlier_rows(capsys, monkeypatch):
    # validate writes each row as it is validated: a failed re-check in row
    # 41 of 81 (head x0 = x1 = 0, whose b = -2 builds a class record) exits 2
    # and leaves the whole lines of the 40 rows before it
    from tropsdp import oracle

    path = FIXTURES / "quadrant_ray.json"
    code, full, _ = run(capsys, "validate", path)
    assert code == 0
    real = oracle._class_record

    def record(cache, pencil, x, lattice, member):
        if x[:2] == (0, 0):
            raise CertificateCheckFailed("planted re-check failure")
        return real(cache, pencil, x, lattice, member)

    monkeypatch.setattr(oracle, "_class_record", record)
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (2, "error: CertificateCheckFailed: planted re-check failure\n")
    assert out == "".join(full.splitlines(keepends=True)[:40 * 9])
    assert all(json.loads(line)["ok"] for line in out.splitlines())


def test_validate_writes_before_its_last_class_record(monkeypatch):
    from tropsdp import oracle

    events = []
    real = oracle._class_record
    monkeypatch.setattr(oracle, "_class_record",
                        lambda *args: events.append("record") or real(*args))

    class Stdout(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["validate", str(FIXTURES / "quadrant_ray.json")]) == 0
    last_record = max(i for i, event in enumerate(events) if event == "record")
    assert events.index("write") < last_record


def test_validate_memory_grows_with_the_classes_not_the_points(monkeypatch):
    # tracemalloc peaks with stdout to devnull, after a warm-up call: the
    # walk holds one row's lines and its classes, 3,169 of polygon9's 35,937
    # points, and an affine grid, whose points are each their own class,
    # stores none of its 4,225
    import tracemalloc

    cases = [(["polygon9.json", "--max-m", "9", "--step", "1/8"], 2_000_000),
             (["affine_quadrant.json", "--box=-4,4", "--step", "1/8"], 500_000)]
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for (name, *flags), limit in cases:
            argv = ["validate", str(FIXTURES / name), *flags]
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (name, peak)


def test_member_points_of_a_non_metzler_pencil_eliminate_no_own_lift(capsys, tmp_path,
                                                                     monkeypatch):
    # a member point of a non-Metzler pencil prints "psd": null, so the lift
    # of the pencil itself is eliminated (_block_psd) only at non-member
    # points; here its member points do build their own full rows, outside
    # the inner set on a block of 5, where a PSD verdict would eliminate
    from tropsdp import oracle, puiseux

    current, built, eliminated, own = [], [], [], []
    real_record, real_lift, real_block = oracle._class_record, oracle._lift_at, puiseux._block_psd

    def record(cache, pencil, x, lattice, member):
        current[:] = pencil, member
        return real_record(cache, pencil, x, lattice, member)

    def lift_at(pencil, lattice):
        rows, pairs, blocks = real_lift(pencil, lattice)
        outer, inner = puiseux._minor_conditions(rows, pairs)
        built.append((current[1], pencil is current[0], outer and not inner,
                      max(map(len, blocks))))
        if built[-1] == (True, True, True, 5):
            own.append((pencil, lattice))
        return rows, pairs, blocks

    def block_psd(entries, block):
        eliminated.append(built[-1][:2])
        return real_block(entries, block)

    monkeypatch.setattr(oracle, "_class_record", record)
    monkeypatch.setattr(oracle, "_lift_at", lift_at)
    monkeypatch.setattr(puiseux, "_block_psd", block_psd)
    path = _pin_file("N5x3p7:0:0", tmp_path)
    code, out, _ = run(capsys, "validate", path, "--max-m", "9", "--max-n", "9")
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, "5a37d969956fca3b")
    assert out.count('"member": true') == 477 and own
    assert (True, True) not in eliminated
    # the hook is live: that own lift, had its PSD verdict been wanted, is
    # eliminated through it
    current[:] = own[0][0], True
    assert oracle._lift_verdicts(*own[0])[:2] == (True, False)
    assert (True, True) in eliminated


def test_validate_zero_failures(capsys):
    code, out, err = run(
        capsys, "validate", FIXTURES / "m1_distinct.json", "--box=-2,2", "--step", "1"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 25
    assert all(r["ok"] for r in records)
    assert "0 failures" in err
    code, _, err = run(capsys, "validate", FIXTURES / "line_pencil.json")
    assert code == 2 and "NotCertified" in err


def test_validate_step_without_box(capsys):
    # the box defaults to [-2, 2], so --step alone sets the grid
    code, out, err = run(capsys, "validate", FIXTURES / "m1_distinct.json", "--step", "1")
    assert code == 0 and len(out.splitlines()) == 25 and "25 points, 0 failures" in err
    code, out, err = run(capsys, "validate", FIXTURES / "m1_distinct.json", "--step", "abc")
    assert code == 2 and out == "" and "bad box/step" in err
    # a box of other than two values and a step <= 0 are refused by option
    # name, for both grid verbs
    verbs = (("validate", "m1_distinct.json"), ("slice", "polygon9.json", "--fix", "x0=0"))
    for (verb, name, *fix), ((box, step), refusal) in itertools.product(verbs, [
            (("0,1,2", "1"), '--box takes "lo,hi", got \'0,1,2\''),
            (("2", "1"), '--box takes "lo,hi", got \'2\''),
            (("0,2", "0"), "--step must be positive, got '0'"),
            (("0,2", "-1/2"), "--step must be positive, got '-1/2'")]):
        code, out, err = run(capsys, verb, FIXTURES / name, *fix, f"--box={box}", f"--step={step}")
        assert (code, out, err) == (2, "", f"error: {refusal}\n"), (verb, box, step)


def test_values_starting_with_a_dash_need_the_equals_form(capsys):
    # argparse takes -1,0, -2,2 and -1/2 after a space for options, so it
    # refuses them; the help of --at, --box and --step names the = form
    m1, ray = FIXTURES / "m1_distinct.json", FIXTURES / "quadrant_ray.json"
    for argv, option in (
        (("member", m1, "--at", "-1,0"), "--at"),
        (("slice", ray, "--fix", "x0=0", "--box", "-2,2", "--step", "1"), "--box"),
        (("validate", ray, "--step", "-1/2"), "--step"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", argv
        assert f"argument {option}: expected one argument" in err, argv
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert f"a value starting with - needs the = form, {option}=VALUE" in text, argv
    # the = forms are read; test_validate_step_without_box reads --step=-1/2
    assert run(capsys, "member", m1, "--at=-1,0")[:2] == (
        1, '{"member": false, "predicate": "metzler"}\n')
    code, out, _ = run(capsys, "slice", ray, "--fix", "x0=0", "--box=-2,2", "--step", "1")
    assert code == 0 and out.splitlines()[1:3] == ["-2,-2,1", "-2,-1,1"]


def test_validate_needs_no_psd_bound(capsys):
    # PSD testing has no dimension bound: --psd-bound is accepted and ignored
    code, out, err = run(capsys, "validate", FIXTURES / "polygon9.json", "--max-m", "9")
    assert code == 0 and "729 points, 0 failures" in err
    assert run(capsys, "validate", FIXTURES / "polygon9.json", "--max-m", "9", "--psd-bound", "2")[1] == out


def test_validate_wide_denominators_within_seconds(capsys, tmp_path):
    # 20-digit denominators put the lift on a lattice of about 2,400 bits,
    # where eliminating a 4 x 4 lift is slow: the points inside the inner
    # set take PSD from the sandwich lemma, so none is eliminated
    path = tmp_path / "wide20.json"
    path.write_text(json.dumps(wide_denominator_pencil(20)))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", path, "--step", "1")
    assert time.perf_counter() - start < 5
    assert code == 0 and err == "625 points, 0 failures\n"
    assert out.count('"member": true') > 0


def _certified_pencils(seed: int):
    """(pencil, homogeneous): one seeded pencil with a certificate for each
    of 1, 2 and 3 free coordinates, homogeneous and affine, m = 2 or 3."""
    rng = random.Random(seed)
    wanted = [(free, homogeneous) for free in (1, 2, 3) for homogeneous in (True, False)]
    while wanted:
        pencil = random_pencil(rng, max_m=3, max_n=4, value_pool=3)
        for free, homogeneous in wanted:
            if pencil.m > 1 and pencil.n == free + (not homogeneous) and isinstance(
                    certify_generic_general(pencil), Certificate):
                wanted.remove((free, homogeneous))
                yield pencil, homogeneous
                break


def test_validate_prints_cross_validate_records(capsys, tmp_path):
    # the verb's row-kernel driver against the per-point reference driver on
    # the same grid: every fixture, then seeded certified pencils with one,
    # two and three free coordinates, each homogeneous and affine; each case
    # also on a box whose lo is no multiple of its step, where the walk's
    # classes of translates start off the integers; then two planted pencils
    # rich in member points on their default grids, where most points run
    # the piece check
    box = ["--box=-5/3,2", "--step", "2/3"]
    cases = [(FIXTURES / name, ["--max-m", "9", *flags]) for name in sorted(
        p.name for p in FIXTURES.glob("*.json")) for flags in ([], box)]
    for i, (pencil, homogeneous) in enumerate(_certified_pencils(15)):
        path = tmp_path / f"certified{i}.json"
        path.write_text(json.dumps(pencil_to_obj(pencil, homogeneous=homogeneous)))
        cases += [(path, flags) for flags in (["--step", "1/2"], ["--step", "1/3"], box)]
    for cls, index, mu in PLANTED_RICH:
        path = tmp_path / f"planted_{cls}_{index}.json"
        path.write_text(json.dumps(planted_doc(cls, index, mu)))
        cases.append((path, []))
    free_counts, verdicts, null_psd = set(), set(), set()
    for path, flags in cases:
        code, out, err = run(capsys, "validate", path, *flags)
        pencil, homogeneous = load_pencil(path)
        lead = () if homogeneous else (Fraction(0),)
        free = pencil.n - len(lead)
        lo = Fraction(-5, 3) if box[0] in flags else -2
        step = flags[-1] if "--step" in flags else "1/2"
        grid = [lead + x for x in itertools.product(grid_axis(free, lo, 2, Fraction(step)),
                                                     repeat=free)]
        try:
            records = cross_validate(pencil, grid, max_m=9)
        except NotCertified:
            assert code == 2 and out == "" and "NotCertified" in err, path.name
            continue
        assert out == "".join(json.dumps(rec.to_obj()) + "\n" for rec in records), (
            path.name, flags)
        assert err == f"{len(grid)} points, 0 failures\n" and code == 0
        free_counts.add((free, homogeneous))
        verdicts.update((free, rec.member) for rec in records)
        if '"psd": null' in out:
            null_psd.add(path.name)
    assert free_counts >= {(f, h) for f in (1, 2, 3) for h in (True, False)}
    assert verdicts == {(f, v) for f in (1, 2, 3) for v in (True, False)}
    # quadrant_ray's member points leave psd unset: its lines print a null
    assert "quadrant_ray.json" in null_psd


#: sha256 of '{"status": "generic"}\n', the whole output of a certificate
GENERIC = "4f429625e4b3e050bea96589ea06e28a3378c30d90362319e8025c0d88b47d55"

#: Every pinned CLI output, as (argv, exit code, sha256 of stdout or its
#: first 16 hex digits, seconds allowed or None). Witnesses, records and
#: rasters are exact, so a faster kernel must leave every byte as it is.
#: The second word of argv names a fixture, a file of PIN_TEXTS, a pool entry
#: "cls:index" of perfbench/corpus.py's pencil_doc or a planted pencil
#: "cls:index:mu" of helpers.planted_doc.
CLI_PINS = [
    # generic at --max-m 9 on every fixture; line_pencil's witness names the
    # full support, "stratum": [0, 1, 2]
    ("generic affine_quadrant.json --max-m 9", 0, GENERIC, None),
    ("generic line_pencil.json --max-m 9", 1,
     "b86de15c41aae04c94887bda679966b0b172644f6bcf8c7de02ffbfc492a28a8", None),
    ("generic m1_distinct.json --max-m 9", 0, GENERIC, None),
    ("generic polygon9.json --max-m 9", 0, GENERIC, 10),
    ("generic quadrant_ray.json --max-m 9", 0, GENERIC, None),
    # corpus pencils past the benchmark's sizes: two certify, one has a witness
    ("generic N5x5p7:3 --max-m 9 --max-n 9", 0, GENERIC, 60),
    ("generic M5x5p7:0 --max-m 9 --max-n 9", 0, GENERIC, 60),
    ("generic N4x5p7:0 --max-m 9 --max-n 9", 1, "2af5d4c860277168", 60),
    # planted pencils "cls:index:mu" of helpers.planted_doc, rich in member
    # points of a non-Metzler pencil, whose lines print "psd": null
    ("validate N5x3p7:5:0 --max-m 9 --max-n 9", 0, "ef1e4d22c70fa312", 10),
    ("validate N5x3p7:0:0 --max-m 9 --max-n 9", 0, "5a37d969956fca3b", 10),
    # validate on each certified fixture; quadrant_ray is not Metzler, so its
    # member points check the pieces of their sigma, and affine_quadrant's
    # lines start with the fixed coordinate x0 = 0
    ("validate polygon9.json --max-m 9 --psd-bound 9", 0,
     "80ae63f78e1dbd92953ba03ede73a70c8e26260c96e3de8c3b42d6f240340859", None),
    ("validate polygon9.json --max-m 9", 0,
     "80ae63f78e1dbd92953ba03ede73a70c8e26260c96e3de8c3b42d6f240340859", None),
    ("validate quadrant_ray.json", 0,
     "e91c46363e972ce661596a07fdf1aaccc85c55d0218e2853888e8aecc47b41ed", None),
    ("validate m1_distinct.json", 0,
     "c568f0f53932110834d3740321334421f6d431db6b90c6c33b721cf0058f4d4d", None),
    ("validate affine_quadrant.json", 0,
     "ab4a569184e054b9b2bc64e9ac216540e7fea8c158da43a240f7add78789caa1", None),
    # steps whose lattice scale exceeds the integer points' own, and boxes
    # whose lo is no multiple of the step, where classes of translates start
    # off the integers
    ("validate m1_distinct.json --box=-1,1 --step 1/3", 0,
     "9e332f01ed96907cf0b4db2e20ee07392d4e39b123691c6144d6508052ffaca2", None),
    ("validate quadrant_ray.json --step 1/3", 0, "409ed7dfd9a8acde", None),
    ("validate quadrant_ray.json --box=-5/3,2 --step 2/3", 0, "d63d7a2525b504ee", None),
    ("validate polygon9.json --max-m 9 --box=-5/3,2 --step 2/3", 0, "57eb4a4caf1544c5", None),
    # 4,913 points in 817 classes, then 35,937 points each, where the walk's
    # per-point cost dominates; affine_quadrant's 1,089 points are each their
    # own class
    ("validate polygon9.json --max-m 9 --step 1/4", 0, "9e0c7598b96a5e96", 60),
    ("validate quadrant_ray.json --step 1/8", 0, "cf25ef59550abe3c", 60),
    ("validate polygon9.json --max-m 9 --step 1/8", 0, "4baf1d5cdb0eb124", 60),
    ("validate affine_quadrant.json --step 1/8", 0, "44bf4131c5bc2787", 60),
    # one free coordinate: the grid is a single row of the slice kernel, on
    # its own and behind an affine file's fixed lead
    ("validate m2n1.json", 0, "487b9f9b17250c96", None),
    ("validate affine_m1n1.json", 0, "d22d09acb1229eec", None),
    # the raster benchmark's two fixture calls, then boxes whose lo is
    # negative and off the integers, 263,169 points of polygon9, and a slice
    # through x0 = -inf
    ("slice polygon9.json --fix x0=0 --box 0,8 --step 1/8", 0, "6a11828e54a8408c", None),
    ("slice quadrant_ray.json --fix x0=0 --box=-4,4 --step 1/8", 0, "aeb42148dcd4b69b", None),
    ("slice quadrant_ray.json --fix x0=0 --box=-7/3,3 --step 1/3", 0, "417e89216e05cc16", None),
    ("slice polygon9.json --fix x0=0 --box=-5/3,8 --step 2/3", 0, "68fe3a0f918a5416", None),
    ("slice polygon9.json --fix x0=0 --box 0,8 --step 1/64", 0, "169e74d4ebc64663", 10),
    ("slice quadrant_ray.json --fix=x0=-inf --box 0,1 --step 1", 0, "d8d2350e9623d59a", None),
    # tight edges read each family's maximizers against the tops of the one
    # constraint pass
    ("hypergraph line_pencil.json --at 0,0,0", 0, "3bf78759b129c08d", None),
    ("hypergraph polygon9.json --at 0,1,4", 0, "33b8f8a87dad80d5", None),
    # the README's examples
    ("member line_pencil.json --at 0,0,0", 0, "a55f9f8391ac70dd", None),
    ("generic m1_distinct.json", 0, GENERIC, None),
    ("generic line_pencil.json", 1, "b86de15c41aae04c", None),
    ("hypergraph affine_quadrant.json --at 0,0", 0, "93ba663ab2c1f63c", None),
    ("decompose quadrant_ray.json --diamond 1,2:>=", 0, "b191b32e5a31b42b", None),
    ("validate m1_distinct.json --box=-2,2 --step 1", 0, "43febf8e1f5be230", None),
    ("slice polygon9.json --fix x0=0 --box 0,8 --step 1/2", 0, "20c1ab2e549a680a", None),
]

#: m2n1.json of the pins: one variable, m = 2, n = 1 homogeneous
M2N1 = ('{"m": 2, "n": 1, "homogeneous": true, "matrices": [{"k": 0, "entries": ['
        '{"i": 1, "j": 1, "coeff": "+0"}, {"i": 1, "j": 2, "coeff": "+1"}, '
        '{"i": 2, "j": 2, "coeff": "+3"}]}]}')

#: The pencil files a pin's argv names by their text: m2n1.json, and
#: affine_m1n1.json, m = 1 with constant +0 and one variable of coefficient
#: -1, whose members are x1 <= -1
PIN_TEXTS = {
    "m2n1.json": M2N1,
    "affine_m1n1.json": '{"m": 1, "n": 1, "homogeneous": false, "matrices": ['
                        '{"k": 0, "entries": [{"i": 1, "j": 1, "coeff": "+0"}]}, '
                        '{"k": 1, "entries": [{"i": 1, "j": 1, "coeff": "-1"}]}]}',
}


def _pin_file(name, tmp_path):
    """The pencil file that a pin's argv names."""
    if name in PIN_TEXTS:
        text = PIN_TEXTS[name]
    elif name.count(":") == 1:
        cls, index = name.split(":")
        text = json.dumps(pool_doc(cls, int(index)))
    elif ":" in name:
        cls, index, mu = name.split(":")
        text = json.dumps(planted_doc(cls, int(index), Fraction(mu)))
    else:
        return FIXTURES / name
    path = tmp_path / "pencil.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("argv, want, digest, seconds", CLI_PINS,
                         ids=[pin[0].replace(" ", "_") for pin in CLI_PINS])
def test_cli_pin(capsys, tmp_path, argv, want, digest, seconds):
    verb, name, *flags = argv.split()
    path = _pin_file(name, tmp_path)
    start = time.perf_counter()
    code, out, _ = run(capsys, verb, path, *flags)
    elapsed = time.perf_counter() - start
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:len(digest)]) == (want, digest)
    assert seconds is None or elapsed < seconds, elapsed


def test_every_fixture_has_a_generic_pin():
    pinned = {argv.split()[1] for argv, *_ in CLI_PINS
              if argv.startswith("generic ") and argv.endswith(".json --max-m 9")}
    assert pinned == {p.name for p in FIXTURES.glob("*.json")}


def test_cli_determinism(capsys):
    first = run(capsys, "slice", FIXTURES / "polygon9.json", "--fix", "x0=0",
                "--box", "0,8", "--step", "1/2")
    second = run(capsys, "slice", FIXTURES / "polygon9.json", "--fix", "x0=0",
                 "--box", "0,8", "--step", "1/2")
    assert first == second
    g1 = run(capsys, "generic", FIXTURES / "line_pencil.json")
    g2 = run(capsys, "generic", FIXTURES / "line_pencil.json")
    assert g1 == g2


def test_every_fixture_parses_and_round_trips():
    from tropsdp.pencils import load_pencil, pencil_from_obj, pencil_to_obj

    fixtures = sorted(FIXTURES.glob("*.json"))
    assert fixtures
    for path in fixtures:
        pencil, homogeneous = load_pencil(path)
        roundtrip = pencil_from_obj(pencil_to_obj(pencil, homogeneous))
        assert roundtrip == (pencil, homogeneous)


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "generic", FIXTURES / "m1_distinct.json")[0] == 0
    assert run(capsys, "member", FIXTURES / "line_pencil.json", "--at", "0,0,0")[0] == 0
    assert built == []


def test_main_keeps_no_state_between_calls(capsys):
    polygon = ("slice", FIXTURES / "polygon9.json", "--box", "0,8", "--step", "1")
    assert run(capsys, *polygon, "--fix", "x0=0")[0] == 0
    code, out, err = run(capsys, *polygon)
    assert code == 2 and out == "" and "need exactly 2 free variables" in err
    first = run(capsys, "validate", FIXTURES / "m1_distinct.json")
    assert run(capsys, "validate", FIXTURES / "m1_distinct.json", "--step", "1")[0] == 0
    assert run(capsys, "validate", FIXTURES / "m1_distinct.json") == first


def _fresh_cli(*argv):
    """The ``python -m tropsdp.cli`` process run on argv, in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    return subprocess.run(
        [sys.executable, "-m", "tropsdp.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )


def test_fresh_interpreter_matches_in_process_main(capsys):
    fresh = _fresh_cli("generic", FIXTURES / "m1_distinct.json")
    code, out, _ = run(capsys, "generic", FIXTURES / "m1_distinct.json")
    assert (fresh.returncode, fresh.stdout) == (code, out)
    fresh = _fresh_cli("--help")
    assert fresh.returncode == 0
    assert "{member,generic,decompose,hypergraph,validate,slice}" in fresh.stdout


def _seeded_slice_files(tmp_path):
    """Seeded pencils with three file coordinates: homogeneous ones, and
    affine ones whose constant matrix is a seeded diagonal."""
    rng = random.Random(61)
    paths = []
    while len(paths) < 6:
        pencil = random_pencil(rng, max_m=3, max_n=3, metzler=len(paths) % 3 == 0, value_pool=3)
        if pencil.n != 3:
            continue
        homogeneous = len(paths) % 2 == 0
        if not homogeneous:
            q0 = pencil_of(pencil.m, 1, {(0, i, i): pos(rng.randint(-3, 3)) for i in range(pencil.m)})
            pencil = homogenize(q0.matrices[0], pencil)
        path = tmp_path / f"seeded{len(paths)}.json"
        path.write_text(json.dumps(pencil_to_obj(pencil, homogeneous)))
        paths.append(path)
    return paths


def test_fix_takes_minus_inf_like_at(capsys, tmp_path):
    # --fix reads its value as --at reads a coordinate: each verdict of a
    # slice through x_k = -inf is general_member's at that point
    files = [FIXTURES / "quadrant_ray.json", FIXTURES / "polygon9.json"]
    files += _seeded_slice_files(tmp_path)
    verdicts = set()
    for path in files:
        pencil, homogeneous = load_pencil(path)
        assert pencil.n - (not homogeneous) == 3
        for k in range(3):
            code, out, err = run(capsys, "slice", path, f"--fix=x{k}=-inf", "--box=-2,2",
                                 "--step", "1/2")
            assert code == 0 and err == "", (path, k, err)
            lines = out.splitlines()
            assert lines[0] == "x1,x2,member" and len(lines) == 1 + 9 * 9
            free = [j for j in range(3) if j != k]
            for line in lines[1:]:
                a, b, member = line.split(",")
                x = [MINUS_INF] * 3
                x[free[0]], x[free[1]] = Fraction(a), Fraction(b)
                if not homogeneous:
                    x = [Fraction(0), *x]
                assert member == str(int(general_member(pencil, x))), (path, x)
                verdicts.add(member)
    assert verdicts == {"0", "1"}
    # a --fix value is one coordinate
    code, out, err = run(capsys, "slice", FIXTURES / "quadrant_ray.json", "--fix=x0=0,1",
                         "--box", "0,1", "--step", "1")
    assert code == 2 and out == "" and "bad --fix 'x0=0,1'" in err


def test_closed_stdout_exits_141_quietly():
    # a raster of 263,169 rows and a grid of 912,673 points, each far past
    # any pipe buffer: the reader takes one line and hangs up, and the
    # writer exits 141 with nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    polygon = FIXTURES / "polygon9.json"
    for argv, first in [
        (["slice", polygon, "--fix", "x0=0", "--box", "0,8", "--step", "1/64"],
         b"x1,x2,member\n"),
        (["validate", polygon, "--max-m", "9", "--step", "1/24"],
         b'{"x": ["-2", "-2", "-2"], "member": false, '),
    ]:
        proc = subprocess.Popen([sys.executable, "-m", "tropsdp.cli", *map(str, argv)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(first), argv[0]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), argv[0]
