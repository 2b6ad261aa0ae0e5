import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from groupspec.cli import main


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_program_success(tmp_path, capsys):
    f = tmp_path / "prog.gs"
    f.write_text(
        "group S5 = sym(5)\n"
        "ggroup X = (S5 -> S5) via id\n"
        "spec X --variant t2 --prime-def quotient as S\n"
    )
    code, out, err = _run(["run", str(f)], capsys)
    assert code == 0
    assert "2 primes" in out


def test_run_parse_error_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.gs"
    f.write_text("group A = cyclic(nope)\n")
    code, out, err = _run(["run", str(f)], capsys)
    assert code == 1
    assert "line 1" in err


def test_run_missing_file_exit_1(capsys):
    code, out, err = _run(["run", "/does/not/exist.gs"], capsys)
    assert code == 1


def test_run_computation_error_exit_2(tmp_path, capsys):
    f = tmp_path / "boom.gs"
    f.write_text("group A = cyclic(0)\n")
    code, out, err = _run(["run", str(f)], capsys)
    assert code == 2


def test_check_pass_exit_0(capsys):
    code, out, err = _run(["check", "prop3.4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_check_findings_exit_0(capsys):
    code, out, err = _run(["check", "t2-defs-diverge"], capsys)
    assert code == 0
    assert out.count("FINDING") == 2


def test_check_unknown_suite_exit_1(capsys):
    code, out, err = _run(["check", "nope"], capsys)
    assert code == 1
    assert "unknown suite" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "prop2.1", "--catalog", "nope"], "argument --catalog: invalid choice: 'nope'"),
    (["check", "prop2.1", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["check"], "the following arguments are required: suite"),
])
def test_usage_error_exit_1(argv, message, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1, err


def test_check_json_format(capsys):
    code, out, err = _run(["check", "t2-defs-diverge", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert {r["status"] for r in records} == {"finding"}
    assert all(r["repro"].startswith("groupspec check") for r in records)


def test_check_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = _run(
        ["check", "prop3.4", "--format", "json", "--out", str(out_path)], capsys
    )
    assert code == 0
    records = json.loads(out_path.read_text())
    assert all(r["status"] == "pass" for r in records)


def test_suites_listing(capsys):
    code, out, err = _run(["suites"], capsys)
    assert code == 0
    names = out.split()
    assert "prop2.1" in names and "thm5.1" in names and len(names) == 24


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_process(argv, tmp_path):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "groupspec.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    return proc.returncode, proc.stderr


def _run_program_process(text, tmp_path):
    f = tmp_path / "prog.gs"
    f.write_text(text)
    return _run_process(["run", str(f)], tmp_path)


def _assert_one_line(err):
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err


def test_run_missing_table_file_exit_1(tmp_path):
    code, err = _run_program_process("group G = table missing.txt\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert "missing.txt" in err


def test_run_non_integer_table_token_exit_1(tmp_path):
    (tmp_path / "z2.txt").write_text("order 2\n0 1\n1 x\n")
    code, err = _run_program_process("group G = table z2.txt\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert "'1 x'" in err


def test_run_out_of_range_image_exit_1(tmp_path):
    code, err = _run_program_process(
        "group S3 = sym(3)\nggroup X = (S3 -> S3) via [0, 1, 2, 3, 4, 9]\n", tmp_path
    )
    assert code == 1
    _assert_one_line(err)
    assert "image 9 out of range" in err


@pytest.mark.parametrize("images", ["[0]", "[0, 1, 1]"])
def test_run_wrong_length_image_list_exit_1(images, tmp_path):
    code, err = _run_program_process(f"group Z2 = cyclic(2)\nggroup X = (Z2 -> Z2) via {images}\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert f"line 2, column 1: expected 2 images for Z2, got {images.count(',') + 1}" in err


def test_run_export_into_missing_directory_exit_2(tmp_path):
    code, err = _run_program_process(
        "group Z2 = cyclic(2)\nspec Z2 --variant t2 as S\nexport S --out nodir/s.json\n", tmp_path
    )
    assert code == 2
    _assert_one_line(err)


def test_check_out_into_missing_directory_exit_2(tmp_path):
    code, err = _run_process(["check", "prop3.4", "--out", "nodir/r.json"], tmp_path)
    assert code == 2
    _assert_one_line(err)


def test_run_stalk_at_missing_point_exit_2(tmp_path):
    code, err = _run_program_process(
        "group S5 = sym(5)\nspec S5 --variant t2 as S\nstalk S 9\n", tmp_path
    )
    assert code == 2
    _assert_one_line(err)
    assert "no point 9" in err


def test_run_stalk_past_glued_points_exit_2(tmp_path):
    code, err = _run_program_process(
        "group S5 = sym(5)\nspec S5 --variant t2 as S\nglue S 0 S 0 as D\nstalk D 3\n", tmp_path
    )
    assert code == 2
    _assert_one_line(err)
    assert "no point 3" in err


def test_run_identity_glue_of_glued_scheme_exit_2(tmp_path):
    code, err = _run_program_process(
        "group S5 = sym(5)\nspec S5 --variant t2 as S\nglue S 0 S 0 as D\nglue D whole S whole\n",
        tmp_path,
    )
    assert code == 2
    _assert_one_line(err)
    assert "identity gluing needs two affine schemes" in err


_S5 = "group S5 = sym(5)\nspec S5 --variant t2 as S\n"


@pytest.mark.parametrize("program, message", [
    (_S5 + "glue S 1 S 1\n", "gluing opens must be open"),
    (_S5 + "glue S 0 S 0,1\n", "identity gluing needs equal spectra and equal opens"),
    (_S5 + "spec S5 --variant t1 as T\nglue S empty T empty\n",
     "identity gluing needs equal spectra and equal opens"),
    (_S5 + "group A5 = alt(5)\nspec A5 --variant t2 as T\nglue S empty T empty\n",
     "identity gluing needs equal spectra and equal opens"),
    ("group S5 = sym(5)\ngroup Z2 = cyclic(2)\ngroup Z3 = cyclic(3)\n"
     # 24 is (1 2), and 30, 48 are (1 2 3), (1 3 2) in S5's element order
     "ggroup X = (Z2 -> S5) via [0, 24]\nggroup Y = (Z3 -> S5) via [0, 30, 48]\n"
     "spec X --variant t2 as SX\nspec Y --variant t2 as SY\nglue SX empty SY empty\n",
     "gluing schemes over different bases"),
])
def test_run_rejected_glue_exit_2(program, message, tmp_path):
    code, err = _run_program_process(program, tmp_path)
    assert code == 2
    _assert_one_line(err)
    assert message in err


def test_run_glue_with_different_structure_maps_exit_2(tmp_path):
    from groupspec.fingroup import symmetric

    S4 = symmetric(4)
    u = S4.labels.index("(3 4)")
    by_34 = [int(S4.mul[S4.mul[u, g], u]) for g in range(S4.order)]
    code, err = _run_program_process(
        "group S4 = sym(4)\n"
        f"ggroup C = (S4 -> S4) via {by_34}\n"
        "spec S4 --variant t2 as S\nspec C --variant t2 as T\nglue S 0 T 0\n",
        tmp_path,
    )
    assert code == 2
    _assert_one_line(err)
    assert "identity gluing needs equal structure maps" in err


def test_run_non_associative_large_table_exit_1(tmp_path):
    from oracles import swapped_cyclic

    m = swapped_cyclic(300, 1, 2)
    (tmp_path / "z300.txt").write_text(
        "order 300\n" + "\n".join(" ".join(str(int(x)) for x in row) for row in m) + "\n"
    )
    code, err = _run_program_process("group G = table z300.txt\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert "not associative" in err


@pytest.mark.parametrize("suite", ["prop2.1", "prop3.1"])  # catalog-driven, and not
def test_run_unknown_catalog_exit_1(suite, tmp_path):
    code, err = _run_program_process(f"check {suite} --catalog nope\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert "unknown catalog 'nope'; known: small, large" in err


@pytest.mark.parametrize("cycles, point", [("(1 1 2)", 1), ("(1 1)", 1), ("(1 2)(2 3)", 2)])
def test_run_repeated_cycle_point_exit_2(cycles, point, tmp_path):
    code, err = _run_program_process(f"group G = perm 3: {cycles}\n", tmp_path)
    assert code == 2
    _assert_one_line(err)
    assert f"cycle point {point} written twice in {cycles}" in err


@pytest.mark.parametrize("program, message", [
    ("group X = sym(-3)\n", "symmetric(n) needs n >= 0"),
    ("group X = alt(-1)\n", "alternating(n) needs n >= 0"),
    ("group X = perm -2: ()\n", "permutation degree -2 is negative"),
    ("group Z2 = cyclic(2)\nvariety Z2 -1\n", "variety_of(G, n) needs n >= 0, got -1"),
])
def test_run_negative_size_exit_2(program, message, tmp_path):
    code, err = _run_program_process(program, tmp_path)
    assert code == 2
    _assert_one_line(err)
    assert message in err


def test_run_variety_of_a_non_word_exit_1(tmp_path):
    code, err = _run_program_process("group Z2 = cyclic(2)\nvariety Z2 1 Z2\n", tmp_path)
    assert code == 1
    _assert_one_line(err)
    assert "line 2, column 1: 'Z2' is not a word" in err


@pytest.mark.parametrize("statement", [
    "spec T --variant bogus --prime-def nope",
    "morphism (T -> T) via id --variant bogus",
])
def test_run_unknown_variant_on_the_trivial_group_exit_2(statement, tmp_path):
    code, err = _run_program_process(f"group T = cyclic(1)\n{statement}\n", tmp_path)
    assert code == 2
    _assert_one_line(err)
    assert "unknown variant 'bogus'" in err


def test_run_variety_past_the_point_cap_exit_2(tmp_path):
    start = time.perf_counter()
    code, err = _run_program_process("group S5 = sym(5)\nvariety S5 4\n", tmp_path)
    assert time.perf_counter() - start < 30  # refused before any point is listed
    assert code == 2
    _assert_one_line(err)
    assert "S5^4 is too large to enumerate: the point cap is 4194304" in err
