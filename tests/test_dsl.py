import json
from pathlib import Path

import pytest

from groupspec.dsl import DslError, Interpreter, parse_program, run_program
from groupspec import export as export_mod
from groupspec.fingroup import symmetric
from groupspec.gobject import identity_object
from groupspec.spectrum import spectrum


def test_parse_error_carries_line_and_col():
    with pytest.raises(DslError) as e:
        parse_program("group A = cyclic(2)\ngroup B = cyclic(x)\n")
    assert e.value.line == 2
    assert e.value.col > 1


def test_undefined_reference_rejected_at_parse_time():
    with pytest.raises(DslError, match="undefined reference"):
        parse_program("spec Nope\n")
    with pytest.raises(DslError, match="undefined reference"):
        parse_program("group A = cyclic(2)\nggroup X = (A -> B) via id\n")


def test_unknown_statement_and_trailing_tokens():
    with pytest.raises(DslError, match="unknown statement"):
        parse_program("frobnicate A\n")
    with pytest.raises(DslError, match="trailing"):
        parse_program("group A = cyclic(2) extra\n")


def test_comments_and_blank_lines_ignored():
    prog = parse_program("# nothing\n\ngroup A = cyclic(3)  # inline\n")
    assert len(prog.statements) == 1


def test_basic_program_runs():
    interp = run_program(
        "group S5 = sym(5)\n"
        "ggroup X = (S5 -> S5) via id\n"
        "spec X --variant t2 --prime-def quotient as S\n"
        "sections S whole\n"
        "stalk S 0\n"
    )
    text = "\n".join(interp.outputs)
    assert "2 primes" in text
    assert "order 120" in text


def test_spec_on_bare_group_uses_identity_object():
    interp = run_program("group Z2 = cyclic(2)\nspec Z2 --variant t2 as S\n")
    assert "1 primes" in interp.outputs[-1]


def test_word_and_variety_commands():
    interp = run_program(
        "group A5 = alt(5)\n"
        "word w over (A5, 1) = X1^2\n"
        "variety A5 1 w as V\n"
    )
    assert "16 points" in interp.outputs[-1]


def test_word_parse_failure_is_dsl_error():
    with pytest.raises(DslError):
        run_program("group A = cyclic(2)\nword w over (A, 1) = X9\n")


def test_morphism_and_glue_commands():
    interp = run_program(
        "group S5 = sym(5)\n"
        "ggroup X = (S5 -> S5) via id\n"
        "morphism (X -> X) via id --variant t2\n"
        "spec X --variant t2 as S\n"
        "glue S 0 S 0 as D\n"
        "sections D whole\n"
    )
    text = "\n".join(interp.outputs)
    assert "3 points" in text
    assert "order 120" in text


def test_check_command_reports_findings():
    interp = run_program("check t2-defs-diverge\n")
    assert sum("FINDING" in line for line in interp.outputs) == 2
    assert not interp.audit_failed


def test_export_json_roundtrip_and_determinism():
    obj = identity_object(symmetric(5), "S5")
    s = spectrum(obj, "t2")
    payload = export_mod.spectrum_to_json(s)
    assert payload == export_mod.spectrum_to_json(s)
    data = json.loads(payload)
    rebuilt = export_mod.spectrum_from_dict(data, obj)
    assert [P.members.members for P in rebuilt.primes] == [P.members.members for P in s.primes]


def test_export_dot_contains_specialization_edge():
    obj = identity_object(symmetric(5), "S5")
    dot = export_mod.spectrum_to_dot(spectrum(obj, "t2")).decode()
    assert "p0 -> p1" in dot
    assert '"{1}"' in dot and '"N60"' in dot


def test_export_via_program(tmp_path):
    out = tmp_path / "spec.json"
    interp = run_program(
        "group S5 = sym(5)\n"
        "ggroup X = (S5 -> S5) via id\n"
        "spec X --variant t2 as S\n"
        f"export S --format json --out {out}\n"
    )
    data = json.loads(out.read_text())
    assert data["carrier_order"] == 120
    assert len(data["primes"]) == 2


def test_open_set_literals_are_one_token():
    prog = parse_program(
        "group S5 = sym(5)\n"
        "spec S5 --variant t2 as S\n"
        "sections S 0,1\n"
        "glue S 0,1 S 0 as D\n"
        "ggroup X = (S5 -> S5) via [0,1,2]\n"
    )
    sections, glue, ggroup = prog.statements[2:]
    assert sections.data["arg"] == "0,1"
    assert (glue.data["u1"], glue.data["u2"]) == (frozenset({0, 1}), frozenset({0}))
    assert ggroup.data["images"] == [0, 1, 2]
    interp = run_program(
        "group S5 = sym(5)\n"
        "spec S5 --variant t2 as S\n"
        "sections S 0,1\n"
        "glue S 0,1 S 0,1 as D\n"
    )
    assert interp.outputs[2] == "sections S over [0, 1]: group of order 120"
    assert interp.outputs[3].startswith("glued scheme: 2 points")


def test_stalk_on_glued_scheme_takes_a_point_index():
    interp = run_program(
        "group S5 = sym(5)\n"
        "spec S5 --variant t2 as S\n"
        "glue S 0 S 0 as D\n"
        "stalk D 2 as T\n"
    )
    # point #2 of the doubled-point scheme is ("R", 1), the second closed point
    assert interp.outputs[3] == (
        "stalk D at #2: order 120, quotient comparison surjective=True injective=True"
    )
    assert interp.env["T"].open_set == frozenset({("L", 0), ("R", 1)})


def test_statements_share_one_scheme_per_spectrum():
    interp = run_program(
        "group S4 = sym(4)\n"
        "spec S4 --variant t2 as S\n"
        "spec S4 --variant t2 as T\n"
        "sections S whole as G\n"
        "morphism (S4 -> S4) via id --variant t2 as M\n"
    )
    m = interp.env["M"]
    assert interp.env["S"] is interp.env["T"]
    assert m.source is m.target
    assert m.target.spectrum is interp.env["S"]
    assert m.target.section_group(frozenset(m.target.points)) is interp.env["G"]
    assert not any(k.startswith("_scheme:") for k in interp.env)


_Z2 = "group Z2 = cyclic(2)\n"
_SPEC = _Z2 + "spec Z2 as S\n"


# (program, message, line, column) for every parse-error path; the failing
# statement is the program's last line.
@pytest.mark.parametrize("program, message, line, col", [
    ("frobnicate A\n", "unknown statement 'frobnicate'", 1, 1),
    ("42\n", "expected statement keyword", 1, 1),
    ("group A = cyclic(2) $\n", "bad character '$'", 1, 21),
    # group
    ("group A = cyclic(2) extra\n", "unexpected trailing 'extra'", 1, 21),
    ("group A = cyclic(2) as B\n", "unexpected trailing 'as'", 1, 21),
    ("group A = nope(2)\n", "unknown group constructor 'nope'", 1, 11),
    ("group A cyclic(2)\n", "expected '=', got 'cyclic'", 1, 9),
    (_Z2 + "group P = product(A, Z2)\n", "undefined reference 'A'", 2, 1),
    (_Z2 + "group P = product(Z2, B)\n", "undefined reference 'B'", 2, 1),
    # ggroup
    ("ggroup X = (Z2 -> B) via id\n", "undefined reference 'Z2'", 1, 1),
    (_Z2 + "ggroup X = (B -> Z2) via id\n", "undefined reference 'B'", 2, 1),
    (_Z2 + "ggroup X = (Z2 -> Z2) via id extra\n", "unexpected trailing 'extra'", 2, 30),
    (_Z2 + "ggroup X = (Z2 -> Z2) via id as Y\n", "unexpected trailing 'as'", 2, 30),
    (_Z2 + "ggroup X = (Z2 -> Z2) id\n", "expected 'via'", 2, 23),
    (_Z2 + "ggroup X = (Z2 -> Z2) over id\n", "expected 'via'", 2, 23),
    (_Z2 + "ggroup X = (Z2 -> Z2) via idd\n", "expected 'id' or '[images]'", 2, 27),
    (_Z2 + "ggroup X = (Z2 -> Z2) via\n", "expected 'id' or image list", 2, 26),
    (_Z2 + "ggroup X = (Z2 -> Z2) via [0, x]\n", "expected element index", 2, 31),
    (_Z2 + "ggroup X = (Z2 Z2) via id\n", "expected '->', got 'Z2'", 2, 16),
    # word: the literal runs to the end of the line, so `as` can only come early
    ("word w over (B, 1) = X1\n", "undefined reference 'B'", 1, 1),
    (_Z2 + "word w as v over (Z2, 1) = X1\n", "expected 'over'", 2, 8),
    (_Z2 + "word w (Z2, 1) = X1\n", "expected 'over'", 2, 8),
    (_Z2 + "word w over (Z2, 1) X1\n", "expected '=', got 'X1'", 2, 21),
    # spec
    ("spec Nope\n", "undefined reference 'Nope'", 1, 1),
    (_Z2 + "spec Z2 extra\n", "unexpected trailing 'extra'", 2, 9),
    (_Z2 + "spec Z2 as\n", "expected result name", 2, 11),
    (_Z2 + "spec Z2 as S extra\n", "unexpected trailing 'extra'", 2, 14),
    # variety
    ("variety B 1\n", "undefined reference 'B'", 1, 1),
    (_Z2 + "variety Z2 1 w\n", "undefined reference 'w'", 2, 1),
    (_Z2 + "variety Z2 x\n", "expected variable count", 2, 12),
    (_Z2 + "variety Z2 1 as\n", "expected result name", 2, 16),
    (_Z2 + "variety Z2 1 as V 3\n", "unexpected trailing '3'", 2, 19),
    # sections
    ("sections S whole\n", "undefined reference 'S'", 1, 1),
    (_SPEC + "sections S whole extra\n", "unexpected trailing 'extra'", 3, 18),
    (_SPEC + "sections S whole as\n", "expected result name", 3, 20),
    (_SPEC + "sections S\n", "unexpected end of line", 3, 11),
    # stalk
    ("stalk S 0\n", "undefined reference 'S'", 1, 1),
    (_SPEC + "stalk S 0 extra\n", "unexpected trailing 'extra'", 3, 11),
    (_SPEC + "stalk S 0 as\n", "expected result name", 3, 13),
    # morphism
    (_Z2 + "morphism (Z2 -> B) via id\n", "undefined reference 'B'", 2, 1),
    (_Z2 + "morphism (Z2 -> Z2) via idd\n", "expected 'id' or '[images]'", 2, 25),
    (_Z2 + "morphism (Z2 -> Z2) over id\n", "expected 'via'", 2, 21),
    (_Z2 + "morphism (Z2 -> Z2) id\n", "expected 'via'", 2, 21),
    (_Z2 + "morphism (Z2 -> Z2) via id extra\n", "unexpected trailing 'extra'", 2, 28),
    (_Z2 + "morphism (Z2 -> Z2) via id as\n", "expected result name", 2, 30),
    # glue
    ("glue T 0 S 0\n", "undefined reference 'T'", 1, 1),
    (_SPEC + "glue S 0 T 0\n", "undefined reference 'T'", 3, 1),
    (_SPEC + "glue S nope S 0\n", "bad open set 'nope' (use whole, empty or 0,1,..)", 3, 8),
    (_SPEC + "glue S 0 S 0 extra\n", "unexpected trailing 'extra'", 3, 14),
    (_SPEC + "glue S 0 S 0 as\n", "expected result name", 3, 16),
    (_SPEC + "glue S 0 S\n", "unexpected end of line", 3, 11),
    # check
    ("check prop2.1 extra\n", "unexpected trailing 'extra'", 1, 15),
    ("check prop2.1 as R\n", "unexpected trailing 'as'", 1, 15),
    ("check 5\n", "expected suite id", 1, 7),
    # export
    ("export Nope\n", "undefined reference 'Nope'", 1, 1),
    (_SPEC + "export S extra\n", "unexpected trailing 'extra'", 3, 10),
    (_SPEC + "export S as T\n", "unexpected trailing 'as'", 3, 10),
])
def test_parse_errors(program, message, line, col):
    with pytest.raises(DslError) as e:
        parse_program(program)
    assert (str(e.value), e.value.line, e.value.col) == (
        f"line {line}, column {col}: {message}", line, col
    )


def test_word_literal_runs_to_the_end_of_the_line():
    prog = parse_program(_Z2 + "word w over (Z2, 1) = X1 as v\n")
    assert prog.statements[1].data["literal"] == "X1 as v"


def test_readme_grammar_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Program files", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    kinds = [st.kind for st in parse_program(block).statements]
    assert kinds == [
        "group", "group", "group", "ggroup", "word", "spec", "variety",
        "sections", "stalk", "morphism", "glue", "check", "export",
    ]
