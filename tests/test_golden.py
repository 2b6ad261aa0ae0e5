"""`groupspec check all --format json` on the large and the small catalog and
the transcript of a fixed DSL program must stay byte-identical across
refactors: their digests are pinned here."""

import hashlib

from groupspec.cli import main
from groupspec.dsl import Interpreter, parse_program

GOLDEN_SHA256 = "2c32f4bb89145c72e82a6c569ce41669feadb320356e5cb01e4ed7dacadce08b"


def test_check_all_large_json_is_unchanged(tmp_path):
    out = tmp_path / "all.json"
    main(["check", "all", "--catalog", "large", "--format", "json", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256


# The small catalog has its own repro strings (`--catalog small`) and
# cor5.1's small-catalog branch, which the large digest does not cover.
SMALL_SHA256 = "8b339c778cc582187c0ca537c8b34f24cb7cf23b29c37b938425ef2416a76fb0"


def test_check_all_small_json_is_unchanged(tmp_path):
    out = tmp_path / "all.json"
    main(["check", "all", "--catalog", "small", "--format", "json", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_SHA256


# Sections, stalks, induced morphisms (t1/t2 x both prime definitions, and one
# `via [..]` map: conjugation by (1 2 3), which fixes X's structure map),
# gluings and exports over S4xS3, S5, A4 and two objects with a nontrivial
# base.
DSL_PROGRAM = """\
group Z2 = cyclic(2)
group Z3 = cyclic(3)
group S3 = sym(3)
group S4 = sym(4)
group S5 = sym(5)
group A4 = alt(4)
group S4xS3 = product(S4, S3)
ggroup X = (Z3 -> S4) via [0, 8, 12]
ggroup Y = (Z2 -> S5) via [0, 24]
spec S4xS3 --variant t1 as P1
spec S4xS3 --variant t2 as P2
spec S4xS3 --variant t2 --prime-def quotient as P3
sections P2 whole
sections P2 0,2
stalk P2 1
stalk P3 0
morphism (S4xS3 -> S4xS3) via id --variant t1
morphism (S4xS3 -> S4xS3) via id --variant t2
morphism (S4xS3 -> S4xS3) via id --variant t1 --prime-def quotient
glue P2 whole P2 whole as G1
export G1 --format json
export P2 --format dot
export P3 --format json
spec S5 --variant t1 as S5a
spec S5 --variant t2 as S5b
spec S5 --variant t2 --prime-def quotient as S5c
sections S5a whole
sections S5b 0
stalk S5b 1
morphism (S5 -> S5) via id --variant t1
morphism (S5 -> S5) via id --variant t2
morphism (S5 -> S5) via id --variant t1 --prime-def quotient
morphism (S5 -> S5) via id --variant t2 --prime-def quotient
glue S5b 0 S5c 0 as G2
sections G2 whole
stalk G2 2
export G2 --format json
export S5c --format dot
spec A4 --variant t2 as A4b
spec A4 --variant t2 --prime-def quotient as A4c
sections A4b whole
stalk A4c 1
morphism (A4 -> A4) via id --variant t1
morphism (A4 -> A4) via id --variant t2 --prime-def quotient
glue A4b empty A4b empty as G3
sections G3 whole
export G3 --format json
export A4b --format json
spec X --variant t2 as Xb
sections Xb whole
stalk Xb 0
morphism (X -> X) via id --variant t2
morphism (X -> X) via [0, 21, 14, 20, 15, 1, 2, 23, 8, 22, 9, 3, 12, 18, 6, 19, 7, 13, 17, 4, 11, 5, 10, 16] --variant t2 --prime-def quotient
glue Xb 0 Xb 0 as G4
export G4 --format json
export Xb --format dot
spec Y --variant t2 --prime-def quotient as Yc
sections Yc whole
stalk Yc 0
morphism (Y -> Y) via id --variant t2 --prime-def quotient
morphism (Y -> Y) via id --variant t1
glue Yc whole Yc whole as G5
export G5 --format json
export Yc --format json
"""

DSL_SHA256 = "313db40e88f333e8d23d768d2aae59b750e97fa7cc062d5256ca637d5cd63efb"


def test_dsl_transcript_is_unchanged():
    interp = Interpreter()
    interp.run(parse_program(DSL_PROGRAM))
    transcript = "\n".join(interp.outputs) + "\n"
    assert hashlib.sha256(transcript.encode()).hexdigest() == DSL_SHA256
