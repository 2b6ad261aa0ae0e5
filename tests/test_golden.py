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


# `export V --format json` of six varieties: the witness words of every
# regular function are pinned with the elements.  The single point of A7
# walks its witness search in more than one gather block.
VARIETY_PROGRAM = """\
group S3 = sym(3)
group Z4 = cyclic(4)
group A4 = alt(4)
group Z2 = cyclic(2)
group D5 = dihedral(5)
group A7 = perm 7: (1 2 3 4 5 6 7); (1 4)(2 3)
word sq over (S3, 1) = X1^2
word comm over (Z4, 2) = X1 * X2 * X1^-1 * X2^-1
word sqA over (A4, 1) = X1^2
word sqD over (D5, 1) = X1^2
word one over (A7, 1) = X1
variety S3 1 sq as V1
variety Z4 2 comm as V2
variety S3 1 as V3
variety A4 1 sqA as V4
variety Z2 3 as V5
variety D5 1 sqD as V6
variety A7 1 one as V7
""" + "".join(f"export V{i} --format json\n" for i in range(1, 8))

VARIETY_SHA256 = [
    "967075ffb23388d0346298e03f5dbe47c181ffcf55966ff502447878f4793747",
    "474bfb5508be4cd46857d95372ed35cfc110104ecae59e10ae0dc48b68091c8e",
    "400d1310fa122337891c869f4d97ccc69b518b93b07175257dd5855d233801dd",
    "07a8941676bc0e0dd2907166d0af8ec1913c2adb818fe5f8353e22e5edad73e9",
    "030f62e7337c8d6890581a0fd9094b38c8270ef997210643380baa105d7ace14",
    "29351a9374da592a3f326b633b64a563c49d7f76cfd02181eb0b9b5b797e701a",
    "fb4c8c7785b3b4e7d773f1da4f2c9436669dae75bd1c4eb358567c4c33a5ae92",
]


def test_variety_exports_are_unchanged():
    interp = Interpreter()
    interp.run(parse_program(VARIETY_PROGRAM))
    exports = interp.outputs[-len(VARIETY_SHA256):]
    assert [hashlib.sha256(e.encode()).hexdigest() for e in exports] == VARIETY_SHA256
