"""A small line-oriented language for driving the library.

Declarations introduce groups, structured groups and words; commands
compute spectra, varieties, sections, morphisms, gluings, run audit
suites, and export results.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import export as export_mod
from .catalog import CATALOGS
from .fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    TableCapError,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    parse_cayley_text,
    quaternion8,
    symmetric,
    _parse_cycles,
)
from .freeprod import Word, WordContext, WordError, parse_word
from .gobject import GGroup, GMorphism, identity_object
from .spectrum import Spectrum, spectrum
from .variety import variety_of

__all__ = ["DslError", "Program", "parse_program", "Interpreter", "run_program"]


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# An open-set literal such as 0,1 (no spaces) is one token, as in
# ``sections S 0,1``; an index list ``[0,1]`` accepts it too.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<flag>--[a-z-]+)|(?P<open>\d+(?:,\d+)+)|(?P<num>-?\d+)"
    r"|(?P<name>[A-Za-z_/.][\w./^*-]*)"
    r"|(?P<lit>\*|\^|[()\[\],;:=]|->)|(?P<bad>\S))"
)


@dataclass
class Token:
    kind: str
    text: str
    col: int


def _tokenize(line: str, lineno: int) -> list[Token]:
    out = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m or m.end() == pos:
            break
        pos = m.end()
        for kind in ("flag", "open", "num", "name", "lit"):
            if m.group(kind) is not None:
                out.append(Token(kind, m.group(kind), m.start(kind) + 1))
                break
        else:
            raise DslError(f"bad character {m.group('bad')!r}", lineno, m.start("bad") + 1)
    return out


class _LineParser:
    def __init__(self, tokens: list[Token], lineno: int, raw: str):
        self.tokens = tokens
        self.lineno = lineno
        self.raw = raw
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise DslError("unexpected end of line", self.lineno, len(self.raw) + 1)
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            col = t.col if t else len(self.raw) + 1
            got = repr(t.text) if t else "end of line"
            raise DslError(f"expected {text!r}, got {got}", self.lineno, col)
        return self.next()

    def accept(self, text: str) -> bool:
        t = self.peek()
        if t is not None and t.text == text:
            self.next()
            return True
        return False

    def name(self, what: str = "name") -> str:
        t = self.peek()
        if t is None or t.kind != "name":
            col = t.col if t else len(self.raw) + 1
            raise DslError(f"expected {what}", self.lineno, col)
        return self.next().text

    def keyword(self, word: str) -> None:
        """A name token that must be ``word``."""
        if self.name(repr(word)) != word:
            raise DslError(f"expected {word!r}", self.lineno, self.tokens[self.pos - 1].col)

    def number(self, what: str = "integer") -> int:
        t = self.peek()
        if t is None or t.kind != "num":
            col = t.col if t else len(self.raw) + 1
            raise DslError(f"expected {what}", self.lineno, col)
        return int(self.next().text)

    def indices(self) -> list[int]:
        """The items of ``[i, j, ...]`` after the ``[``, through the ``]``."""
        out = []
        while True:
            t = self.peek()
            if t is not None and t.kind == "open":
                out += [int(part) for part in self.next().text.split(",")]
            else:
                out.append(self.number("element index"))
            if not self.accept(","):
                break
        self.expect("]")
        return out

    def flags(self) -> dict:
        out = {}
        while True:
            t = self.peek()
            if t is None or t.kind != "flag":
                break
            key = self.next().text[2:]
            val = self.peek()
            if val is not None and val.kind in ("name", "num"):
                out[key] = self.next().text
            else:
                out[key] = "true"
        return out

    def rest_text(self) -> str:
        """The raw remainder of the line (used for word literals)."""
        t = self.peek()
        if t is None:
            return ""
        start = self.raw.index(t.text, t.col - 1)
        self.pos = len(self.tokens)
        return self.raw[start:].strip()


@dataclass
class Statement:
    kind: str
    lineno: int
    data: dict

    @property
    def binds(self) -> Optional[str]:
        """The name the statement defines: its own, or the one after ``as``."""
        return self.data.get("name") or self.data.get("as")


@dataclass
class Program:
    statements: list[Statement]
    source: str = ""


_GROUP_MAKERS = {
    "cyclic": (cyclic, 1),
    "sym": (symmetric, 1),
    "alt": (alternating, 1),
    "dihedral": (dihedral, 1),
}

# Each statement parser reads the tokens after its keyword and returns
# (data, the names it references); ``parse_program`` does the rest.


def _parse_group(p: _LineParser) -> tuple[dict, list[str]]:
    name = p.name("group name")
    p.expect("=")
    head = p.name("group constructor")
    if head in _GROUP_MAKERS:
        p.expect("(")
        n = p.number()
        p.expect(")")
        return {"name": name, "ctor": head, "args": [n]}, []
    if head == "quaternion8":
        return {"name": name, "ctor": "quaternion8", "args": []}, []
    if head == "product":
        p.expect("(")
        a = p.name()
        p.expect(",")
        b = p.name()
        p.expect(")")
        return {"name": name, "ctor": "product", "args": [a, b]}, [a, b]
    if head == "perm":
        n = p.number("degree")
        p.expect(":")
        return {"name": name, "ctor": "perm", "args": [n, p.rest_text()]}, []
    if head == "table":
        return {"name": name, "ctor": "table", "args": [p.rest_text() or p.name("file path")]}, []
    raise DslError(f"unknown group constructor {head!r}", p.lineno, p.tokens[p.pos - 1].col)


def _arrow(p: _LineParser, source: str, target: str) -> tuple[str, str]:
    """``(A -> B) via``: the names A and B."""
    p.expect("(")
    a = p.name(source)
    p.expect("->")
    b = p.name(target)
    p.expect(")")
    p.keyword("via")
    return a, b


def _images(p: _LineParser) -> Optional[list[int]]:
    """``id`` (None) or ``[i, j, ...]``; a bad tag is reported at its own column."""
    if p.accept("["):
        return p.indices()
    if p.name("'id' or image list") != "id":
        raise DslError("expected 'id' or '[images]'", p.lineno, p.tokens[p.pos - 1].col)
    return None


def _parse_ggroup(p: _LineParser) -> tuple[dict, list[str]]:
    name = p.name("ggroup name")
    p.expect("=")
    base, carrier = _arrow(p, "base group", "carrier group")
    return {"name": name, "base": base, "carrier": carrier, "images": _images(p)}, [base, carrier]


def _parse_word(p: _LineParser) -> tuple[dict, list[str]]:
    name = p.name("word name")
    p.keyword("over")
    p.expect("(")
    group = p.name("group name")
    p.expect(",")
    n = p.number("variable count")
    p.expect(")")
    p.expect("=")
    return {"name": name, "group": group, "nvars": n, "literal": p.rest_text()}, [group]


def _parse_target(what: str):
    """The parser of ``KEYWORD NAME --flag value ...``."""
    def parse(p: _LineParser) -> tuple[dict, list[str]]:
        target = p.name(what)
        return {"target": target, "flags": p.flags()}, [target]
    return parse


def _parse_variety(p: _LineParser) -> tuple[dict, list[str]]:
    group = p.name("group name")
    n = p.number("variable count")
    words = []
    while (t := p.peek()) is not None and t.kind == "name" and t.text != "as":
        words.append(p.next().text)
    return {"group": group, "nvars": n, "words": words}, [group, *words]


def _parse_point_arg(p: _LineParser) -> tuple[dict, list[str]]:
    target = p.name("spectrum name")
    tok = p.next()
    return {"target": target, "arg": tok.text, "argcol": tok.col}, [target]


def _parse_morphism(p: _LineParser) -> tuple[dict, list[str]]:
    a, b = _arrow(p, "source object", "target object")
    return {"source": a, "target": b, "images": _images(p), "flags": p.flags()}, [a, b]


def _parse_open(text: str, lineno: int, col: int):
    if text == "whole":
        return "whole"
    if text == "empty":
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise DslError(f"bad open set {text!r} (use whole, empty or 0,1,..)", lineno, col) from None


def _parse_glue(p: _LineParser) -> tuple[dict, list[str]]:
    s1, t1 = p.name("first spectrum"), p.next()
    s2, t2 = p.name("second spectrum"), p.next()
    u1, u2 = (_parse_open(t.text, p.lineno, t.col) for t in (t1, t2))
    return {"s1": s1, "u1": u1, "s2": s2, "u2": u2}, [s1, s2]


def _parse_check(p: _LineParser) -> tuple[dict, list[str]]:
    return {"suite": p.name("suite id"), "flags": p.flags()}, []


# keyword -> (parser, whether ``as NAME`` may follow)
_STATEMENTS = {
    "group": (_parse_group, False),
    "ggroup": (_parse_ggroup, False),
    "word": (_parse_word, False),
    "spec": (_parse_target("object name"), True),
    "variety": (_parse_variety, True),
    "sections": (_parse_point_arg, True),
    "stalk": (_parse_point_arg, True),
    "morphism": (_parse_morphism, True),
    "glue": (_parse_glue, True),
    "check": (_parse_check, False),
    "export": (_parse_target("result name"), False),
}


def parse_program(text: str) -> Program:
    statements = []
    defined: set[Optional[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        p = _LineParser(_tokenize(line, lineno), lineno, line)
        kind = p.name("statement keyword")
        if kind not in _STATEMENTS:
            raise DslError(f"unknown statement {kind!r}", lineno, 1)
        parse, takes_as = _STATEMENTS[kind]
        data, refs = parse(p)
        if takes_as:
            data["as"] = p.name("result name") if p.accept("as") else None
        for ref in refs:
            if ref not in defined:
                raise DslError(f"undefined reference {ref!r}", lineno, 1)
        if (t := p.peek()) is not None:
            raise DslError(f"unexpected trailing {t.text!r}", lineno, t.col)
        statements.append(st := Statement(kind, lineno, data))
        defined.add(st.binds)
    return Program(statements, text)


# -- interpretation --------------------------------------------------------


def _map(st: Statement, source: GroupTable, target: GroupTable, same: str) -> Homomorphism:
    """The ``via`` map of a ggroup or morphism statement: the identity, which
    needs ``source is target`` (``same`` names the pair), or the images."""
    images = st.data["images"]
    if images is None:
        if source is not target:
            raise DslError(f"'via id' needs identical {same}", st.lineno, 1)
        return Homomorphism.identity(source)
    if len(images) != source.order:
        raise DslError(f"expected {source.order} images for {source.name}, got {len(images)}", st.lineno, 1)
    for x in images:
        if not 0 <= x < target.order:
            raise DslError(f"image {x} out of range for {target.name} (order {target.order})", st.lineno, 1)
    return Homomorphism(source, target, images)


@dataclass
class Interpreter:
    env: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    audit_failed: bool = False

    def emit(self, line: str) -> None:
        self.outputs.append(line)

    def run(self, program: Program) -> None:
        for st in program.statements:
            result = getattr(self, f"_do_{st.kind}")(st)
            if st.binds:
                self.env[st.binds] = result

    def _get(self, name: str, lineno: int, kind: type, what: str):
        v = self.env.get(name)
        if isinstance(v, kind):
            return v
        raise DslError(f"{name!r} is not {what}", lineno, 1)

    def _group(self, name: str, lineno: int) -> GroupTable:
        return self._get(name, lineno, GroupTable, "a group")

    def _object(self, name: str, lineno: int) -> GGroup:
        v = self.env.get(name)
        if isinstance(v, GroupTable):
            key = f"_idobj:{name}"
            if key not in self.env:
                self.env[key] = identity_object(v, name)
            return self.env[key]
        return self._get(name, lineno, GGroup, "a group or ggroup")

    def _scheme(self, name: str, lineno: int):
        from .sheaf import AffineScheme, affine_scheme

        v = self.env.get(name)
        if isinstance(v, Spectrum):
            return affine_scheme(v)
        return self._get(name, lineno, AffineScheme, "a spectrum or scheme")

    def _do_group(self, st: Statement) -> GroupTable:
        d = st.data
        if d["ctor"] in _GROUP_MAKERS:
            g = _GROUP_MAKERS[d["ctor"]][0](d["args"][0])
        elif d["ctor"] == "quaternion8":
            g = quaternion8()
        elif d["ctor"] == "product":
            g = direct_product(
                self._group(d["args"][0], st.lineno), self._group(d["args"][1], st.lineno)
            )
        elif d["ctor"] == "perm":
            degree, cycles = d["args"]
            gens = [_parse_cycles(part, degree) for part in cycles.split(";") if part.strip()]
            g = from_permutations(degree, gens, name=d["name"])
        else:  # table
            path = d["args"][0]
            # the file is program input, so a bad one is a parse error
            try:
                with open(path, encoding="utf-8") as fh:
                    g = parse_cayley_text(fh.read())
            except OSError as e:
                raise DslError(f"cannot read table {path!r}: {e.strerror}", st.lineno, 1) from None
            except TableCapError:
                raise  # a size limit, not a malformed file
            except GroupError as e:
                raise DslError(f"table {path!r}: {e}", st.lineno, 1) from None
        self.emit(f"group {d['name']}: order {g.order}")
        return g

    def _do_ggroup(self, st: Statement) -> GGroup:
        d = st.data
        base = self._group(d["base"], st.lineno)
        carrier = self._group(d["carrier"], st.lineno)
        obj = GGroup(base, carrier, _map(st, base, carrier, "base and carrier"), name=d["name"])
        self.emit(f"ggroup {d['name']}: {base.name} -> {carrier.name}")
        return obj

    def _do_word(self, st: Statement) -> Word:
        d = st.data
        ctx = WordContext(self._group(d["group"], st.lineno), d["nvars"])
        try:
            w = parse_word(ctx, d["literal"])
        except WordError as e:
            raise DslError(str(e), st.lineno, 1) from None
        self.emit(f"word {d['name']}: {w}")
        return w

    def _do_spec(self, st: Statement) -> Spectrum:
        d = st.data
        obj = self._object(d["target"], st.lineno)
        variant = d["flags"].get("variant", "t1")
        prime_def = d["flags"].get("prime-def", "elementwise")
        sp = spectrum(obj, variant, prime_def)
        self.emit(
            f"spec {d['target']} [{variant},{prime_def}]: {len(sp.primes)} primes "
            f"{[sorted(P.members.members) for P in sp.primes]}"
        )
        return sp

    def _do_variety(self, st: Statement):
        d = st.data
        G = self._group(d["group"], st.lineno)
        V = variety_of(G, d["nvars"], [self._get(w, st.lineno, Word, "a word") for w in d["words"]])
        self.emit(f"variety over {d['group']}^{d['nvars']}: {len(V.points)} points")
        return V

    def _do_sections(self, st: Statement):
        d = st.data
        X = self._scheme(d["target"], st.lineno)
        U = _parse_open(d["arg"], st.lineno, d["argcol"])
        if U == "whole":
            U = frozenset(X.points)
        G = X.section_group(U)
        self.emit(f"sections {d['target']} over {sorted(U, key=repr)}: group of order {len(G)}")
        return G

    def _do_stalk(self, st: Statement):
        d = st.data
        X = self._scheme(d["target"], st.lineno)
        try:
            k = int(d["arg"])
        except ValueError:
            raise DslError("stalk needs a prime index", st.lineno, d["argcol"]) from None
        # point #k of the scheme; X.stalk rejects an index outside the points
        group, report = X.stalk(X.points[k] if 0 <= k < len(X.points) else k)
        self.emit(
            f"stalk {d['target']} at #{k}: order {len(group)}, "
            f"quotient comparison surjective={report['surjective']} injective={report['injective']}"
        )
        return group

    def _do_morphism(self, st: Statement):
        from .sheaf import induced_morphism

        d = st.data
        A = self._object(d["source"], st.lineno)
        B = self._object(d["target"], st.lineno)
        f = GMorphism(A, B, _map(st, A.carrier, B.carrier, "carriers"))
        variant = d["flags"].get("variant", "t1")
        prime_def = d["flags"].get("prime-def", "elementwise")
        m = induced_morphism(f, variant, prime_def)
        self.emit(f"morphism Spec({d['target']}) -> Spec({d['source']}): points {m.point_map}")
        return m

    def _do_glue(self, st: Statement):
        from .sheaf import glue

        d = st.data
        X1 = self._scheme(d["s1"], st.lineno)
        X2 = self._scheme(d["s2"], st.lineno)
        u1 = frozenset(X1.points) if d["u1"] == "whole" else d["u1"]
        u2 = frozenset(X2.points) if d["u2"] == "whole" else d["u2"]
        D = glue(X1, X2, u1, u2)
        self.emit(f"glued scheme: {len(D.points)} points, {len(D.space.opens)} opens")
        return D

    def _do_check(self, st: Statement) -> None:
        from .checks import report_lines, run_suite, worst_status

        d = st.data
        cat = d["flags"].get("catalog", "small")
        if cat not in CATALOGS:
            raise DslError(f"unknown catalog {cat!r}; known: {', '.join(CATALOGS)}", st.lineno, 1)
        try:
            recs = run_suite(d["suite"], cat)
        except KeyError as e:
            raise DslError(str(e.args[0]), st.lineno, 1) from None
        for line in report_lines(recs):
            self.emit(line)
        if worst_status(recs) == "fail":
            self.audit_failed = True

    def _do_export(self, st: Statement) -> None:
        from .sheaf import AffineScheme
        from .variety import VarietySet

        d = st.data
        v = self.env[d["target"]]
        fmt = d["flags"].get("format", "json")
        if isinstance(v, Spectrum):
            if fmt == "json":
                payload = export_mod.spectrum_to_json(v)
            elif fmt == "dot":
                payload = export_mod.spectrum_to_dot(v)
            else:
                raise DslError(f"unknown format {fmt!r}", st.lineno, 1)
        elif isinstance(v, VarietySet):
            if fmt != "json":
                raise DslError("varieties export as json only", st.lineno, 1)
            payload = export_mod.to_json_bytes(export_mod.variety_to_dict(v))
        elif isinstance(v, AffineScheme):
            if fmt != "json":
                raise DslError("schemes export as json only", st.lineno, 1)
            payload = export_mod.to_json_bytes(export_mod.scheme_to_dict(v))
        else:
            raise DslError(f"{d['target']!r} is not exportable", st.lineno, 1)
        out = d["flags"].get("out")
        if out:
            with open(out, "wb") as fh:
                fh.write(payload)
            self.emit(f"exported {d['target']} to {out} ({len(payload)} bytes)")
        else:
            self.emit(payload.decode().rstrip("\n"))


def run_program(text: str) -> Interpreter:
    program = parse_program(text)
    interp = Interpreter()
    interp.run(program)
    return interp
