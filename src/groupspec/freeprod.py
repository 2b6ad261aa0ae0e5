"""Reduced words of the free product of a finite group with a free group.

A word is an alternating sequence of coefficient syllables (non-identity
group elements) and letter syllables (variable with nonzero integer
exponent).  Word length is letter-weighted: a coefficient syllable counts 1
and a letter syllable X_i^e counts |e|, which keeps bounded enumeration
finite and deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .fingroup import GroupTable, Homomorphism

__all__ = [
    "WordContext",
    "Word",
    "WordError",
    "InconclusiveError",
    "reduce_syllables",
    "concat",
    "inverse",
    "power",
    "conjugate",
    "commutator",
    "evaluate",
    "enumerate_words",
    "parse_word",
    "bounded_divisor_witness",
]


class WordError(ValueError):
    """Bad syllables, bad indices, or arity mismatch."""


class InconclusiveError(Exception):
    """A bounded symbolic question could not be decided either way."""


# Syllables: ("g", element_index) or ("x", variable_index_1_based, exponent).


@dataclass(frozen=True)
class WordContext:
    """Coefficient group together with the number of free variables."""

    group: GroupTable
    variable_count: int

    def __post_init__(self):
        if self.variable_count < 0:
            raise WordError("variable_count must be >= 0")

    def constant(self, g: int) -> "Word":
        return reduce_syllables(self, [("g", g)])

    def letter(self, var: int, exp: int = 1) -> "Word":
        return reduce_syllables(self, [("x", var, exp)])

    def identity(self) -> "Word":
        return Word(self, ())


@dataclass(frozen=True)
class Word:
    """A fully reduced free-product word; the empty tuple is the identity."""

    context: WordContext
    syllables: tuple

    def is_identity(self) -> bool:
        return not self.syllables

    def is_constant(self) -> bool:
        return len(self.syllables) == 1 and self.syllables[0][0] == "g"

    def length(self) -> int:
        return sum(1 if s[0] == "g" else abs(s[2]) for s in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return inverse(self)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for s in self.syllables:
            if s[0] == "g":
                parts.append(f"g{s[1]}")
            else:
                parts.append(f"X{s[1]}" + (f"^{s[2]}" if s[2] != 1 else ""))
        return " * ".join(parts)

    def sort_key(self) -> tuple:
        return (self.length(), tuple(_syllable_key(s) for s in self.syllables))


def _syllable_key(s) -> tuple:
    if s[0] == "g":
        return (0, s[1])
    exp = s[2]
    # exponent order 1, -1, 2, -2, ...
    rank = 2 * (abs(exp) - 1) + (0 if exp > 0 else 1)
    return (1, s[1], rank)


def _check_syllable(ctx: WordContext, s) -> None:
    if s[0] == "g":
        if not 0 <= s[1] < ctx.group.order:
            raise WordError(f"element index {s[1]} out of range")
    elif s[0] == "x":
        if not 1 <= s[1] <= ctx.variable_count:
            raise WordError(f"variable index {s[1]} out of range")
    else:
        raise WordError(f"unknown syllable kind {s[0]!r}")


def reduce_syllables(ctx: WordContext, raw: Iterable) -> Word:
    """Reduce a raw syllable sequence to free-product normal form."""
    G = ctx.group
    stack: list = []
    for s in raw:
        _check_syllable(ctx, s)
        _push(G, stack, s)
    return Word(ctx, tuple(stack))


def _push(G: GroupTable, stack: list, s) -> None:
    if (s[1] == G.id) if s[0] == "g" else (s[2] == 0):
        return  # a trivial syllable
    if stack and _same_factor(stack[-1], s):
        s = _merge(G, stack.pop(), s)
        if s is None:
            return
    stack.append(s)


def _same_factor(s, t) -> bool:
    """Whether syllables s and t lie in one free factor (G or one <X_i>)."""
    return s[0] == t[0] and (s[0] == "g" or s[1] == t[1])


def _merge(G: GroupTable, s, t):
    """The product of two syllables of one factor, or None if it is trivial."""
    if s[0] == "g":
        g = G.op(s[1], t[1])
        return None if g == G.id else ("g", g)
    e = s[2] + t[2]
    return ("x", s[1], e) if e else None


def _join(G: GroupTable, left: tuple, right: tuple) -> tuple:
    """Reduced product of two reduced syllable tuples.

    Only the seam can cancel: pop matching syllables there until two of one
    factor merge into a nontrivial syllable, which cannot merge further
    because its neighbours lie in other factors.
    """
    i, j = len(left), 0
    while i and j < len(right) and _same_factor(left[i - 1], right[j]):
        m = _merge(G, left[i - 1], right[j])
        i -= 1
        j += 1
        if m is not None:
            return left[:i] + (m,) + right[j:]
    return left[:i] + right[j:]


def concat(a: Word, b: Word) -> Word:
    if a.context != b.context:
        raise WordError("words from different contexts")
    return Word(a.context, _join(a.context.group, a.syllables, b.syllables))


def _inverse_syllables(G: GroupTable, syllables: tuple) -> tuple:
    return tuple(
        ("g", G.inverse(s[1])) if s[0] == "g" else ("x", s[1], -s[2])
        for s in reversed(syllables)
    )


def inverse(w: Word) -> Word:
    return Word(w.context, _inverse_syllables(w.context.group, w.syllables))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(inverse(w), -k)
    r = w.context.identity()
    for _ in range(k):
        r = concat(r, w)
    return r


def conjugate(u: Word, w: Word) -> Word:
    """u * w * u^-1."""
    return concat(concat(u, w), inverse(u))


def commutator(a: Word, b: Word) -> Word:
    return concat(concat(a, b), concat(inverse(a), inverse(b)))


def evaluate(w: Word, structure: Homomorphism, assignment: Sequence[int]) -> int:
    """Image of w under the morphism g -> structure(g), X_i -> assignment[i-1].

    With the identity structure this is the evaluation of a polynomial
    function at a point of G^n.
    """
    if structure.source is not w.context.group:
        raise WordError("structure map source does not match the word context")
    if len(assignment) != w.context.variable_count:
        raise WordError(
            f"assignment arity {len(assignment)} != {w.context.variable_count}"
        )
    H = structure.target
    acc = H.id
    for s in w.syllables:
        if s[0] == "g":
            acc = H.op(acc, structure(s[1]))
        else:
            acc = H.op(acc, H.power(assignment[s[1] - 1], s[2]))
    return acc


def enumerate_words(ctx: WordContext, max_len: int) -> Iterator[Word]:
    """All reduced words of length 1..max_len in (length, syllable) order."""
    G = ctx.group
    coeffs = [g for g in range(G.order) if g != G.id]

    def extend(prefix: list, remaining: int, target: int):
        used = target - remaining
        if used > 0 and remaining == 0:
            yield Word(ctx, tuple(prefix))
            return
        last = prefix[-1] if prefix else None
        if last is None or last[0] != "g":
            for g in coeffs:
                prefix.append(("g", g))
                yield from extend(prefix, remaining - 1, target)
                prefix.pop()
        for var in range(1, ctx.variable_count + 1):
            if last is not None and last[0] == "x" and last[1] == var:
                continue
            for mag in range(1, remaining + 1):
                for exp in (mag, -mag):
                    prefix.append(("x", var, exp))
                    yield from extend(prefix, remaining - mag, target)
                    prefix.pop()

    for target in range(1, max_len + 1):
        yield from _in_key_order(extend([], target, target))


def _in_key_order(words: Iterator[Word]) -> Iterator[Word]:
    yield from sorted(words, key=Word.sort_key)


@lru_cache(maxsize=32)
def _words_upto(ctx: WordContext, max_len: int) -> tuple:
    return tuple(enumerate_words(ctx, max_len))


_TOKEN = re.compile(r"^(?:(g(\d+))|(X(\d+)(\^(-?\d+))?)|1)$")


def parse_word(ctx: WordContext, text: str) -> Word:
    """Parse literals like ``g3 * X1^2 * g1 * X2^-1`` (``1`` is the identity)."""
    raw = []
    for part in text.split("*"):
        part = part.strip()
        if not part:
            raise WordError(f"empty factor in word literal {text!r}")
        m = _TOKEN.match(part)
        if not m:
            raise WordError(f"bad word factor {part!r}")
        if m.group(1):
            raw.append(("g", int(m.group(2))))
        elif m.group(3):
            exp = int(m.group(6)) if m.group(6) else 1
            raw.append(("x", int(m.group(4)), exp))
        # literal "1" contributes nothing
    return reduce_syllables(ctx, raw)


# -- divisor-of-zero search ------------------------------------------------


def _conjugates(G: GroupTable, s: tuple) -> Iterator[tuple]:
    """The reduced conjugates c_g * s * c_g^-1, g in index order, repeats kept.

    In a reduced word only the two end syllables can meet c_g and c_g^-1.
    A coefficient end merges with its neighbour by one table read and drops
    out when the product is 1; a letter end gets c_g or c_g^-1 as a new
    syllable.  A constant (a) becomes (g*a*g^-1), and the empty word stays
    empty.
    """
    e = G.id
    if not s or (len(s) == 1 and s[0][0] == "g"):
        a = s[0][1] if s else e  # conjugating 1 gives 1
        for g in range(G.order):
            c = G.conj(g, a)
            yield (("g", c),) if c != e else ()
        return
    head = s[0][1] if s[0][0] == "g" else None
    tail = s[-1][1] if s[-1][0] == "g" else None
    body = s[head is not None : len(s) - (tail is not None)]
    for g in range(G.order):
        gi = G.inverse(g)
        left = g if head is None else G.op(g, head)
        right = gi if tail is None else G.op(tail, gi)
        yield ((("g", left),) if left != e else ()) + body + ((("g", right),) if right != e else ())


def span_generators(w: Word) -> list[Word]:
    """Distinct reduced conjugates c_g * w * c_g^-1 over the coefficients."""
    return [Word(w.context, c) for c in dict.fromkeys(_conjugates(w.context.group, w.syllables))]


def _commutes_with_orbit(G: GroupTable, x: tuple, y: tuple) -> bool:
    """Whether the spans of x and y commute: x commutes with every c_k * y * c_k^-1.

    Conjugation by c_g^-1 is an automorphism, so [c_g x c_g^-1, c_h y c_h^-1]
    = 1 exactly when [x, c_k y c_k^-1] = 1 with k = g^-1 h: one conjugate
    orbit of |G| tests decides all |G|^2 generator pairs.  Reduced forms are
    unique, so xc = cx exactly when the tuples agree.
    """
    return all(_join(G, x, c) == _join(G, c, x) for c in _conjugates(G, y))


def _split(w: Word) -> tuple[tuple, tuple]:
    """Syllables (u, c) with w = u * c * u^-1 and c cyclically reduced.

    One pass from both ends: mutually inverse end syllables go into u; when
    the ends lie in one factor without cancelling, w is conjugated by its
    first syllable, which merges them into the last syllable of c.
    """
    s, G = w.syllables, w.context.group
    i, j = 0, len(s) - 1
    while i < j and _same_factor(s[i], s[j]):
        m = _merge(G, s[j], s[i])
        if m is not None:
            return s[: i + 1], s[i + 1 : j] + (m,)
        i, j = i + 1, j - 1
    return s[:i], s[i : j + 1]


def _word_order(w: Word) -> Optional[int]:
    """Order of w in the free product, or None if infinite.

    Torsion elements are conjugates of coefficient-group elements, so the
    order is bounded by the coefficient group order.
    """
    if w.is_identity():
        return 1
    _, core = _split(w)
    if len(core) == 1 and core[0][0] == "g":
        return w.context.group.element_order(core[0][1])
    return None


def _commute_key(w: Word) -> tuple:
    """A key that any two commuting non-identity words share.

    In a free product two commuting elements lie in one conjugate of a
    factor or are powers of one element (Magnus-Karrass-Solitar,
    Combinatorial Group Theory, Cor. 4.1.6).  So a torsion word u*g*u^-1 is
    keyed by u, which ends in a letter and so names its conjugate of G; any
    other word by the root r = u*p*u^-1 of its centralizer, up to inversion,
    where c = p^k with p primitive (X_i for c = X_i^e).  Words with one key
    need not commute.
    """
    u, c = _split(w)
    if len(c) == 1 and c[0][0] == "g":
        return ("t", u)
    if len(c) == 1:
        p = (("x", c[0][1], 1),)
    else:
        n = len(c)
        p = next(c[:d] for d in range(1, n + 1) if n % d == 0 and c == c[:d] * (n // d))
    G = w.context.group
    r = _join(G, u + p, _inverse_syllables(G, u))
    return ("i", min(r, _inverse_syllables(G, r)))


def _commute_bucket(ctx: WordContext, key: tuple, max_len: int) -> list[Word]:
    """The words of length 1..max_len with _commute_key `key`, in sort_key order.

    The fact behind _commute_key gives each key's words in closed form: a
    torsion key ("t", u) holds exactly the u*g*u^-1 with g != 1, all of one
    length since u ends in a letter, and an infinite key ("i", r) the nonzero
    powers of r, whose length grows with the exponent.
    """
    G = ctx.group
    kind, base = key
    inv = _inverse_syllables(G, base)
    if kind == "t":
        if 2 * Word(ctx, base).length() + 1 > max_len:
            return []
        return [Word(ctx, base + (("g", g),) + inv) for g in range(G.order) if g != G.id]
    words, pos, neg = [], base, inv
    while (w := Word(ctx, pos)).length() <= max_len:
        words += [w, Word(ctx, neg)]
        pos, neg = _join(G, pos, base), _join(G, neg, inv)
    return sorted(words, key=Word.sort_key)


def _powers(G: GroupTable, r: tuple, n: int) -> list[tuple]:
    """r^0, ..., r^(n-1) as syllable tuples."""
    out, p = [], ()
    for _ in range(n):
        out.append(p)
        p = _join(G, p, r)
    return out


def _recognize_cyclic(w: Word) -> Optional[tuple[Word, Optional[int]]]:
    """If the span of w (its conjugates by the coefficients) is cyclic, return (root, order).

    w lies in its span and a cyclic group is abelian, so the first conjugate
    that does not commute with w rejects; only then is the least conjugate
    tried as the generator of all of them.
    """
    G, s = w.context.group, w.syllables
    if not s:
        return None
    conj = {}
    for c in _conjugates(G, s):
        if c != s and _join(G, c, s) != _join(G, s, c):
            return None
        conj[c] = None
    gens = [Word(w.context, c) for c in conj]
    root = min(gens, key=Word.sort_key)
    order = _word_order(root)
    if order is not None:
        powers = set(_powers(G, root.syllables, order))
    else:
        max_needed = max(g.length() for g in gens)
        powers, p = set(), ()
        for _ in range(4 * max_needed + 9):
            powers |= {p, _inverse_syllables(G, p)}
            if Word(w.context, p).length() > max_needed:
                break
            p = _join(G, p, root.syllables)
    return (root, order) if conj.keys() <= powers else None


def _cyclic_intersection_trivial(rx: tuple, ry: tuple, x_powers: set) -> bool:
    """Whether <root_x> and <root_y> intersect trivially in the free product.

    x_powers holds the nontrivial powers of a finite root_x as syllables.
    """
    (ux, ox), (uy, oy) = rx, ry
    G = ux.context.group
    if ox is not None and oy is not None:
        return x_powers.isdisjoint(_powers(G, uy.syllables, oy)[1:])
    if (ox is None) != (oy is None):
        # a finite and an infinite cyclic group share only the identity
        return True
    # two infinite cyclics share a nontrivial power iff their roots commute
    return _join(G, ux.syllables, uy.syllables) != _join(G, uy.syllables, ux.syllables)


def bounded_divisor_witness(
    ctx: WordContext,
    x: Word,
    variant: str,
    max_len: int,
):
    """Search reduced words y of length <= max_len witnessing that x divides zero.

    T1: [span(x), span(y)] = 1, decided by testing x against every
    conjugate of y (_commutes_with_orbit); a hit is certified with both
    conjugate-generator sets.  T2: trivial intersection of spans, decided
    only when both spans are recognized cyclic; otherwise InconclusiveError.
    A None return is bounded evidence of absence, not a proof.
    """
    if variant not in ("t1", "t2"):
        raise WordError(f"unknown variant {variant!r}")
    if x.is_identity():
        raise WordError("the identity is never a divisor of zero")
    if max_len < 1:
        raise WordError("max_len must be >= 1")
    if x.context != ctx:
        raise WordError("words from different contexts")
    G = ctx.group
    if variant == "t1":
        # only words sharing x's key can commute with x; a hit is certified
        # by the one-orbit test, whose c_1 term is the test x*y = y*x
        for y in _commute_bucket(ctx, _commute_key(x), max_len):
            if _commutes_with_orbit(G, x.syllables, y.syllables):
                x_gens, y_gens = span_generators(x), span_generators(y)
                cert = {
                    "variant": "t1",
                    "x_generators": [str(g) for g in x_gens],
                    "y_generators": [str(g) for g in y_gens],
                    "checked_pairs": len(x_gens) * len(y_gens),
                }
                return y, cert
        return None
    x_cyc = _recognize_cyclic(x)
    if x_cyc is None:
        raise InconclusiveError(
            "span of x not recognized cyclic; bounded T2 search unsupported"
        )
    x_root, x_order = x_cyc
    x_powers = set(_powers(G, x_root.syllables, x_order)[1:]) if x_order else set()
    for y in _words_upto(ctx, max_len):
        y_cyc = _recognize_cyclic(y)
        if y_cyc is None:
            raise InconclusiveError(
                f"span of candidate {y} not recognized cyclic; "
                "canonical-first witness cannot be certified"
            )
        if _cyclic_intersection_trivial(x_cyc, y_cyc, x_powers):
            cert = {
                "variant": "t2",
                "x_root": str(x_root),
                "x_order": x_order,
                "y_root": str(y_cyc[0]),
                "y_order": y_cyc[1],
            }
            return y, cert
    return None
