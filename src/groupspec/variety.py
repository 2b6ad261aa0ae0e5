"""Affine varieties inside powers of a finite group.

Zero sets of word ideals, point ideals as decidable predicates, the finite
group of regular functions, and the variety/Hom correspondence.  Infinite
ideals are never materialized: they are probed on bounded word sets and
through the finite function-group quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .fingroup import (
    GroupTable,
    Homomorphism,
    RowGroup,
    Subgroup,
    _check_order,
    _sorted_rows,
    pointwise_table,
)
from .freeprod import Word, WordContext, concat, enumerate_words, evaluate, inverse
from .gobject import GGroup, enumerate_g_morphisms, identity_object
from .spectrum import FiniteSpace

__all__ = [
    "VarietySet",
    "FunctionGroup",
    "VarietyError",
    "variety_of",
    "coordinate_group",
    "maximality_probe",
    "hom_variety_correspondence",
    "zariski_space",
]

DEFAULT_PROBE_LEN = 3
# the most elements a coordinate-group closure may reach
CLOSURE_CAP = 20000
# the most points of G^n that variety_of enumerates: S5^3 (1,728,000) is built
POINT_CAP = 2 ** 22
# the most products one gather of the witness search holds
GATHER_CAP = 2 ** 18


class VarietyError(ValueError):
    pass


@dataclass(frozen=True)
class VarietySet:
    """Common zero set of the defining generators inside G^n."""

    group: GroupTable
    nvars: int
    generators: tuple[Word, ...]
    points: tuple[tuple[int, ...], ...]

    def context(self) -> WordContext:
        return WordContext(self.group, self.nvars)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, coords) -> bool:
        return tuple(coords) in set(self.points)

    @cached_property
    def functions(self) -> "FunctionGroup":
        """The regular functions, closed once (``coordinate_group``) by
        Dimino's coset walk, as in ``GroupTable._close``: the constants K are
        a copy of G, and the group is the union of the right cosets K*y
        reached from y = id by y*s, s a constant of ``G.generators`` or a
        coordinate.  A coset is kept by its row whose first value is G.id,
        and K*y is one gather ``G.mul[:, y]``."""
        G, width = self.group, len(self.points)
        if not width:
            return FunctionGroup(self, np.zeros((1, 0), dtype=np.int64))
        gens = _generator_rows(self, G.generators)
        reps = [np.full(width, G.id, dtype=G.mul.dtype)]
        seen = {reps[0].tobytes()}  # a row's bytes are its key
        for r in reps:  # grows while walked
            if len(reps) * G.order > CLOSURE_CAP:
                raise VarietyError(f"function-group closure exceeded cap {CLOSURE_CAP}")
            prods = G.mul[r, gens]
            for y in G.mul[G.inv[prods[:, :1]], prods]:
                if y.tobytes() not in seen:
                    seen.add(y.tobytes())
                    reps.append(y)
        return FunctionGroup(self, _sorted_rows(G.mul[:, np.array(reps)].reshape(-1, width)))


def _id_structure(G: GroupTable) -> Homomorphism:
    return Homomorphism.identity(G)


def variety_of(G: GroupTable, n: int, gens: Iterable[Word]) -> VarietySet:
    """Exhaustive zero-set filter of G^n, points in lexicographic order."""
    if n < 0:
        raise VarietyError(f"variety_of(G, n) needs n >= 0, got {n}")
    # |G|^n points, and n coordinates each, are compared without a huge power
    if max(G.order ** min(n, POINT_CAP.bit_length()), n) > POINT_CAP:
        raise VarietyError(f"{G.name}^{n} is too large to enumerate: the point cap is {POINT_CAP}")
    gens = tuple(gens)
    for w in gens:
        if w.context.group is not G or w.context.variable_count != n:
            raise VarietyError("generator word from a different context")
    struct = _id_structure(G)
    pts = []
    for coords in itertools.product(range(G.order), repeat=n):
        if all(evaluate(w, struct, coords) == G.id for w in gens):
            pts.append(coords)
    return VarietySet(G, n, gens, tuple(pts))


def _generator_rows(V: VarietySet, constants: Sequence[int] = ()) -> np.ndarray:
    """The rows of the given constant functions, then of the n coordinates."""
    pts = np.array(V.points, dtype=np.int64).reshape(len(V.points), V.nvars)
    return np.vstack([np.array(constants, dtype=np.int64)[:, None].repeat(len(pts), axis=1), pts.T])


class FunctionGroup(RowGroup):
    """Regular functions on a variety under the pointwise product.

    ``rows`` is the group: one row of values per function, columns in the
    variety's point order, rows in lexicographic order.  It is finite
    because it embeds into the |V|-th power of G.
    """

    def __init__(self, variety: VarietySet, rows):
        super().__init__(rows)
        self.variety = variety

    @cached_property
    def witnesses(self) -> tuple[Word, ...]:
        """A word for each function, in row order, for export: breadth first
        from all |G| constants and the coordinates (the shorter word where
        two of them agree), a function takes the word of its first product
        in (frontier, generator) order, the frontier's word times the
        generator's.  A gather holds at most GATHER_CAP products."""
        V = self.variety
        G, ctx, width = V.group, V.context(), len(V.points)
        if not width:
            return (ctx.identity(),)
        gens = _generator_rows(V, range(G.order))
        gen_words = [ctx.constant(g) for g in range(G.order)]
        gen_words += [ctx.letter(i) for i in range(1, V.nvars + 1)]
        words: list[Optional[Word]] = [None] * len(self)
        first = self._indices(gens).tolist()
        for x, w in zip(first, gen_words):
            if words[x] is None or w.length() < words[x].length():
                words[x] = w
        queue = list(dict.fromkeys(first))  # the search's levels, each in the order reached
        known = np.array([w is not None for w in words])
        lo, step = 0, max(1, GATHER_CAP // (len(gens) * width))  # queue rows per gather
        while lo < len(queue):
            block = queue[lo : lo + step]
            lo += len(block)
            prods = G.mul[self.rows[block][:, None, :], gens[None, :, :]]
            found = self._indices(prods.reshape(-1, width))
            fresh = np.flatnonzero(~known[found])
            for f, x in zip(fresh.tolist(), found[fresh].tolist()):
                if words[x] is None:
                    words[x] = concat(words[block[f // len(gens)]], gen_words[f % len(gens)])
                    queue.append(x)
            known[found[fresh]] = True
        return tuple(words)

    def as_ggroup(self) -> GGroup:
        """The function group as an object over G via the constants."""
        if self._ggroup is None:
            G = self.variety.group
            name = f"O({G.name}^{self.variety.nvars})"
            _check_order(len(self), name)  # before any table is built
            mul = pointwise_table([G] * len(self.variety.points), self.rows, self.locate)
            table = GroupTable(mul, name=name, validate=False)
            constants = self._indices(_generator_rows(self.variety, range(G.order))[: G.order])
            self._ggroup = GGroup(G, table, Homomorphism(G, table, constants))
        return self._ggroup


def coordinate_group(V: VarietySet) -> FunctionGroup:
    """The regular functions on V, the pointwise-product closure of the
    constants and coordinates (``VarietySet.functions``, built once)."""
    return V.functions


# -- maximality probes -----------------------------------------------------


@dataclass(frozen=True)
class MaximalityCertificate:
    kind: str  # "collapse" | "strictness" | "factorization"
    data: dict


def maximality_probe(
    G: GroupTable,
    n: int,
    coords: Sequence[int],
    N: Subgroup,
    probe: Optional[Word] = None,
    target: Optional[Word] = None,
) -> MaximalityCertificate:
    """Certificates around the maximality of a point ideal.

    For trivial N the intermediate ideal collapses to the point ideal.  For
    a nontrivial proper normal N, words witnessing strict containment are
    produced.  For simple G and a probe word not vanishing at the point, a
    bounded product-of-conjugates factorization shows that any ideal
    containing the point ideal and the probe contains the target word.
    """
    coords = tuple(coords)
    ctx = WordContext(G, n)
    struct = _id_structure(G)
    if N.parent is not G:
        raise VarietyError("N must be a subgroup of G")
    if N.is_trivial():
        return MaximalityCertificate("collapse", {"note": "I_{N,x} = I_x for N = 1"})
    if not N.is_whole():
        if not N.is_normal():
            raise VarietyError("N must be normal")
        inside = next(m for m in N.members if m != G.id)
        outside = next(g for g in range(G.order) if g not in N)
        return MaximalityCertificate(
            "strictness",
            {
                "in_IN_not_Ix": ctx.constant(inside),
                "outside_IN": ctx.constant(outside),
                "coords": coords,
            },
        )
    # N = G: meaningful only via the simple-G factorization construction
    from .fingroup import is_simple

    if not is_simple(G):
        raise VarietyError("factorization certificate requires simple G")
    if probe is None:
        raise VarietyError("factorization certificate requires a probe word")
    v = evaluate(probe, struct, coords)
    if v == G.id:
        raise VarietyError("probe word vanishes at the point")
    if target is None:
        target = ctx.constant(next(g for g in range(G.order) if g != G.id))
    t_val = evaluate(target, struct, coords)
    # express the target value as a bounded product of conjugates of the
    # probe value; simplicity makes the normal closure the whole group
    expr = _conjugate_product_path(G, v, t_val)
    if expr is None:
        raise VarietyError("no bounded conjugate-product expression found")
    Q = ctx.identity()
    for (u, sgn) in expr:
        factor = concat(concat(ctx.constant(u), probe if sgn > 0 else inverse(probe)),
                        ctx.constant(G.inverse(u)))
        Q = concat(Q, factor)
    assert evaluate(Q, struct, coords) == t_val
    left = concat(target, inverse(Q))  # evaluates to 1, so it lies in I_x
    return MaximalityCertificate(
        "factorization",
        {
            "probe": probe,
            "target": target,
            "Q": Q,
            "conjugators": expr,
            "left_in_Ix": left,
            "coords": coords,
        },
    )


def _conjugate_product_path(G: GroupTable, v: int, goal: int):
    """BFS expressing goal as a product of conjugates of v or v^-1: the
    (conjugator, sign) list of the first product that reaches it."""
    steps = []
    for u in range(G.order):
        for sgn in (1, -1):
            w = G.conj(u, v if sgn > 0 else G.inverse(v))
            steps.append((w, (u, sgn)))
    paths: dict[int, list[tuple[int, int]]] = {G.id: []}
    frontier = [G.id]
    while frontier and goal not in paths:
        nxt = []
        for s in frontier:
            for w, tag in steps:
                t = G.op(s, w)
                if t not in paths:
                    paths[t] = paths[s] + [tag]
                    nxt.append(t)
        frontier = nxt
    return paths.get(goal)


# -- topology and Hom correspondence ---------------------------------------


def zariski_space(
    G: GroupTable, n: int, variant: str, probe_len: int = DEFAULT_PROBE_LEN
) -> FiniteSpace:
    """Bounded extensional model of the Zariski topology on G^n, points in
    lexicographic order.

    Generated from single-word zero sets of all reduced words up to the
    probe length, closed under intersection and union.  Only defined when G
    is integral for the chosen variant.
    """
    obj = identity_object(G)
    if not obj.is_integral(variant):
        raise VarietyError(f"G is not {variant}-integral; no Zariski topology")
    ctx = WordContext(G, n)
    struct = _id_structure(G)
    points = tuple(itertools.product(range(G.order), repeat=n))
    sets = {0, (1 << len(points)) - 1}
    for w in enumerate_words(ctx, probe_len):
        sets.add(sum(1 << i for i, p in enumerate(points) if evaluate(w, struct, p) == G.id))
    # lattice closure
    while True:
        new = {c for a, b in itertools.combinations(sets, 2) for c in (a & b, a | b)} - sets
        if not new:
            break
        sets |= new
    return FiniteSpace(points, sets)


@dataclass(frozen=True)
class VarietyCorrespondence:
    variety_morphisms: tuple  # maps as tuples of target points, source order
    g_morphisms: tuple  # GMorphism list O(V') -> O(V)
    a_table: dict  # variety morphism index -> g morphism index
    b_table: dict  # g morphism index -> variety morphism index


def hom_variety_correspondence(
    V: VarietySet,
    Vp: VarietySet,
    variant: str,
    probe_len: int = DEFAULT_PROBE_LEN,
) -> VarietyCorrespondence:
    """Matching of variety morphisms V -> V' with function-group morphisms.

    Both Hom sets are enumerated exhaustively; the two directions of the
    correspondence are realized as index tables and checked to be mutually
    inverse.
    """
    G = V.group
    if Vp.group is not G:
        raise VarietyError("varieties over different groups")

    def space(W: VarietySet) -> FiniteSpace:
        if W.nvars == 0:
            return FiniteSpace(W.points, [0, (1 << len(W.points)) - 1])
        return zariski_space(G, W.nvars, variant, probe_len).subspace(W.points)

    # an endomorphism correspondence (Vp is V) builds each once
    space_V, FG = space(V), coordinate_group(V)
    space_Vp, FGp = (space_V, FG) if Vp is V else (space(Vp), coordinate_group(Vp))
    at = {q: i for i, q in enumerate(Vp.points)}

    def pulled(images) -> np.ndarray:
        """The index in FG of each function of FGp composed with the map."""
        return FG.locate(FGp.rows[:, [at[q] for q in images]])

    # variety morphisms: continuous maps pulling regular functions back to
    # regular functions
    var_morphisms = {}
    for images in itertools.product(Vp.points, repeat=len(V.points)):
        phi = dict(zip(V.points, images))
        if space_V.is_continuous(phi, space_Vp) and (pulled(images) >= 0).all():
            var_morphisms[images] = len(var_morphisms)

    gms = enumerate_g_morphisms(FGp.as_ggroup(), FG.as_ggroup())

    # b: function-group morphism -> geometric map, the images of the
    # coordinates read at each point of V
    coords = FGp._indices(_generator_rows(Vp))
    b_table = {}
    for mi, m in enumerate(gms):
        values = FG.rows[np.asarray(m.map.image)[coords]]
        images = tuple(map(tuple, values.T.tolist()))
        if any(q not in at for q in images):
            raise VarietyError("b(psi) left the target variety")
        if images not in var_morphisms:
            raise VarietyError("b(psi) is not a variety morphism")
        b_table[mi] = var_morphisms[images]

    # a: geometric map -> function-group morphism via composition
    by_image = {tuple(m.map.image): mi for mi, m in enumerate(gms)}
    a_table = {}
    for vi, images in enumerate(var_morphisms):
        match = by_image.get(tuple(pulled(images).tolist()))
        if match is None:
            raise VarietyError("a(phi) is not among the enumerated morphisms")
        a_table[vi] = match

    for mi, vi in b_table.items():
        if a_table[vi] != mi:
            raise VarietyError("a and b are not mutually inverse")
    if len(b_table) != len(var_morphisms) or len(a_table) != len(gms):
        raise VarietyError("Hom sets are not in bijection")
    return VarietyCorrespondence(
        tuple(var_morphisms), tuple(gms), a_table, b_table
    )
