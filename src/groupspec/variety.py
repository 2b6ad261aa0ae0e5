"""Affine varieties inside powers of a finite group.

Zero sets of word ideals, point ideals as decidable predicates, the finite
group of regular functions, and the variety/Hom correspondence.  Infinite
ideals are never materialized: they are probed on bounded word sets and
through the finite function-group quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .fingroup import (
    GroupTable,
    Homomorphism,
    Subgroup,
    _check_order,
    _row_index,
    _row_keys,
    pointwise_table,
)
from .freeprod import Word, WordContext, concat, enumerate_words, evaluate, inverse
from .gobject import GGroup, enumerate_g_morphisms, identity_object

__all__ = [
    "VarietySet",
    "FunctionGroup",
    "VarietyError",
    "variety_of",
    "coordinate_group",
    "maximality_probe",
    "hom_variety_correspondence",
    "zariski_closed_sets",
]

DEFAULT_PROBE_LEN = 3
# the most elements a coordinate-group closure may reach
CLOSURE_CAP = 20000


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


def _id_structure(G: GroupTable) -> Homomorphism:
    return Homomorphism.identity(G)


def variety_of(G: GroupTable, n: int, gens: Iterable[Word]) -> VarietySet:
    """Exhaustive zero-set filter of G^n, points in lexicographic order."""
    if n < 0:
        raise VarietyError(f"variety_of(G, n) needs n >= 0, got {n}")
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


@dataclass(frozen=True)
class FunctionGroup:
    """Regular functions on a variety, as value tuples with witness words.

    The group law is the pointwise product; the group is finite because it
    embeds into the |V|-th power of G.
    """

    variety: VarietySet
    elements: tuple[tuple[int, ...], ...]
    witnesses: dict = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def witness(self, values: tuple[int, ...]) -> Word:
        return self.witnesses[values]

    def index_of(self, values: tuple[int, ...]) -> int:
        return self.elements.index(values)

    def constant(self, g: int) -> tuple[int, ...]:
        return tuple(g for _ in self.variety.points)

    def coordinate(self, i: int) -> tuple[int, ...]:
        return tuple(p[i - 1] for p in self.variety.points)

    def as_ggroup(self) -> GGroup:
        """The function group as an object over G via the constants."""
        G = self.variety.group
        name = f"O({G.name}^{self.variety.nvars})"
        _check_order(len(self.elements), name)  # before any table is built
        index = {v: i for i, v in enumerate(self.elements)}
        mul = pointwise_table([G] * len(self.variety.points), self.elements)
        table = GroupTable(mul, name=name, validate=False)
        structure = Homomorphism(G, table, [index[self.constant(g)] for g in range(G.order)])
        return GGroup(G, table, structure)


def coordinate_group(V: VarietySet) -> FunctionGroup:
    """Pointwise-product closure of the constants and coordinate functions.

    Breadth first from the generators.  A frontier block's products with
    every generator come from one gather on G's table; a product new to the
    closure gets the witness of its first occurrence in (frontier,
    generator) order, the frontier's word times the generator's.
    """
    G = V.group
    ctx = V.context()
    if not V.points:
        return FunctionGroup(V, ((),), {(): ctx.identity()})
    width = len(V.points)
    gens = np.vstack([
        np.repeat(np.arange(G.order)[:, None], width, axis=1),
        np.array(V.points, dtype=np.int64).T,
    ]).astype(G.mul.dtype)
    gen_words = [ctx.constant(g) for g in range(G.order)]
    gen_words += [ctx.letter(i) for i in range(1, V.nvars + 1)]
    witnesses: dict[tuple[int, ...], Word] = {}
    for vals, w in zip(map(tuple, gens.tolist()), gen_words):
        if vals not in witnesses or w.length() < witnesses[vals].length():
            witnesses[vals] = w
    closure = np.array(list(witnesses), dtype=G.mul.dtype)
    frontier, words = closure, list(witnesses.values())
    step = max(1, 2 ** 18 // (len(gens) * width))  # frontier rows per gather
    while len(frontier):
        known = _row_index(closure)
        new, new_words = [], []
        for lo in range(0, len(frontier), step):
            prods = G.mul[frontier[lo : lo + step, None, :], gens[None, :, :]].reshape(-1, width)
            _, first = np.unique(_row_keys(prods), return_index=True)
            first.sort()
            fresh = first[known(prods[first]) < 0]
            for f, vals in zip(fresh.tolist(), map(tuple, prods[fresh].tolist())):
                if vals in witnesses:  # met in an earlier block of this frontier
                    continue
                i, j = divmod(f, len(gens))
                witnesses[vals] = w = concat(words[lo + i], gen_words[j])
                new.append(vals)
                new_words.append(w)
                if len(witnesses) > CLOSURE_CAP:
                    raise VarietyError(f"function-group closure exceeded cap {CLOSURE_CAP}")
        frontier = np.array(new, dtype=G.mul.dtype).reshape(len(new), width)
        words = new_words
        closure = np.concatenate([closure, frontier])
    elements = tuple(sorted(witnesses))
    return FunctionGroup(V, elements, witnesses)


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
    """BFS expressing goal as a product of conjugates of v or v^-1."""
    steps = []
    for u in range(G.order):
        for sgn in (1, -1):
            w = G.conj(u, v if sgn > 0 else G.inverse(v))
            steps.append((w, (u, sgn)))
    prev: dict[int, tuple[int, tuple[int, int]]] = {G.id: None}
    frontier = [G.id]
    while frontier and goal not in prev:
        nxt = []
        for s in frontier:
            for w, tag in steps:
                t = G.op(s, w)
                if t not in prev:
                    prev[t] = (s, tag)
                    nxt.append(t)
        frontier = nxt
    if goal not in prev:
        return None
    path = []
    cur = goal
    while prev[cur] is not None:
        s, tag = prev[cur]
        path.append(tag)
        cur = s
    return list(reversed(path))


# -- topology and Hom correspondence ---------------------------------------


def zariski_closed_sets(
    G: GroupTable, n: int, variant: str, probe_len: int = DEFAULT_PROBE_LEN
) -> list[frozenset]:
    """Bounded extensional model of the Zariski topology on G^n.

    Generated from single-word zero sets of all reduced words up to the
    probe length, closed under intersection and union.  Only defined when G
    is integral for the chosen variant.
    """
    obj = identity_object(G)
    if not obj.is_integral(variant):
        raise VarietyError(f"G is not {variant}-integral; no Zariski topology")
    ctx = WordContext(G, n)
    struct = _id_structure(G)
    space = frozenset(itertools.product(range(G.order), repeat=n))
    sets = {space, frozenset()}
    for w in enumerate_words(ctx, probe_len):
        z = frozenset(
            p for p in space if evaluate(w, struct, p) == G.id
        )
        sets.add(z)
    # lattice closure
    while True:
        new = set()
        lst = list(sets)
        for i, a in enumerate(lst):
            for b in lst[i + 1:]:
                for c in (a & b, a | b):
                    if c not in sets:
                        new.add(c)
        if not new:
            break
        sets |= new
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def _induced_closed(closed: list[frozenset], pts: Iterable[tuple]) -> set[frozenset]:
    pts = frozenset(pts)
    return {c & pts for c in closed}


def _is_continuous(phi: dict, closed_src: set[frozenset], closed_dst: set[frozenset]) -> bool:
    for c in closed_dst:
        pre = frozenset(p for p, q in phi.items() if q in c)
        if pre not in closed_src:
            return False
    return True


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

    def induced(W: VarietySet) -> set[frozenset]:
        if W.nvars == 0:
            return {frozenset(), frozenset(W.points)}
        return _induced_closed(
            zariski_closed_sets(G, W.nvars, variant, probe_len), W.points
        )

    closed_V = induced(V)
    closed_Vp = induced(Vp)

    FG = coordinate_group(V)
    FGp = coordinate_group(Vp)
    fg_set = set(FG.elements)

    # variety morphisms: continuous maps pulling regular functions back to
    # regular functions
    var_morphisms = []
    for images in itertools.product(Vp.points, repeat=len(V.points)):
        phi = dict(zip(V.points, images))
        if not _is_continuous(phi, closed_V, closed_Vp):
            continue
        ok = True
        for f in FGp.elements:
            fval = {q: f[Vp.points.index(q)] for q in Vp.points}
            pulled = tuple(fval[phi[p]] for p in V.points)
            if pulled not in fg_set:
                ok = False
                break
        if ok:
            var_morphisms.append(images)

    A = FGp.as_ggroup()
    B = FG.as_ggroup()
    gms = enumerate_g_morphisms(A, B)

    # b: function-group morphism -> geometric map
    b_table = {}
    for mi, m in enumerate(gms):
        coords_imgs = []
        for p_idx, p in enumerate(V.points):
            img = []
            for i in range(1, Vp.nvars + 1):
                xi_idx = FGp.index_of(FGp.coordinate(i))
                fi = FG.elements[m(xi_idx)]
                img.append(fi[p_idx])
            coords_imgs.append(tuple(img))
        images = tuple(coords_imgs)
        if any(q not in Vp.points for q in images):
            raise VarietyError("b(psi) left the target variety")
        if images not in var_morphisms:
            raise VarietyError("b(psi) is not a variety morphism")
        b_table[mi] = var_morphisms.index(images)

    # a: geometric map -> function-group morphism via composition
    a_table = {}
    for vi, images in enumerate(var_morphisms):
        img_map = []
        for f_idx, f in enumerate(FGp.elements):
            fval = {q: f[Vp.points.index(q)] for q in Vp.points}
            pulled = tuple(fval[images[i]] for i in range(len(V.points)))
            img_map.append(FG.index_of(pulled))
        match = None
        for mi, m in enumerate(gms):
            if list(m.map.image) == img_map:
                match = mi
                break
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
