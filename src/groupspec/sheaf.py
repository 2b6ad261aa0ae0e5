"""Structural sheaves on finite spectra, schemes, morphisms and gluing.

Sections are value maps P -> coset in H/P that admit, for every point, a
single carrier element realizing the values on the point's minimal open.
A section is stored as a row: its coset indices in sorted point order.
Minimal opens replace arbitrary covers: in a finite space every open cover
refines to the minimal-open cover, so the two locality conditions agree.
``AffineScheme`` holds the one section machinery; ``GluedScheme`` inherits
it and only relabels the spectrum its charts share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    QuotientGroup,
    RowGroup,
    Subgroup,
    _row_keys,
    _sorted_rows,
    pointwise_table,
    quotient,
    subgroup_product,
)
from .gobject import GGroup, GMorphism, enumerate_g_morphisms
from .spectrum import (
    FiniteSpace,
    Ideal,
    Spectrum,
    _map_bits,
    irreducible_components,
    point_radical,
    spectrum,
    whole_radical,
)

__all__ = [
    "SheafError",
    "SchemeSection",
    "SectionGroup",
    "AffineScheme",
    "affine_scheme",
    "GluedScheme",
    "SchemeMorphism",
    "induced_morphism",
    "embed_quotient",
    "glue",
    "scheme_hom_correspondence",
    "noetherian_sections",
    "check_sheaf_axioms",
    "global_sections_vs_quotient",
    "restrictions_are_isomorphisms",
    "point_vanishing_ideal",
]

SECTION_TABLE_CAP = 2000


class SheafError(ValueError):
    pass


@dataclass(frozen=True)
class SchemeSection:
    """A section: its row of coset indices over the open set."""

    open_set: frozenset
    values: tuple  # coset index of each point of sorted(open_set)

    def value_at(self, point):
        if point not in self.open_set:
            raise SheafError(f"point {point!r} not in the section domain")
        return self.values[_positions(self.open_set)[point]]


@lru_cache(maxsize=None)
def _positions(U: frozenset) -> dict:
    """Each point of U mapped to its place in a row, in sorted point order."""
    return {p: i for i, p in enumerate(sorted(U))}


def _natural_join(left: tuple, right: tuple) -> tuple:
    """The natural join of two relations (points, rows array) on their
    shared points: each left row, in order, extended by every matching right
    row.  The right rows are sorted by shared key, so each left row takes
    one run of them."""
    (lpts, lrows), (rpts, rrows) = left, right
    col = {r: i for i, r in enumerate(lpts)}
    shared = [i for i, r in enumerate(rpts) if r in col]
    fresh = [i for i, r in enumerate(rpts) if r not in col]
    want = _row_keys(lrows[:, [col[rpts[i]] for i in shared]])
    keys = _row_keys(rrows[:, shared])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lo = keys.searchsorted(want, "left")
    count = keys.searchsorted(want, "right") - lo
    run = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    rows = np.concatenate([lrows.repeat(count, axis=0), rrows[order[run]][:, fresh]], axis=1)
    return tuple(lpts) + tuple(rpts[i] for i in fresh), rows


def _joined_rows(relations: Iterable[tuple], pts: Sequence) -> np.ndarray:
    """The natural join of the relations, columns in the order of pts and
    rows in lexicographic order."""
    relations = iter(relations)
    empty = ((), np.zeros((1, 0), dtype=np.int64))  # the join's unit: one empty row
    points, rows = reduce(_natural_join, relations, next(relations, empty))
    return _sorted_rows(rows[:, [points.index(p) for p in pts]])


class SectionGroup(RowGroup):
    """Sections over a fixed open, under the pointwise product.

    ``rows`` is the group: one row of coset indices per section, columns in
    sorted point order.
    """

    _error, _missing = SheafError, "section does not belong to this group"

    def __init__(self, scheme, open_set: frozenset, rows: np.ndarray):
        super().__init__(rows)
        self.scheme = scheme
        self.open_set = frozenset(open_set)

    @cached_property
    def elements(self) -> tuple[SchemeSection, ...]:
        """The sections as objects, for callers that take them one by one."""
        return tuple(SchemeSection(self.open_set, row) for row in map(tuple, self.rows.tolist()))

    def as_ggroup(self) -> GGroup:
        """Materialize the multiplication table; only for small groups."""
        if self._ggroup is None:
            n = len(self.rows)
            if n > SECTION_TABLE_CAP:
                raise SheafError(
                    f"section group of order {n} exceeds table cap {SECTION_TABLE_CAP}"
                )
            factors = [self.scheme.point_quotient(p).table for p in sorted(self.open_set)]
            try:
                mul = pointwise_table(factors, self.rows, self.locate)
            except GroupError:
                raise SheafError("product of sections is not a section") from None
            table = GroupTable(mul, name=f"O({len(self.open_set)}pts)", validate=False)
            # the constant sections: the rows of the structure map's images
            scheme = self.scheme
            constants = self._indices(scheme.element_rows(self.open_set, scheme.structure.image))
            self._ggroup = GGroup(scheme.base, table, Homomorphism(scheme.base, table, constants))
        return self._ggroup

    def restriction_indices(self, smaller: "SectionGroup") -> list[int]:
        """Index map of the restriction to a smaller open's section group."""
        if not smaller.open_set <= self.open_set:
            raise SheafError("restriction target is not a subset")
        at = _positions(self.open_set)
        cols = [at[p] for p in _positions(smaller.open_set)]
        return smaller._indices(self.rows[:, cols]).tolist()


# -- affine schemes --------------------------------------------------------


class AffineScheme:
    """The spectrum of an object with its structural sheaf.

    A value map on an open U is a section iff, at every point p of U, its
    values on minopen(p) are the cosets of one carrier element.  Those value
    tuples form p's local image, computed once per point, and the sections
    over U are the natural join of the local images of U's points.  The
    spectrum is read through ``_prime(point)`` and ``_label(point, q)`` (the
    point that prime q stands for near the point), the identity here.
    """

    def __init__(self, spec: Spectrum):
        self.spectrum = spec
        self.base = spec.object.base
        self.structure = spec.object.structure
        self.points: tuple = tuple(range(len(spec.primes)))
        self._sections: dict[frozenset, SectionGroup] = {}
        self._images: dict[object, tuple[tuple, np.ndarray]] = {}

    @cached_property
    def space(self) -> FiniteSpace:
        return self.spectrum.space

    def label(self) -> str:
        return f"Spec_{self.spectrum.variant}({self.spectrum.object.label()})"

    def _prime(self, point) -> int:
        return point

    def _label(self, point, q):
        return q

    def _listed(self, U: Iterable) -> list:
        """U's points in the order messages list them."""
        return sorted(U)

    def minimal_open(self, p) -> frozenset:
        if p not in self.points:
            raise SheafError(f"no point {p!r}: {self.label()} has {len(self.points)} points")
        return self.space.minimal_open(p)

    def point_quotient(self, point) -> QuotientGroup:
        spec = self.spectrum
        return quotient(spec.object.carrier, spec.primes[self._prime(point)].members)

    def _local_image(self, point) -> tuple[tuple, np.ndarray]:
        """(sorted mo, image): mo is what the spectrum's minimal open around
        the point's prime stands for, image the distinct rows of coset
        indices over mo of the carrier's elements.  The cosets of the prime
        cover the carrier, so every h realizes a value at the point."""
        if point not in self._images:
            near = self.spectrum.space.minimal_open(self._prime(point))
            mo = tuple(sorted(self._label(point, q) for q in near))
            rows = self.element_rows(mo, range(self.structure.target.order))
            image = sorted(set(map(tuple, rows.tolist())))
            self._images[point] = (mo, np.array(image, dtype=np.int64).reshape(len(image), len(mo)))
        return self._images[point]

    @cached_property
    def _projections(self) -> np.ndarray:
        """Entry [h, i]: the coset index of carrier element h at the i-th
        point in sorted order."""
        cols = [self.point_quotient(p).projection.image for p in sorted(self.points)]
        return np.array(cols, dtype=np.int64).reshape(len(cols), self.structure.target.order).T

    def element_rows(self, U: Iterable, hs: Sequence[int]) -> np.ndarray:
        """The rows of the sections of carrier elements hs over U, one per
        element, gathered from the projections."""
        at = _positions(frozenset(self.points))
        return self._projections.take(hs, axis=0).take([at[p] for p in sorted(U)], axis=1)

    # -- section arithmetic ------------------------------------------------

    def section_from_element(self, U: frozenset, h: int) -> SchemeSection:
        row = tuple(self.point_quotient(p).projection(h) for p in sorted(U))
        return SchemeSection(frozenset(U), row)

    def restrict(self, s: SchemeSection, U2: frozenset) -> SchemeSection:
        """The columns of s's row over the points of U2."""
        if not U2 <= s.open_set:
            raise SheafError("restriction to a non-subset")
        pos = _positions(s.open_set)
        values = tuple(s.values[pos[p]] for p in _positions(frozenset(U2)))
        return SchemeSection(frozenset(U2), values)

    def section_group(self, U: Iterable) -> SectionGroup:
        U = frozenset(U)
        if U not in self._sections:
            if not self.space.is_open(U):
                raise SheafError(f"{self._listed(U)} is not open")
            self._sections[U] = SectionGroup(self, U, self._join(sorted(U)))
        return self._sections[U]

    def _join(self, pts: list) -> np.ndarray:
        """The rows over pts (an open, sorted) lying in every point's local
        image, in lexicographic order.

        Points with larger minimal opens join first; a later point whose
        minimal open is already bound only filters the rows.
        """
        order = sorted(pts, key=lambda p: (-len(self.minimal_open(p)), p))
        return _joined_rows(map(self._local_image, order), pts)

    def stalk(self, p: int) -> tuple[SectionGroup, dict]:
        """Sections over the minimal open, compared with H/rad(point)."""
        mo = self.minimal_open(p)
        group = self.section_group(mo)
        rad = point_radical(self.spectrum, p)
        q = quotient(self.spectrum.object.carrier, rad)
        images = group._indices(self.element_rows(mo, q.reps)).tolist()
        report = {
            "from_quotient": q,
            "surjective": len(set(images)) == len(group),
            "injective": len(set(images)) == len(images),
        }
        return group, report

    def charts(self) -> list["AffineScheme"]:
        return [self]


def affine_scheme(spec: Spectrum) -> AffineScheme:
    """The one affine scheme of a spectrum, kept in the spectrum's caches,
    so every user of the spectrum shares its section groups."""
    if "scheme" not in spec._caches:
        spec._caches["scheme"] = AffineScheme(spec)
    return spec._caches["scheme"]


# -- glued schemes ---------------------------------------------------------


class GluedScheme(AffineScheme):
    """Two affine schemes glued by the identity along a common open U.

    Points are labeled ("L", p) for the first piece and ("R", q) for the
    second; the points of U keep their "L" label.  A set is closed iff both
    its traces are closed (the quotient topology).  glue admits charts with
    one carrier and one list of primes only, so X1's spectrum serves every
    point, and a local image is the chart's relabeled: a chart's minimal
    open lies inside every glued open around the point.
    """

    def __init__(self, X1: AffineScheme, X2: AffineScheme, U: frozenset):
        super().__init__(X1.spectrum)
        self.X1, self.X2 = X1, X2
        self.U = frozenset(U)
        self.points = tuple(
            [("L", p) for p in X1.points] + [("R", q) for q in X2.points if q not in self.U]
        )

    def label(self) -> str:
        return f"Glued({self.X1.label()},{self.X2.label()})"

    def _prime(self, point) -> int:
        return point[1]

    def _label(self, point, q):
        return ("L", q) if point[0] == "L" or q in self.U else ("R", q)

    def _listed(self, U: Iterable) -> list:
        return sorted(U, key=repr)

    @cached_property
    def space(self) -> FiniteSpace:
        """Each closed set glues a closed set of each chart, the two with the
        same trace on U, so chart closed sets are paired by trace.  Points
        are listed in message order."""
        s1, s2 = self.X1.space, self.X2.space
        points = self._listed(self.points)
        bit = {p: 1 << i for i, p in enumerate(points)}
        u = s1.mask(self.U)  # both charts have the same points
        left = [bit[("L", p)] for p in s1.points]
        right = [bit[("L" if q in self.U else "R", q)] for q in s2.points]
        by_trace: dict = {}
        for c in s2.closed_masks:
            by_trace.setdefault(c & u, []).append(_map_bits(c, right))
        closed = [_map_bits(c, left) | r for c in s1.closed_masks for r in by_trace.get(c & u, ())]
        return FiniteSpace(points, closed)

    def stalk(self, point) -> tuple[SectionGroup, dict]:
        group = self.section_group(self.minimal_open(point))
        side, p = point
        inner, report = (self.X1 if side == "L" else self.X2).stalk(p)
        return group, {"chart_stalk_order": len(inner), **report}

    def charts(self) -> list[AffineScheme]:
        return [self.X1, self.X2]


def glue(X1, X2, U1: Iterable, U2: Iterable) -> GluedScheme:
    """Glue two affine schemes by the identity along U1 == U2.

    Both need the same carrier and the same primes.  Then they have the
    same closed sets, so the traces of their opens on U are one family;
    and the same local images, so a section of one chart over an open
    inside U is a section of the other, with the same row.  The identity
    is thus a homeomorphism of the opens with an isomorphism of sections.
    The same base and structure map make the constant sections agree.
    """
    U1, U2 = frozenset(U1), frozenset(U2)
    if not X1.space.is_open(U1) or not X2.space.is_open(U2):
        raise SheafError("gluing opens must be open")
    if not (type(X1) is AffineScheme and type(X2) is AffineScheme):
        raise SheafError("identity gluing needs two affine schemes")
    s1, s2 = X1.spectrum, X2.spectrum
    if (
        s1.object.carrier is not s2.object.carrier
        or [P.members for P in s1.primes] != [P.members for P in s2.primes]
        or U1 != U2
    ):
        raise SheafError("identity gluing needs equal spectra and equal opens")
    if X2.base is not X1.base:
        raise SheafError("gluing schemes over different bases")
    if s1.object.structure.image != s2.object.structure.image:
        raise SheafError("identity gluing needs equal structure maps")
    return GluedScheme(X1, X2, U1)


# -- morphisms -------------------------------------------------------------


@dataclass(eq=False)  # coset maps are arrays: compare morphisms by identity
class SchemeMorphism:
    """Geometric point map plus the pullback on sections, as coset maps.

    ``maps[p]`` sends a coset index of the target's quotient at
    ``point_map[p]`` to a coset index of the source's quotient at p; a
    section's row pulls back column by column through them.
    """

    source: object
    target: object
    point_map: dict  # source point -> target point
    maps: dict  # source point -> int array over the target point's cosets

    def preimage(self, U: Iterable) -> frozenset:
        U = frozenset(U)
        return frozenset(p for p, q in self.point_map.items() if q in U)

    def _pull(self, rows: np.ndarray, U: frozenset) -> np.ndarray:
        """Rows of target sections over U as rows over the preimage of U."""
        at = _positions(U)
        cols = [self.maps[p][rows[:, at[self.point_map[p]]]] for p in _positions(self.preimage(U))]
        return np.array(cols, dtype=np.int64).reshape(len(cols), len(rows)).T

    def pullback(self, s: SchemeSection) -> SchemeSection:
        """The section of the source that s pulls back to."""
        W = self.preimage(s.open_set)
        row = self._pull(np.array([s.values], dtype=np.int64), s.open_set)
        GW = self.source.section_group(W)
        return GW.elements[GW.index_of(row[0])]

    def verify(self) -> dict:
        """Continuity, pullbacks landing in sections, and localness, each on
        whole arrays of section rows.

        Restriction squares commute by construction: column p of a pulled
        row reads only the target column ``point_map[p]``, so restricting
        then pulling back selects the same columns as pulling back then
        restricting, whatever ``maps`` holds.
        """
        if not self.source.space.is_continuous(self.point_map, self.target.space):
            raise SheafError("geometric map is not continuous")
        for U in self.target.space.opens:
            GW = self.source.section_group(self.preimage(U))
            GW._indices(self._pull(self.target.section_group(U).rows, U))
        # a section has the identity value at f(p) iff its pullback has it at p
        local = True
        for p, q in self.point_map.items():
            Gq = self.target.section_group(self.target.minimal_open(q))
            values = Gq.rows[:, _positions(Gq.open_set)[q]]
            vanish_target = values == _id_coset(self.target, q)
            vanish_source = self.maps[p][values] == _id_coset(self.source, p)
            local = local and bool(np.array_equal(vanish_target, vanish_source))
        if not local:
            raise SheafError("morphism is not local")
        return {"continuous": True, "squares": True, "local": True}


def _id_coset(scheme, point) -> int:
    q = scheme.point_quotient(point)
    return q.projection(q.parent.id)


def induced_morphism(f: GMorphism, variant: str, prime_def: str = "elementwise") -> SchemeMorphism:
    """The scheme morphism Spec(target of f) -> Spec(source of f), P -> f^-1(P).

    P_q = f^-1(P'_p) makes f send each coset of P_q into one coset of P'_p,
    so ``maps[p]`` is the projection at p of f of q's coset representatives.
    """
    specH = spectrum(f.source, variant, prime_def)
    specHp = spectrum(f.target, variant, prime_def)
    X = affine_scheme(specHp)
    Y = affine_scheme(specH)
    pm = {}
    for i, Pp in enumerate(specHp.primes):
        K = f.map.preimage_subgroup(Pp.members)
        if K.is_whole():
            raise SheafError(
                f"preimage of prime #{i} is the whole carrier; no induced point"
            )
        match = next((j for j, P in enumerate(specH.primes) if P.members == K), None)
        if match is None:
            raise SheafError(
                f"preimage of prime #{i} fails the {variant}/{prime_def} primality test"
            )
        pm[i] = match
    image = np.asarray(f.map.image)
    maps = {
        p: np.asarray(X.point_quotient(p).projection.image)[image[list(Y.point_quotient(q).reps)]]
        for p, q in pm.items()
    }
    m = SchemeMorphism(X, Y, pm, maps)
    m.verify()
    return m


def embed_quotient(obj: GGroup, I: Ideal, variant: str, prime_def: str = "elementwise") -> tuple[SchemeMorphism, bool]:
    """The induced morphism of the quotient projection, with isomorphism flag.

    The image is the vanishing set V(I); when I is the radical the morphism
    is an isomorphism onto the whole space.
    """
    from .spectrum import quotient_object, vanishing_set

    qobj, q = quotient_object(obj, I.members)
    f = GMorphism(obj, qobj, q.projection)
    m = induced_morphism(f, variant, prime_def)
    specH = m.target.spectrum
    image = frozenset(m.point_map.values())
    VI = vanishing_set(specH, I.members)
    if image != VI:
        raise SheafError("embedding image differs from V(I)")
    if len(set(m.point_map.values())) != len(m.point_map):
        raise SheafError("embedding is not injective on points")
    # homeomorphism onto the image: the source's closed sets are the traces
    # of the target's on the image, point for point
    src = m.source.space
    onto = m.target.space.subspace([m.point_map[p] for p in src.points])
    if onto.closed_masks != src.closed_masks:
        raise SheafError("embedding is not a homeomorphism onto V(I)")
    iso = I.members == whole_radical(specH)
    if iso:
        whole_src = frozenset(m.source.points)
        whole_tgt = frozenset(m.target.points)
        GS = m.source.section_group(whole_src)
        GT = m.target.section_group(whole_tgt)
        pulled = set(map(tuple, m._pull(GT.rows, whole_tgt).tolist()))
        if len(GS) != len(GT) or len(pulled) != len(GT):
            raise SheafError("radical embedding failed the sheaf isomorphism check")
    return m, iso


# -- audits and theorem-shaped helpers -------------------------------------


def check_sheaf_axioms(scheme) -> dict:
    """Identity and gluing on pair covers and minimal-open covers of each open.

    The space lists each open's bitmask, so the pair covers of U are the
    pairs of its proper sub-opens whose masks join to U's.  Gluing holds on
    a cover iff the join of its two section groups, sorted, is G(U)'s rows.
    """
    opens, masks = scheme.space.opens, scheme.space.open_masks
    checked_pairs = 0
    checked_minimal = 0
    for U, u in zip(opens, masks):
        GU = scheme.section_group(U)
        # pair covers by proper opens (a cover containing U itself glues
        # trivially once the identity axiom holds)
        inside = [(V, m) for V, m in zip(opens, masks) if m & u == m != u]
        for (V1, m1), (V2, m2) in itertools.combinations(inside, 2):
            if m1 | m2 != u:
                continue
            cover = [scheme.section_group(V1), scheme.section_group(V2)]
            joined = _joined_rows([(tuple(sorted(G.open_set)), G.rows) for G in cover], sorted(U))
            if not np.array_equal(joined, GU.rows):
                raise SheafError(
                    f"gluing axiom fails on {sorted(U, key=repr)} = "
                    f"{sorted(V1, key=repr)} | {sorted(V2, key=repr)}"
                )
            checked_pairs += 1
        # minimal-open cover: identity axiom, on the row's column blocks
        if U:
            at = _positions(U)
            blocks = [at[r] for p in sorted(U) for r in _positions(scheme.minimal_open(p))]
            keys = np.sort(_row_keys(GU.rows[:, blocks]))
            if (keys[1:] == keys[:-1]).any():
                raise SheafError("identity axiom fails on the minimal-open cover")
            checked_minimal += 1
    return {"pair_covers": checked_pairs, "minimal_covers": checked_minimal}


def global_sections_vs_quotient(spec: Spectrum) -> dict:
    """Whether sections over the whole space coincide with H/rad.

    The comparison map sends h to its constant section; the hypothesis under
    which equality is claimed is that the irreducible components have a
    common point.
    """
    X = affine_scheme(spec)
    whole = frozenset(X.points)
    G = X.section_group(whole)
    rad = whole_radical(spec)
    H = spec.object.carrier
    comps = irreducible_components(spec)
    inter = frozenset(X.points)
    for c, _ in comps:
        inter &= c
    hypothesis = bool(inter) or not comps
    if not spec.primes:
        return {"hypothesis": hypothesis, "isomorphic": len(G) == 1,
                "sections": len(G), "quotient_order": 1}
    q = quotient(H, rad)
    images = set(G._indices(X.element_rows(whole, q.reps)).tolist())
    return {
        "hypothesis": hypothesis,
        "isomorphic": len(images) == q.table.order == len(G),
        "sections": len(G),
        "quotient_order": q.table.order,
    }


def restrictions_are_isomorphisms(spec: Spectrum) -> bool:
    """For irreducible spectra, restrictions between nonempty opens are bijective."""
    X = affine_scheme(spec)
    if not spec.space.is_irreducible(X.points):
        raise SheafError("the spectrum is not irreducible")
    opens = [U for U in spec.space.opens if U]
    for U in opens:
        GU = X.section_group(U)
        for V in opens:
            if V < U:
                GV = X.section_group(V)
                idx = GU.restriction_indices(GV)
                if len(set(idx)) != len(GV) or len(idx) != len(GV):
                    return False
    return True


def point_vanishing_ideal(group: SectionGroup, point) -> Ideal:
    """I_P(U) = sections with identity value at the point, as an ideal."""
    gg = group.as_ggroup()
    if point not in group.open_set:
        raise SheafError(f"point {point!r} not in the section domain")
    values = group.rows[:, _positions(group.open_set)[point]]
    members = np.flatnonzero(values == _id_coset(group.scheme, point)).tolist()
    return Ideal(gg, Subgroup(gg.carrier, members))


def noetherian_sections(spec: Spectrum) -> dict:
    """Global sections as compatible tuples over the component generic primes.

    Tuples (g_j) in the product of the H/P_j, constrained by agreement in
    H/(P_j P_k) whenever the closures of the generic points meet.
    """
    H = spec.object.carrier
    comps = irreducible_components(spec)
    if not comps:
        return {"order": 1, "tuples": [()], "isomorphic_to_sections": True}
    generics = [g for _, g in comps]
    if None in generics:
        raise SheafError("a component has no generic member prime")
    quots = [quotient(H, spec.primes[g].members) for g in generics]
    closures = [spec.space.closure({g}) for g in generics]
    pair_quots = {}
    for j, k in itertools.combinations(range(len(generics)), 2):
        if closures[j] & closures[k]:
            prod = subgroup_product(
                H, spec.primes[generics[j]].members, spec.primes[generics[k]].members
            )
            pair_quots[(j, k)] = quotient(H, prod)
    tuples = [
        combo
        for combo in itertools.product(*[range(q.table.order) for q in quots])
        if all(
            pq.projection(quots[j].reps[combo[j]]) == pq.projection(quots[k].reps[combo[k]])
            for (j, k), pq in pair_quots.items()
        )
    ]
    X = affine_scheme(spec)
    whole = frozenset(X.points)
    G = X.section_group(whole)
    # natural comparison: a section is sent to its values at the generic points
    at = _positions(whole)
    keys = list(map(tuple, G.rows[:, [at[g] for g in generics]].tolist()))
    image = set(keys)
    iso = len(image) == len(keys) and image == set(tuples)
    return {
        "order": len(tuples),
        "tuples": tuples,
        "sections_order": len(G),
        "isomorphic_to_sections": iso,
    }


# -- the Hom correspondence for schemes ------------------------------------


def scheme_hom_correspondence(X, Hobj: GGroup, variant: str, prime_def: str = "elementwise") -> dict:
    """Scheme morphisms X -> Spec(H) against G-morphisms H/rad -> O_X(X).

    Requires every chart of X to be an irreducible spectrum and the global
    sections of Spec(H) to coincide with H/rad.
    """
    from .spectrum import quotient_object

    for chart in X.charts():
        if not chart.space.is_irreducible(chart.points):
            raise SheafError("a chart is not irreducible")
    specH = spectrum(Hobj, variant, prime_def)
    Y = affine_scheme(specH)
    gv = global_sections_vs_quotient(specH)
    if not gv["isomorphic"]:
        raise SheafError("global sections of the target are not H/rad")
    rad = whole_radical(specH)
    if rad.is_trivial():
        A = Hobj
        proj = Homomorphism.identity(Hobj.carrier)
        lift = range(Hobj.carrier.order)
    else:
        A, q = quotient_object(Hobj, rad)
        proj = q.projection
        lift = q.reps
    whole_X = frozenset(X.points)
    B = X.section_group(whole_X).as_ggroup()
    homs = enumerate_g_morphisms(A, B)
    GX = X.section_group(whole_X)

    def Phi(m: SchemeMorphism) -> Optional[int]:
        """Index of the G-morphism matching the global pullback of m."""
        whole_Y = frozenset(Y.points)
        image = GX._indices(m._pull(Y.element_rows(whole_Y, lift), whole_Y)).tolist()
        return next((i for i, v in enumerate(homs) if list(v.map.image) == image), None)

    def Psi(vi: int) -> SchemeMorphism:
        """Rebuild the geometric map from prime preimages of vanishing ideals.

        h -> (value at x of v(proj(h))) is a homomorphism with kernel P_q,
        q = pm[x], so it factors through H/P_q: that is ``maps[x]``."""
        v = homs[vi]
        # the global section v(proj(h)) of every h, as a row over X's points
        images = GX.rows[[v(proj(h)) for h in range(Hobj.carrier.order)]]
        at = _positions(whole_X)
        pm, maps = {}, {}
        for x in X.points:
            values = images[:, at[x]]
            K = Subgroup(Hobj.carrier, np.flatnonzero(values == _id_coset(X, x)).tolist())
            match = next((j for j, P in enumerate(specH.primes) if P.members == K), None)
            if match is None:
                raise SheafError(
                    f"vanishing preimage at point {x!r} is not a prime of the target"
                )
            pm[x] = match
            maps[x] = values[list(Y.point_quotient(match).reps)]
        m = SchemeMorphism(X, Y, pm, maps)
        m.verify()
        return m

    roundtrips = []
    for vi in range(len(homs)):
        m = Psi(vi)
        back = Phi(m)
        m2 = Psi(back) if back is not None else None
        roundtrips.append(
            {
                "hom": vi,
                "phi_psi_identity": back == vi,
                "psi_phi_point_map_stable": m2 is not None and m2.point_map == m.point_map,
            }
        )
    return {
        "hom_count": len(homs),
        "homs": homs,
        "Phi": Phi,
        "Psi": Psi,
        "roundtrips": roundtrips,
        "all_identity": all(r["phi_psi_identity"] and r["psi_phi_point_map_stable"] for r in roundtrips),
    }
