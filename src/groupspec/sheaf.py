"""Structural sheaves on finite spectra, schemes, morphisms and gluing.

Sections are value maps P -> coset in H/P that admit, for every point, a
single carrier element realizing the values on the point's minimal open.
A section is stored as a row: its coset indices in sorted point order.
Minimal opens replace arbitrary covers: in a finite space every open cover
refines to the minimal-open cover, so the two locality conditions agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    QuotientGroup,
    Subgroup,
    pointwise_table,
    quotient,
    subgroup_product,
)
from .gobject import GGroup, GMorphism, enumerate_g_morphisms
from .spectrum import (
    Ideal,
    Spectrum,
    irreducible_components,
    point_radical,
    spectrum,
    whole_radical,
)

__all__ = [
    "SheafError",
    "Scheme",
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


@runtime_checkable
class Scheme(Protocol):
    """What a scheme offers: points, a finite topology and section groups.

    ``AffineScheme`` and ``GluedScheme`` both satisfy it.
    """

    points: tuple
    base: GroupTable

    def label(self) -> str: ...
    def opens(self) -> list[frozenset]: ...
    def is_open(self, U: Iterable) -> bool: ...
    def minimal_open(self, p) -> frozenset: ...
    def point_quotient(self, p) -> QuotientGroup: ...
    def section_group(self, U: Iterable) -> "SectionGroup": ...
    def restrict(self, s: SchemeSection, U: frozenset) -> SchemeSection: ...
    def constant_section(self, U: frozenset, g: int) -> SchemeSection: ...
    def stalk(self, p) -> tuple["SectionGroup", dict]: ...
    def charts(self) -> list["AffineScheme"]: ...


def _check_point(scheme, point) -> None:
    if point not in scheme.points:
        raise SheafError(f"no point {point!r}: {scheme.label()} has {len(scheme.points)} points")


def _open_order(w: frozenset) -> tuple:
    return (len(w), repr(sorted(w, key=repr)))


def _natural_join(left: tuple, right: tuple) -> tuple:
    """The natural join of two relations (points, rows) on their shared
    points: each left row, in order, extended by every matching right row."""
    (lpts, lrows), (rpts, rrows) = left, right
    col = {r: i for i, r in enumerate(lpts)}
    shared = [i for i, r in enumerate(rpts) if r in col]
    fresh = [i for i, r in enumerate(rpts) if r not in col]
    extend: dict = {}
    for key in rrows:
        extend.setdefault(tuple(key[i] for i in shared), []).append(
            tuple(key[i] for i in fresh)
        )
    at = [col[rpts[i]] for i in shared]
    rows = [row + tail for row in lrows for tail in extend.get(tuple(row[i] for i in at), ())]
    return tuple(lpts) + tuple(rpts[i] for i in fresh), rows


def _columns(relation: tuple, pts: Sequence) -> list[tuple]:
    """The relation's rows with their columns in the order of pts."""
    points, rows = relation
    order = [points.index(p) for p in pts]
    return [tuple(row[i] for i in order) for row in rows]


class SectionGroup:
    """Sections over a fixed open, under the pointwise product."""

    def __init__(self, scheme, open_set: frozenset, elements: Sequence[SchemeSection]):
        self.scheme = scheme
        self.open_set = frozenset(open_set)
        self.elements: tuple[SchemeSection, ...] = tuple(elements)
        self._index = {s.values: i for i, s in enumerate(self.elements)}
        self._ggroup: Optional[GGroup] = None

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, s: SchemeSection) -> int:
        try:
            return self._index[s.values]
        except KeyError:
            raise SheafError("section does not belong to this group") from None

    @cached_property
    def rows(self) -> np.ndarray:
        """The element rows as one int array, a line per element."""
        return np.array([s.values for s in self.elements], dtype=np.int64)

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """The element index of each given row, -1 where a row is no section."""
        n = len(self.elements)
        _, first, inv = np.unique(
            np.concatenate([self.rows, rows]), axis=0, return_index=True, return_inverse=True
        )
        idx = first[inv.reshape(-1)[n:]]
        return np.where(idx < n, idx, -1)

    def constant_index(self, g: int) -> int:
        return self.index_of(self.scheme.constant_section(self.open_set, g))

    def as_ggroup(self) -> GGroup:
        """Materialize the multiplication table; only for small groups."""
        if self._ggroup is None:
            n = len(self.elements)
            if n > SECTION_TABLE_CAP:
                raise SheafError(
                    f"section group of order {n} exceeds table cap {SECTION_TABLE_CAP}"
                )
            factors = [self.scheme.point_quotient(p).table for p in sorted(self.open_set)]
            try:
                mul = pointwise_table(factors, [s.values for s in self.elements])
            except GroupError:
                raise SheafError("product of sections is not a section") from None
            table = GroupTable(mul, name=f"O({len(self.open_set)}pts)", validate=False)
            G = self.scheme.base
            structure = Homomorphism(G, table, [self.constant_index(g) for g in range(G.order)])
            self._ggroup = GGroup(G, table, structure)
        return self._ggroup

    def restriction_indices(self, smaller: "SectionGroup") -> list[int]:
        """Index map of the restriction to a smaller open's section group."""
        if not smaller.open_set <= self.open_set:
            raise SheafError("restriction target is not a subset")
        return [
            smaller.index_of(self.scheme.restrict(s, smaller.open_set))
            for s in self.elements
        ]


# -- affine schemes --------------------------------------------------------


class AffineScheme:
    """The spectrum of an object with its structural sheaf.

    A value map on an open U is a section iff, at every point p of U, its
    values on minopen(p) are the cosets of one carrier element.  Those value
    tuples form p's local image, computed once per point, and the sections
    over U are the natural join of the local images of U's points.
    """

    # how an open is listed in messages; glued points sort by repr
    _message_order = None

    def __init__(self, spec: Spectrum):
        self.spectrum = spec
        self.base = spec.object.base
        self.structure = spec.object.structure
        self.points: tuple = tuple(range(len(spec.primes)))
        self._sections: dict[frozenset, SectionGroup] = {}
        self._quotients: dict[int, QuotientGroup] = {}
        self._images: dict[int, tuple[tuple, list]] = {}

    def label(self) -> str:
        return f"Spec_{self.spectrum.variant}({self.spectrum.object.label()})"

    def opens(self) -> list[frozenset]:
        return self.spectrum.open_sets()

    def is_open(self, U: Iterable) -> bool:
        return self.spectrum.is_open(U)

    def minimal_open(self, p) -> frozenset:
        return self.spectrum.minimal_open(p)

    def point_quotient(self, p: int) -> QuotientGroup:
        if p not in self._quotients:
            self._quotients[p] = quotient(
                self.spectrum.object.carrier, self.spectrum.primes[p].members
            )
        return self._quotients[p]

    def _local_image(self, p: int) -> tuple[tuple, list]:
        """(sorted minopen(p), image): image lists the distinct tuples of
        coset indices over minopen(p) of the carrier's elements.  The cosets
        of P_p cover the carrier, so every h realizes a value at p."""
        if p not in self._images:
            mo = tuple(sorted(self.minimal_open(p)))
            projections = np.array([self.point_quotient(r).projection.image for r in mo]).T
            image = sorted(set(map(tuple, projections.tolist())))
            self._images[p] = (mo, image)
        return self._images[p]

    # -- section arithmetic ------------------------------------------------

    def constant_section(self, U: frozenset, g: int) -> SchemeSection:
        return self.section_from_element(U, self.structure(g))

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
            if not self.is_open(U):
                raise SheafError(f"{sorted(U, key=self._message_order)} is not open")
            out = [SchemeSection(U, row) for row in self._join(sorted(U))]
            self._sections[U] = SectionGroup(self, U, out)
        return self._sections[U]

    def _join(self, pts: list) -> list[tuple]:
        """Value tuples over pts (an open, sorted) lying in every point's
        local image, in lexicographic order.

        Points with larger minimal opens join first; a later point whose
        minimal open is already bound only filters the rows.
        """
        order = sorted(pts, key=lambda p: (-len(self.minimal_open(p)), p))
        joined = reduce(_natural_join, map(self._local_image, order), ((), [()]))
        return sorted(_columns(joined, pts))

    def stalk(self, p: int) -> tuple[SectionGroup, dict]:
        """Sections over the minimal open, compared with H/rad(point)."""
        _check_point(self, p)
        mo = self.minimal_open(p)
        group = self.section_group(mo)
        rad = point_radical(self.spectrum, p)
        q = quotient(self.spectrum.object.carrier, rad)
        images = set()
        injective = True
        for h in q.reps:
            s = self.section_from_element(mo, h)
            idx = group.index_of(s)
            if idx in images:
                injective = False
            images.add(idx)
        report = {
            "from_quotient": q,
            "surjective": len(images) == len(group),
            "injective": injective,
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


class GluedScheme:
    """Two affine schemes glued by the identity along a common open U.

    Points are labeled ("L", p) for the first piece and ("R", q) for the
    second; the points of U keep their "L" label.  A set is open iff both
    its traces are open (the quotient topology).
    """

    _message_order = repr

    def __init__(self, X1: AffineScheme, X2: AffineScheme, U: frozenset):
        self.X1, self.X2 = X1, X2
        self.U = frozenset(U)
        self.base = X1.base
        self.structure = X1.structure
        self.points = tuple(
            [("L", p) for p in X1.points] + [("R", q) for q in X2.points if q not in self.U]
        )
        self._minimal_opens: dict = {}
        self._sections: dict[frozenset, SectionGroup] = {}

    def label(self) -> str:
        return f"Glued({self.X1.label()},{self.X2.label()})"

    # -- topology ----------------------------------------------------------

    @cached_property
    def _opens(self) -> list[frozenset]:
        """Each open glues its two traces: an open O1 of X1 and an open O2
        of X2 with O1 & U == O2 & U.  So chart opens are paired by their
        traces instead of testing every subset of points."""
        by_trace: dict = {}
        for O2 in self.X2.opens():
            by_trace.setdefault(O2 & self.U, []).append(O2)
        out = []
        for O1 in self.X1.opens():
            left = [("L", p) for p in O1]
            for O2 in by_trace.get(O1 & self.U, ()):
                out.append(frozenset(left + [("R", q) for q in O2 - self.U]))
        return sorted(out, key=_open_order)

    @cached_property
    def _open_set(self) -> frozenset:
        return frozenset(self._opens)

    def opens(self) -> list[frozenset]:
        return self._opens

    def is_open(self, W: Iterable) -> bool:
        return frozenset(W) in self._open_set

    def minimal_open(self, point) -> frozenset:
        if point not in self._minimal_opens:
            acc = frozenset(self.points)
            for W in self._opens:
                if point in W:
                    acc &= W
            self._minimal_opens[point] = acc
        return self._minimal_opens[point]

    # -- sections ----------------------------------------------------------

    def point_quotient(self, point) -> QuotientGroup:
        side, p = point
        return (self.X1 if side == "L" else self.X2).point_quotient(p)

    def _local_image(self, point) -> tuple[tuple, list]:
        """The chart's local image at the point, over glued labels: a point
        of U keeps its ("L", p) label.  glue admits equal carriers and
        primes only, so at a point of U either chart's image serves, and a
        chart's minimal open lies inside every glued open around the point."""
        side, p = point
        mo, image = (self.X1 if side == "L" else self.X2)._local_image(p)
        return tuple(("L", r) if side == "L" or r in self.U else ("R", r) for r in mo), image

    # a glued open's sections are the join of its points' local images too
    section_group = AffineScheme.section_group
    _join = AffineScheme._join
    section_from_element = AffineScheme.section_from_element
    constant_section = AffineScheme.constant_section
    restrict = AffineScheme.restrict

    def stalk(self, point) -> tuple[SectionGroup, dict]:
        _check_point(self, point)
        side, p = point
        mo = self.minimal_open(point)
        group = self.section_group(mo)
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
    if not X1.is_open(U1) or not X2.is_open(U2):
        raise SheafError("gluing opens must be open")
    if not (isinstance(X1, AffineScheme) and isinstance(X2, AffineScheme)):
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
        return GW.elements[GW.index_of(SchemeSection(W, tuple(row[0].tolist())))]

    def verify(self) -> dict:
        """Continuity, pullbacks landing in sections, and localness, each on
        whole arrays of section rows.

        Restriction squares commute by construction: column p of a pulled
        row reads only the target column ``point_map[p]``, so restricting
        then pulling back selects the same columns as pulling back then
        restricting, whatever ``maps`` holds.
        """
        opens = self.target.opens()
        for U in opens:
            if not self.source.is_open(self.preimage(U)):
                raise SheafError("geometric map is not continuous")
        for U in opens:
            GW = self.source.section_group(self.preimage(U))
            pulled = self._pull(self.target.section_group(U).rows, U)
            if (GW.locate(pulled) < 0).any():
                raise SheafError("section does not belong to this group")
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
    # homeomorphism onto the image: closed sets correspond
    src_closed = {
        frozenset(m.point_map[p] for p in (frozenset(m.source.points) - U))
        for U in m.source.opens()
    }
    tgt_closed = {
        (frozenset(m.target.points) - U) & image for U in m.target.opens()
    }
    if src_closed != tgt_closed:
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
    """Identity and gluing on pair covers and minimal-open covers of each open."""
    checked_pairs = 0
    checked_minimal = 0
    for U in scheme.opens():
        GU = scheme.section_group(U)
        opens_in_U = [V for V in scheme.opens() if V <= U]
        # pair covers by proper opens (a cover containing U itself glues
        # trivially once the identity axiom holds)
        for V1, V2 in itertools.combinations(opens_in_U, 2):
            if V1 | V2 != U or V1 == U or V2 == U:
                continue
            G1, G2 = scheme.section_group(V1), scheme.section_group(V2)
            joined = _natural_join(
                (sorted(V1), [s.values for s in G1.elements]),
                (sorted(V2), [s.values for s in G2.elements]),
            )
            if set(_columns(joined, sorted(U))) != {s.values for s in GU.elements}:
                raise SheafError(
                    f"gluing axiom fails on {sorted(U, key=repr)} = "
                    f"{sorted(V1, key=repr)} | {sorted(V2, key=repr)}"
                )
            checked_pairs += 1
        # minimal-open cover: identity axiom
        if U:
            cover = [scheme.minimal_open(p) for p in U]
            seen = {}
            for s in GU.elements:
                key = tuple(scheme.restrict(s, V).values for V in cover)
                if key in seen:
                    raise SheafError("identity axiom fails on the minimal-open cover")
                seen[key] = s
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
    images = {G.index_of(X.section_from_element(whole, h)) for h in q.reps}
    return {
        "hypothesis": hypothesis,
        "isomorphic": len(images) == q.table.order == len(G),
        "sections": len(G),
        "quotient_order": q.table.order,
    }


def restrictions_are_isomorphisms(spec: Spectrum) -> bool:
    """For irreducible spectra, restrictions between nonempty opens are bijective."""
    X = affine_scheme(spec)
    whole = frozenset(X.points)
    from .spectrum import is_irreducible_closed

    if not is_irreducible_closed(spec, whole):
        raise SheafError("the spectrum is not irreducible")
    opens = [U for U in X.opens() if U]
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
    scheme = group.scheme
    members = [
        i for i, s in enumerate(group.elements) if s.value_at(point) == _id_coset(scheme, point)
    ]
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
    closures = [spec.closure({g}) for g in generics]
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
    keys = [tuple(s.value_at(g) for g in generics) for s in G.elements]
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
    from .spectrum import is_irreducible_closed, quotient_object

    for chart in X.charts():
        cs = chart.spectrum
        if not is_irreducible_closed(cs, frozenset(range(len(cs.primes)))):
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
        image = [
            GX.index_of(m.pullback(Y.section_from_element(whole_Y, lift[a])))
            for a in range(A.carrier.order)
        ]
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
