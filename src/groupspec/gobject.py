"""Objects (H, f: G -> H) over a fixed base group, and their morphisms.

The structure map need not be injective.  Conjugate spans G(x), divisor
witnesses and Hom-set enumeration live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    commutator_subgroup,
)
from . import freeprod

__all__ = ["GGroup", "GMorphism", "identity_object", "enumerate_g_morphisms"]


@dataclass(frozen=True)
class GGroup:
    """A carrier group with a structure map from the base group."""

    base: GroupTable
    carrier: GroupTable
    structure: Homomorphism
    name: Optional[str] = None
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.structure.source is not self.base or self.structure.target is not self.carrier:
            raise GroupError("structure map endpoints do not match")
        self.structure.verify()

    def __hash__(self):
        return hash((id(self.base), id(self.carrier), self.structure.image))

    def label(self) -> str:
        return self.name or f"{self.base.name}->{self.carrier.name}"

    # -- spans -------------------------------------------------------------

    def g_span(self, x: int) -> Subgroup:
        """Subgroup of the carrier generated by the f(g)-conjugates of x,
        i.e. by x's orbit under conjugation by f(G): one closure per orbit."""
        cache = self._caches.setdefault("span", {})
        if x not in cache:
            if "orbits" not in self._caches:
                self._caches["orbits"] = self.carrier.conjugation_orbits(self.structure.image)
            orbits, orbit_of = self._caches["orbits"]
            orbit = orbits[orbit_of[x]]
            span = self._intern(self.carrier.generated_subgroup(orbit))
            cache.update(dict.fromkeys(orbit.tolist(), span))
        return cache[x]

    def _intern(self, sub: Subgroup) -> Subgroup:
        pool = self._caches.setdefault("subs", {})
        return pool.setdefault(sub.members, sub)

    def _condition(self, S1: Subgroup, S2: Subgroup, variant: str) -> Subgroup:
        """The subgroup whose containment in an ideal drives primality."""
        if variant == "t1":
            cache = self._caches.setdefault("comm", {})
            key = (S1.members, S2.members)
            if key not in cache:
                cache[key] = self._intern(commutator_subgroup(self.carrier, S1, S2))
            return cache[key]
        if variant == "t2":
            return self._intern(S1.intersection(S2))
        raise GroupError(f"unknown variant {variant!r}")

    # -- divisors of zero --------------------------------------------------

    def divisor_witness(self, x: int, variant: str) -> Optional[int]:
        """First y != 1 in canonical order making x a divisor of zero."""
        H = self.carrier
        if x == H.id:
            raise GroupError("x must be distinct from the identity")
        Sx = self.g_span(x)
        for y in range(H.order):
            if y == H.id:
                continue
            if self._condition(Sx, self.g_span(y), variant).is_trivial():
                return y
        return None

    def is_integral(self, variant: str) -> bool:
        """No divisors of zero; vacuously true for the trivial carrier."""
        H = self.carrier
        spans = set()
        for x in range(H.order):
            if x != H.id:
                spans.add(self.g_span(x))
        spans = sorted(spans, key=lambda s: s.members)
        for S1 in spans:
            for S2 in spans:
                if self._condition(S1, S2, variant).is_trivial():
                    return False
        return True

    # -- word evaluation ---------------------------------------------------

    def evaluate(self, w: "freeprod.Word", assignment: Sequence[int]) -> int:
        return freeprod.evaluate(w, self.structure, assignment)


@dataclass(frozen=True)
class GMorphism:
    """Carrier homomorphism commuting with the structure maps."""

    source: GGroup
    target: GGroup
    map: Homomorphism

    def __post_init__(self):
        if self.map.source is not self.source.carrier or self.map.target is not self.target.carrier:
            raise GroupError("morphism endpoints do not match")
        if self.source.base is not self.target.base:
            raise GroupError("morphism requires a common base group")
        self.map.verify()
        for g in range(self.source.base.order):
            if self.map(self.source.structure(g)) != self.target.structure(g):
                raise GroupError("morphism does not commute with structure maps")

    def __call__(self, x: int) -> int:
        return self.map(x)


def identity_object(G: GroupTable, name: Optional[str] = None) -> GGroup:
    return GGroup(G, G, Homomorphism.identity(G), name=name or G.name)


def _minimal_generators(obj: GGroup) -> list[int]:
    """Generators of the carrier extending the structure image, greedily."""
    H = obj.carrier
    sub = H.generated_subgroup(set(obj.structure.image))
    gens = []
    while len(sub) < H.order:
        g = next(x for x in range(H.order) if x not in sub)
        gens.append(g)
        sub = H.generated_subgroup(list(sub.members) + gens)
    return gens


def _complete_map(A: GroupTable, B: GroupTable, seed: dict[int, int]) -> Optional[list[int]]:
    """Extend a partial map on generators to a full homomorphism, or None.

    Closes the domain under products while checking consistency on every
    pair, so a successful completion is a verified homomorphism.
    """
    mapping = {A.id: B.id}
    mapping.update(seed)
    elems = list(mapping)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(len(elems)):
            b = elems[j]
            for x, y in ((a, b), (b, a)):
                p = A.op(x, y)
                img = B.op(mapping[x], mapping[y])
                if p in mapping:
                    if mapping[p] != img:
                        return None
                else:
                    mapping[p] = img
                    elems.append(p)
        i += 1
    if len(mapping) != A.order:
        return None
    return [mapping[x] for x in range(A.order)]


def enumerate_g_morphisms(A: GGroup, B: GGroup) -> list[GMorphism]:
    """All carrier homomorphisms commuting with the structure maps."""
    if A.base is not B.base:
        raise GroupError("objects over different bases")
    HA, HB = A.carrier, B.carrier
    seed: dict[int, int] = {}
    for g in range(A.base.order):
        a, b = A.structure(g), B.structure(g)
        if a in seed and seed[a] != b:
            return []  # structure maps incompatible
        seed[a] = b
    gens = _minimal_generators(A)
    found = []

    def assign(k: int, partial: dict[int, int]):
        if k == len(gens):
            full = _complete_map(HA, HB, partial)
            if full is not None:
                found.append(full)
            return
        g = gens[k]
        order_g = HA.element_order(g)
        for h in range(HB.order):
            if order_g % HB.element_order(h) != 0:
                continue
            partial2 = dict(partial)
            partial2[g] = h
            assign(k + 1, partial2)

    assign(0, seed)
    out = []
    seen = set()
    for img in sorted(found):
        timg = tuple(img)
        if timg in seen:
            continue
        seen.add(timg)
        out.append(GMorphism(A, B, Homomorphism(HA, HB, img)))
    return out
