"""Objects (H, f: G -> H) over a fixed base group, and their morphisms.

The structure map need not be injective.  Conjugate spans G(x), the
primality engine behind spectra and divisor witnesses, and Hom-set
enumeration live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fingroup import GroupError, GroupTable, Homomorphism, Subgroup, normal_subgroups
from .fingroup import _respects_generators
from . import freeprod

__all__ = ["GGroup", "GMorphism", "identity_object", "enumerate_g_morphisms", "VARIANTS", "PRIME_DEFS"]

VARIANTS = ("t1", "t2")
PRIME_DEFS = ("quotient", "elementwise")


def _check_names(variant: str, prime_def: str = "elementwise") -> None:
    if variant not in VARIANTS:
        raise GroupError(f"unknown variant {variant!r}")
    if prime_def not in PRIME_DEFS:
        raise GroupError(f"unknown prime_def {prime_def!r}")


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

    def _orbits(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The orbits of conjugation by f(G) and each element's orbit."""
        if "orbits" not in self._caches:
            self._caches["orbits"] = self.carrier.conjugation_orbits(self.structure.image)
        return self._caches["orbits"]

    def g_span(self, x: int) -> Subgroup:
        """Subgroup of the carrier generated by the f(g)-conjugates of x,
        i.e. by x's orbit under conjugation by f(G): one closure per orbit."""
        cache = self._caches.setdefault("span", {})
        if x not in cache:
            orbits, orbit_of = self._orbits()
            orbit = orbits[orbit_of[x]]
            span = self.carrier.generated_subgroup(orbit)
            cache.update(dict.fromkeys(orbit.tolist(), span))
        return cache[x]

    # -- primality ---------------------------------------------------------

    def primes(self, variant: str, prime_def: str) -> tuple[Subgroup, ...]:
        """The proper normal subgroups N of the carrier with no divisor pair
        modulo N, in ``normal_subgroups`` order, all decided in one pass."""
        _check_names(variant, prime_def)
        key = ("primes", variant, prime_def)
        if key not in self._caches:
            proper = normal_subgroups(self.carrier)[:-1]  # the last is the carrier
            self._caches[key] = tuple(
                N for N in proper if not self._divisor_pairs(N, variant, prime_def).any()
            )
        return self._caches[key]

    def _divisor_pairs(self, N: Subgroup, variant: str, prime_def: str) -> np.ndarray:
        """Bool matrix over the f(G)-orbits: (i, j) is set iff both orbits
        lie outside the normal subgroup N and the spans of their images make
        a divisor pair in H/N.

        x lies outside N iff its span does.  The span of xN in H/N is
        G(x)N/N and [AN/N, BN/N] = [A, B]N/N (correspondence theorem), so
        t1 reads the same under both definitions and no quotient is built.
        """
        orbits, _ = self._orbits()
        outside = ~N.mask[[int(o[0]) for o in orbits]]
        if variant == "t1":
            held_by = np.array([M.issubset(N) for M in normal_subgroups(self.carrier)])
            held = held_by[self._commutator_closures()]
        else:
            spans, span_of = self._span_masks()
            if prime_def == "elementwise":  # S_i & S_j <= N
                rest = spans & ~N.mask
            else:  # S_iN & S_jN = N; a coset is named by its least member
                coset = self.carrier.mul[:, N.mask].min(axis=1)
                rest = np.zeros_like(spans)
                rows, cols = np.nonzero(spans)
                rest[rows, coset[cols]] = True
                rest[:, coset[self.carrier.id]] = False
            held = ~(rest @ rest.T)[np.ix_(span_of, span_of)]
        return held & outside[:, None] & outside[None, :]

    def _commutator_closures(self) -> np.ndarray:
        """least[i, j]: index in ``normal_subgroups`` of the normal closure
        of [S_i, S_j], for the spans of f(G)-orbits i and j.

        A normal N holds [S_i, S_j] iff it holds every commutator of the two
        orbits, a union of conjugacy classes.  Conjugating by f(G) moves each
        pair onto one with the first entry a fixed member a_i of orbit i, so
        the classes of [a_i, b], b in orbit j, are all of them.  The closure
        is the first normal subgroup, by size, holding those classes.
        """
        if "t1" not in self._caches:
            H = self.carrier
            classes, class_of = H.class_partition
            firsts = [int(c[0]) for c in classes]
            outside = ~np.array([N.mask[firsts] for N in normal_subgroups(H)]).T
            orbits, orbit_of = self._orbits()
            every = np.arange(H.order)
            least = np.empty((len(orbits), len(orbits)), dtype=np.int32)
            for i, orbit in enumerate(orbits):
                a = int(orbit[0])
                comm = H.mul[H.mul[H.mul[a, every], H.inv[a]], H.inv[every]]
                met = np.zeros((len(orbits), len(classes)), dtype=bool)
                met[orbit_of, class_of[comm]] = True
                least[i] = np.argmin(met @ outside, axis=1)
            self._caches["t1"] = least
        return self._caches["t1"]

    def _span_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct spans as member-mask rows, and each orbit's row."""
        if "spans" not in self._caches:
            orbits, _ = self._orbits()
            rows: dict[Subgroup, int] = {}
            span_of = [rows.setdefault(self.g_span(int(o[0])), len(rows)) for o in orbits]
            self._caches["spans"] = (np.array([S.mask for S in rows]), np.asarray(span_of))
        return self._caches["spans"]

    # -- divisors of zero --------------------------------------------------

    def divisor_witness(self, x: int, variant: str) -> Optional[int]:
        """First y != 1 in canonical order making x a divisor of zero."""
        _check_names(variant)
        H = self.carrier
        if x == H.id:
            raise GroupError("x must be distinct from the identity")
        _, orbit_of = self._orbits()
        pairs = self._divisor_pairs(normal_subgroups(H)[0], variant, "elementwise")
        hits = np.flatnonzero(pairs[orbit_of[x], orbit_of])
        return int(hits[0]) if hits.size else None

    def is_integral(self, variant: str) -> bool:
        """No divisors of zero, i.e. the trivial ideal is prime; vacuously
        true for the trivial carrier."""
        _check_names(variant)
        H = self.carrier
        return H.order == 1 or normal_subgroups(H)[0] in self.primes(variant, "elementwise")

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


def enumerate_g_morphisms(A: GGroup, B: GGroup) -> list[GMorphism]:
    """All carrier homomorphisms commuting with the structure maps, sorted
    by image.

    A's carrier is generated greedily from its structure image onwards.  A
    generator in that image has one candidate, its image under the
    structure maps; any other generator g has every h of B whose order
    divides g's.  Candidate tuples run in blocks of rows: each block's
    image rows are filled with one gather per step y = x*g of a spanning
    tree, then kept if they pass the generator test.
    """
    if A.base is not B.base:
        raise GroupError("objects over different bases")
    HA, HB = A.carrier, B.carrier
    seed: dict[int, int] = {}
    for g in range(A.base.order):
        a, b = A.structure(g), B.structure(g)
        if a in seed and seed[a] != b:
            return []  # structure maps incompatible
        seed[a] = b
    gens = HA._close([*seed, *range(HA.order)])[1]
    orders = np.array([HB.element_order(h) for h in range(HB.order)])
    cands = [
        [seed[g]] if g in seed else np.flatnonzero(HA.element_order(g) % orders == 0).tolist()
        for g in gens
    ]
    reached, seen, steps = [HA.id], {HA.id}, []  # steps (y, x, k): y = x * gens[k]
    for x in reached:  # grows while walked
        for k, g in enumerate(gens):
            y = int(HA.mul[x, g])
            if y not in seen:
                seen.add(y)
                reached.append(y)
                steps.append((y, x, k))
    tuples = itertools.product(*cands)
    step = max(1, 2 ** 16 // HA.order)  # rows per block: about 2**16 images
    found = []
    while block := list(itertools.islice(tuples, step)):
        C = np.array(block, dtype=np.intp)
        rows = np.empty((len(C), HA.order), dtype=np.intp)
        rows[:, HA.id] = HB.id
        for y, x, k in steps:
            rows[:, y] = HB.mul[rows[:, x], C[:, k]]
        found.extend(map(tuple, rows[_respects_generators(HA, HB, rows)].tolist()))
    return [GMorphism(A, B, Homomorphism(HA, HB, img)) for img in sorted(found)]
