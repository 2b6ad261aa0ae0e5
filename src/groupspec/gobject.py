"""Objects (H, f: G -> H) over a fixed base group, and their morphisms.

The structure map need not be injective.  Conjugate spans G(x), the
primality engine behind spectra and divisor witnesses, and Hom-set
enumeration live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def _orbits(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The orbits of conjugation by f(G) and each element's orbit."""
        return self.carrier.conjugation_orbits(self.structure.image)

    def g_span(self, x: int) -> Subgroup:
        """Subgroup of the carrier generated by the f(g)-conjugates of x,
        i.e. by x's orbit under conjugation by f(G)."""
        spans, span_of = self._spans
        return spans[span_of[self._orbits[1][x]]]

    @cached_property
    def _spans(self) -> tuple[tuple[Subgroup, ...], np.ndarray]:
        """The distinct spans, and each f(G)-orbit's index among them.

        When the orbits are the conjugacy classes (as many of each), the
        span of a class is its normal closure, the first lattice row holding
        it.  Otherwise x^k spans the same subgroup as x when k is prime to
        the order of x, so one closure serves the orbits of all those
        powers.
        """
        H = self.carrier
        orbits, orbit_of = self._orbits
        k = len(H.conjugacy_classes())
        if len(orbits) == k:
            rows = H._least_normals(np.eye(k, dtype=bool)).tolist()
            ns = normal_subgroups(H)
            closures = [ns[r] for r in rows]
        else:
            closures = [None] * len(orbits)
            for i, orbit in enumerate(orbits):
                if closures[i] is None:
                    span = H.generated_subgroup(orbit)
                    for j in self._power_orbits(int(orbit[0])):
                        closures[j] = span
        index: dict[Subgroup, int] = {}
        span_of = np.array([index.setdefault(S, len(index)) for S in closures])
        return tuple(index), span_of

    def _power_orbits(self, x: int) -> set[int]:
        """The orbits of the powers x^k with k prime to the order of x."""
        H, orbit_of = self.carrier, self._orbits[1]
        powers = [H.id, x]
        while powers[-1] != H.id:
            powers.append(H.op(powers[-1], x))
        n = len(powers) - 1
        return {int(orbit_of[p]) for k, p in enumerate(powers[:n]) if math.gcd(k, n) == 1}

    # -- primality ---------------------------------------------------------

    def primes(self, variant: str, prime_def: str) -> tuple[Subgroup, ...]:
        """The proper normal subgroups N of the carrier with no divisor pair
        modulo N, in ``normal_subgroups`` order, all decided at once."""
        _check_names(variant, prime_def)
        key = ("primes", variant, prime_def)
        if key not in self._caches:
            H = self.carrier
            proper = normal_subgroups(H)[:-1]  # the last is the carrier
            masks = H.normal_lattice[:-1][:, H.class_partition[1]]
            # blocks of normals keep each block's arrays near 2**22 entries
            o = len(self._orbits[0])
            step = max(1, 2 ** 22 // (o * o + o * H.order))
            divided = np.zeros(len(proper), dtype=bool)
            for i in range(0, len(proper), step):
                pairs = self._divisor_pairs(masks[i : i + step], variant, prime_def)
                divided[i : i + step] = pairs.any(axis=(1, 2))
            self._caches[key] = tuple(N for N, d in zip(proper, divided) if not d)
        return self._caches[key]

    def _divisor_pairs(self, normals: np.ndarray, variant: str, prime_def: str) -> np.ndarray:
        """pairs[m, i, j] is set iff f(G)-orbits i and j both lie outside the
        normal subgroup with member mask ``normals[m]``, and the spans of
        their images make a divisor pair modulo it.

        x lies outside N iff its span does.  The span of xN in H/N is
        G(x)N/N and [AN/N, BN/N] = [A, B]N/N (correspondence theorem), so
        t1 reads the same under both definitions and no quotient is built:
        a pair is held iff N contains the normal closure of [S_i, S_j].  t2
        counts the shared members (or non-trivial cosets) of every pair of
        spans with one batched float32 product, exact below 2**24.
        """
        H = self.carrier
        orbits, _ = self._orbits
        outside = ~normals[:, [int(o[0]) for o in orbits]]
        if variant == "t1":
            held = H._normal_containment(normals).T[:, self._commutator_closures]
        else:
            spans, span_of = self._spans
            spans = np.array([S.mask for S in spans])
            if prime_def == "elementwise":  # S_i & S_j <= N
                rest = spans[None] & ~normals[:, None, :]
            else:  # S_iN & S_jN = N; a coset is named by its least member
                rest = np.zeros((len(normals),) + spans.shape, dtype=bool)
                rows, cols = np.nonzero(spans)
                for m, N in enumerate(normals):
                    coset = H.mul[:, N].min(axis=1)
                    rest[m, rows, coset[cols]] = True
                    rest[m, :, coset[H.id]] = False
            f = rest.astype(np.float32)
            held = (f @ f.transpose(0, 2, 1) == 0)[:, span_of][:, :, span_of]
        return held & outside[:, :, None] & outside[:, None, :]

    @cached_property
    def _commutator_closures(self) -> np.ndarray:
        """least[i, j]: index in ``normal_subgroups`` of the normal closure
        of [S_i, S_j], for the spans of f(G)-orbits i and j.

        A normal N holds [S_i, S_j] iff it holds every commutator of the two
        orbits, a union of conjugacy classes.  Conjugating by f(G) moves each
        pair onto one with the first entry a fixed member a_i of orbit i, so
        the classes of [a_i, b], b in orbit j, are all of them.  The closure
        is the first normal subgroup, by size, holding those classes.
        """
        H = self.carrier
        classes, class_of = H.class_partition
        orbits, orbit_of = self._orbits
        every = np.arange(H.order)
        least = np.empty((len(orbits), len(orbits)), dtype=np.int32)
        for i, orbit in enumerate(orbits):
            a = int(orbit[0])
            comm = H.mul[H.mul[H.mul[a, every], H.inv[a]], H.inv[every]]
            met = np.zeros((len(orbits), len(classes)), dtype=bool)
            met[orbit_of, class_of[comm]] = True
            least[i] = H._least_normals(met)
        return least

    # -- divisors of zero --------------------------------------------------

    def divisor_witness(self, x: int, variant: str) -> Optional[int]:
        """First y != 1 in canonical order making x a divisor of zero."""
        _check_names(variant)
        H = self.carrier
        if x == H.id:
            raise GroupError("x must be distinct from the identity")
        _, orbit_of = self._orbits
        trivial = H._mask_of([H.id])[None]
        pairs = self._divisor_pairs(trivial, variant, "elementwise")[0]
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
