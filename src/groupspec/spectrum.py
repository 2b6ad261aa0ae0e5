"""Prime ideals, spectra, their topology, radicals and components.

Two primality tests coexist: the quotient test (the quotient object has no
divisors of zero) and the elementwise test (the containment implication on
pairs).  They agree for the commutator variant and provably diverge for the
intersection variant, so the choice is an explicit parameter everywhere.
Both are decided by ``GGroup.primes``, for all ideals of an object at once.

Every finite topology of the package is a ``FiniteSpace``: a spectrum's
(``Spectrum.space``), a glued scheme's and a variety's.  A spectrum's
closed sets are the vanishing sets V(N), N normal in the carrier, exactly
as computed.  The family is never closed under unions, so where it is not
a topology (``FiniteSpace.topology_defect``) that stays visible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

import numpy as np

from .fingroup import GroupError, QuotientGroup, Subgroup, quotient
from .gobject import PRIME_DEFS, VARIANTS, GGroup

__all__ = [
    "FiniteSpace",
    "Ideal",
    "Spectrum",
    "VARIANTS",
    "PRIME_DEFS",
    "quotient_object",
    "is_prime",
    "spectrum",
    "vanishing_set",
    "radical",
    "irreducible_components",
]


def _indices(m: int) -> list[int]:
    """The set bits of a mask, low to high."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def _listing_key(m: int) -> tuple:
    """Sets are listed by size, then by their points' positions."""
    return m.bit_count(), _indices(m)


def _map_bits(m: int, bits: Sequence[int]) -> int:
    """The OR of bits[i] over the set bits i of m."""
    return reduce(or_, (bits[i] for i in _indices(m)), 0)


class FiniteSpace:
    """A finite topological space, given by its family of closed sets.

    Each closed set is an int bitmask, bit i for ``points[i]``.  The family
    is held exactly as its owner computed it and never closed under unions
    (``topology_defect`` names a missing union).  Opens, minimal opens,
    closures, the specialization order, irreducibility, subspaces and
    continuity all derive from it.  Sets are listed by size, then by the
    positions of their points in ``points``.
    """

    def __init__(self, points: Iterable, closed: Iterable[int]):
        self.points = tuple(points)
        self._at = {p: i for i, p in enumerate(self.points)}
        self._whole = (1 << len(self.points)) - 1
        self.closed_masks = tuple(sorted(set(closed), key=_listing_key))

    def _index(self, p) -> int:
        if p not in self._at:
            raise GroupError(f"no point {p!r} in a space of {len(self.points)} points")
        return self._at[p]

    def mask(self, S: Iterable) -> int:
        """The bitmask of a set of points; a non-point raises GroupError."""
        return reduce(or_, (1 << self._index(p) for p in S), 0)

    def _set(self, m: int) -> frozenset:
        return frozenset(self.points[i] for i in _indices(m))

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        return tuple(sorted({self._whole ^ c for c in self.closed_masks}, key=_listing_key))

    @cached_property
    def closed_sets(self) -> list[frozenset]:
        return [self._set(m) for m in self.closed_masks]

    @cached_property
    def opens(self) -> list[frozenset]:
        return [self._set(m) for m in self.open_masks]

    def is_open(self, U: Iterable) -> bool:
        """Whether U's complement is closed; a set holding a non-point is not open."""
        U = frozenset(U)
        return U <= self._at.keys() and self._whole ^ self.mask(U) in self.closed_masks

    def _meet(self, family: tuple, m: int) -> int:
        """The AND of the sets of the family that contain the mask m."""
        return reduce(and_, (s for s in family if s & m == m), self._whole)

    @cached_property
    def _minimal(self) -> list[frozenset]:
        return [self._set(self._meet(self.open_masks, 1 << i)) for i in range(len(self.points))]

    def minimal_open(self, p) -> frozenset:
        """The AND of the opens that contain p."""
        return self._minimal[self._index(p)]

    def closure(self, S: Iterable) -> frozenset:
        """The AND of the closed sets that contain S."""
        return self._set(self._meet(self.closed_masks, self.mask(S)))

    def specialization_edges(self) -> list[tuple]:
        """Pairs (p, q), p != q, with q in the closure of p (p generizes q)."""
        return [
            (p, self.points[j])
            for i, p in enumerate(self.points)
            for j in _indices(self._meet(self.closed_masks, 1 << i))
            if j != i
        ]

    def is_irreducible(self, C: Iterable) -> bool:
        """Nonempty and not the union of two proper closed subsets (the
        traces of the closed sets on C)."""
        m = self.mask(C)
        proper = {c & m for c in self.closed_masks} - {m}
        return m != 0 and not any(a | b == m for a in proper for b in proper)

    def irreducible_components(self) -> list[frozenset]:
        """The maximal irreducible closed sets, in listing order."""
        irr = [c for c in self.closed_sets if self.is_irreducible(c)]
        return [c for c in irr if not any(c < d for d in irr)]

    def subspace(self, pts: Iterable) -> "FiniteSpace":
        """The points pts, in that order, with the traces of the closed sets."""
        pts = tuple(pts)
        bits = [0] * len(self.points)
        for k, p in enumerate(pts):
            bits[self._index(p)] = 1 << k
        return FiniteSpace(pts, [_map_bits(c, bits) for c in self.closed_masks])

    def is_continuous(self, point_map: dict, target: "FiniteSpace") -> bool:
        """Whether the map, sending each point of this space to a point of
        target, pulls every closed set of target back to a closed set."""
        pre = [0] * len(target.points)
        for p, q in point_map.items():
            pre[target._index(q)] |= 1 << self._index(p)
        return all(_map_bits(c, pre) in self.closed_masks for c in target.closed_masks)

    def topology_defect(self) -> Optional[tuple[frozenset, frozenset]]:
        """The first pair of closed sets whose union is not closed, or None."""
        for a, b in itertools.combinations(self.closed_masks, 2):
            if a | b not in self.closed_masks:
                return self._set(a), self._set(b)
        return None


@dataclass(frozen=True)
class Ideal:
    """A proper normal subgroup of the carrier."""

    object: GGroup
    members: Subgroup

    def __post_init__(self):
        if self.members.parent is not self.object.carrier:
            raise GroupError("ideal members must live in the carrier")
        if self.members.is_whole():
            raise GroupError("an ideal is a proper normal subgroup")
        if not self.members.is_normal():
            raise GroupError("an ideal must be normal")

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def quotient_object(obj: GGroup, N: Subgroup) -> tuple[GGroup, QuotientGroup]:
    """The quotient carrier with the composed structure map."""
    q = quotient(obj.carrier, N)
    structure = obj.structure.compose(q.projection)
    return GGroup(obj.base, q.table, structure), q


def is_prime(obj: GGroup, I: Ideal, variant: str, prime_def: str) -> bool:
    return I.members in obj.primes(variant, prime_def)


@dataclass(frozen=True)
class Spectrum:
    """The ordered set of prime ideals; ``space`` is its topology."""

    object: GGroup
    variant: str
    prime_def: str
    primes: tuple[Ideal, ...]
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def __hash__(self):
        return hash((self.object, self.variant, self.prime_def))

    def __len__(self) -> int:
        return len(self.primes)

    # -- topology ----------------------------------------------------------

    @cached_property
    def _vanishing(self) -> list[frozenset]:
        """V(N) for every normal N of the carrier, in ``normal_subgroups``
        order: the primes whose class masks cover N's."""
        H = self.object.carrier
        masks = np.array([P.members.mask for P in self.primes], dtype=bool).reshape(-1, H.order)
        holds = H._normal_containment(masks)
        return [frozenset(np.flatnonzero(row).tolist()) for row in holds]

    @cached_property
    def space(self) -> FiniteSpace:
        """The primes with the V(N) family as computed, never repaired."""
        return FiniteSpace(range(len(self.primes)), [sum(1 << i for i in c) for c in self._vanishing])


def spectrum(obj: GGroup, variant: str, prime_def: str = "elementwise") -> Spectrum:
    """All prime ideals of the object, canonically ordered by (size, members).

    One Spectrum per (object, variant, prime_def), kept in the object's
    caches, so its topology and its scheme are built once."""
    key = ("spectrum", variant, prime_def)
    if key not in obj._caches:
        primes = tuple(Ideal(obj, N) for N in obj.primes(variant, prime_def))
        obj._caches[key] = Spectrum(obj, variant, prime_def, primes)
    return obj._caches[key]


def vanishing_set(spec: Spectrum, N: Subgroup) -> frozenset:
    """The indices of the primes containing N; N may be the whole carrier
    (the empty set)."""
    if N.parent is not spec.object.carrier:
        raise GroupError("subgroup of the wrong carrier")
    row = N.parent._normal_position.get(N)
    if row is None:
        raise GroupError("vanishing_set needs a normal subgroup")
    return spec._vanishing[row]


def radical(spec: Spectrum, S: Iterable[int]) -> Subgroup:
    """Intersection of the selected primes; the whole carrier when S is empty.
    A non-point of the space raises GroupError."""
    H = spec.object.carrier
    out = Subgroup(H, range(H.order))
    for i in _indices(spec.space.mask(S)):
        out = out.intersection(spec.primes[i].members)
    return out


def point_radical(spec: Spectrum, p: int) -> Subgroup:
    """Radical of a point, via its minimal open neighbourhood."""
    return radical(spec, spec.space.minimal_open(p))


def whole_radical(spec: Spectrum) -> Subgroup:
    return radical(spec, range(len(spec.primes)))


def irreducible_components(spec: Spectrum) -> list[tuple[frozenset, Optional[int]]]:
    """Maximal irreducible closed subsets, with generic points when present.

    The generic point is reported when the radical of the component is
    itself a member prime.
    """
    out = []
    for c in spec.space.irreducible_components():
        rad = radical(spec, c)
        out.append((c, next((i for i in sorted(c) if spec.primes[i].members == rad), None)))
    out.sort(key=lambda t: sorted(t[0]))
    return out
