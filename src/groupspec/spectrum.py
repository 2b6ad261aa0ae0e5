"""Prime ideals, spectra, their topology, radicals and components.

Two primality tests coexist: the quotient test (the quotient object has no
divisors of zero) and the elementwise test (the containment implication on
pairs).  They agree for the commutator variant and provably diverge for the
intersection variant, so the choice is an explicit parameter everywhere.
Both are decided by ``GGroup.primes``, for all ideals of an object at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .fingroup import GroupError, QuotientGroup, Subgroup, quotient
from .gobject import PRIME_DEFS, VARIANTS, GGroup

__all__ = [
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
    """The ordered set of prime ideals with its closed-set topology."""

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

    def closed_sets(self) -> list[frozenset]:
        """All distinct vanishing sets V(N), N normal in the carrier, small
        to large."""
        if "closed" not in self._caches:
            closed = set(self._vanishing)
            self._caches["closed"] = sorted(closed, key=lambda c: (len(c), sorted(c)))
        return self._caches["closed"]

    def open_sets(self) -> list[frozenset]:
        """Complements of the closed sets, small to large."""
        if "open" not in self._caches:
            allp = frozenset(range(len(self.primes)))
            opens = {allp - c for c in self.closed_sets()}
            self._caches["open"] = sorted(opens, key=lambda u: (len(u), sorted(u)))
        return self._caches["open"]

    def is_open(self, U: Iterable[int]) -> bool:
        if "open_set" not in self._caches:
            self._caches["open_set"] = frozenset(self.open_sets())
        return frozenset(U) in self._caches["open_set"]

    def minimal_open(self, p: int) -> frozenset:
        """Intersection of all opens containing prime #p (finite space)."""
        cache = self._caches.setdefault("minopen", {})
        if p not in cache:
            acc = frozenset(range(len(self.primes)))
            for U in self.open_sets():
                if p in U:
                    acc &= U
            cache[p] = acc
        return cache[p]

    def closure(self, S: Iterable[int]) -> frozenset:
        """Topological closure of a set of primes."""
        S = frozenset(S)
        acc = frozenset(range(len(self.primes)))
        for c in self.closed_sets():
            if S <= c:
                acc &= c
        return acc

    def specialization_edges(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with prime_i contained in prime_j (i generizes j)."""
        return [
            (i, j)
            for i, P in enumerate(self.primes)
            for j, Q in enumerate(self.primes)
            if i != j and P.members.issubset(Q.members)
        ]


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
    """Intersection of the selected primes; the whole carrier when S is empty."""
    H = spec.object.carrier
    out = Subgroup(H, range(H.order))
    for i in S:
        out = out.intersection(spec.primes[i].members)
    return out


def point_radical(spec: Spectrum, p: int) -> Subgroup:
    """Radical of a point, via its minimal open neighbourhood."""
    return radical(spec, spec.minimal_open(p))


def whole_radical(spec: Spectrum) -> Subgroup:
    return radical(spec, range(len(spec.primes)))


def is_irreducible_closed(spec: Spectrum, C: frozenset) -> bool:
    """Nonempty and not a union of two proper closed subsets."""
    if not C:
        return False
    closed = [c & C for c in spec.closed_sets()]
    proper = {c for c in closed if c != C}
    return not any(A | B == C for A in proper for B in proper)


def irreducible_components(spec: Spectrum) -> list[tuple[frozenset, Optional[int]]]:
    """Maximal irreducible closed subsets, with generic points when present.

    The generic point is reported when the radical of the component is
    itself a member prime.
    """
    irr = [c for c in spec.closed_sets() if is_irreducible_closed(spec, c)]
    comps = [c for c in irr if not any(c < d for d in irr)]
    out = []
    for c in comps:
        rad = radical(spec, c)
        out.append((c, next((i for i in sorted(c) if spec.primes[i].members == rad), None)))
    out.sort(key=lambda t: sorted(t[0]))
    return out
