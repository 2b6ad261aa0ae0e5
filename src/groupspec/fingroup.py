"""Finite group kernel: Cayley tables, subgroups, homomorphisms, quotients.

Every group is materialized as a full multiplication table over element
indices 0..n-1 with a fixed canonical order, so all downstream searches are
exhaustive and deterministic.  Set-valued results are always emitted sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "GroupError",
    "TableCapError",
    "TABLE_CAP",
    "GroupTable",
    "Subgroup",
    "Homomorphism",
    "QuotientGroup",
    "normal_closure",
    "commutator_subgroup",
    "subgroup_product",
    "quotient",
    "is_nilpotent",
    "normal_subgroups",
    "pointwise_table",
    "is_simple",
    "cyclic",
    "symmetric",
    "alternating",
    "dihedral",
    "quaternion8",
    "direct_product",
    "from_permutations",
    "parse_cayley_text",
    "parse_perm_text",
]


class GroupError(ValueError):
    """Raised for malformed tables, non-normal subgroups, bad indices."""


class TableCapError(GroupError):
    """Raised before a group too large to tabulate is built."""


# the largest order whose n x n table is built: 2**14 gives an int16 table
# of 512 MB, and holds A5xA5 (3600) and S7 (5040)
TABLE_CAP = 2 ** 14


def _check_order(order: int, name: str) -> None:
    if order > TABLE_CAP:
        raise TableCapError(f"{name}: order {order} exceeds the table cap of {TABLE_CAP}")


def _dtype_for(n: int):
    return np.int16 if n < 2 ** 15 else np.int32


class GroupTable:
    """A finite group given by its multiplication table on indices 0..n-1."""

    def __init__(
        self,
        mul: Sequence[Sequence[int]] | np.ndarray,
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        validate: bool = True,
    ):
        mul = np.asarray(mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise GroupError("multiplication table must be square")
        n = mul.shape[0]
        if n == 0:
            raise GroupError("empty table")
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")
        self.order: int = int(n)
        self.mul: np.ndarray = mul.astype(_dtype_for(n), copy=False)
        self.name = name or f"group{n}"
        self.labels: list[str] = (
            [str(x) for x in labels] if labels is not None else [f"g{i}" for i in range(n)]
        )
        if len(self.labels) != n:
            raise GroupError("label count mismatch")

        self.id: int = self._find_identity()
        self.inv: np.ndarray = self._find_inverses()
        # structured constructors are valid by construction and pass
        # validate=False
        if validate:
            self._check_associative()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if np.array_equal(self.mul[e], np.arange(self.order)) and np.array_equal(
                self.mul[:, e], np.arange(self.order)
            ):
                return e
        raise GroupError("table has no two-sided identity")

    def _find_inverses(self) -> np.ndarray:
        """The first column b with a*b = 1 in each row a, found 512 rows at a
        time so the boolean mask stays small; then b*a = 1 for every a."""
        n = self.order
        inv = np.empty(n, dtype=self.mul.dtype)
        found = np.empty(n, dtype=bool)
        for start in range(0, n, 512):
            hit = self.mul[start:start + 512] == self.id
            inv[start:start + 512] = hit.argmax(axis=1)
            found[start:start + 512] = hit.any(axis=1)
        ok = found & (self.mul[inv, np.arange(n)] == self.id)
        if not ok.all():
            raise GroupError(f"element {int(np.argmin(ok))} has no two-sided inverse")
        return inv

    def _check_associative(self) -> None:
        """Light's test: (a*g)*b == a*(g*b) for all a, b and each g of the
        greedy generating set, O(n^2 * |gens|).  Exact: the middle elements
        that pass are closed under products, and every element is a product
        of the generators."""
        m = self.mul
        for g in self.generators:
            if not np.array_equal(m[m[:, g]], m[:, m[g]]):
                raise GroupError("table is not associative")

    # -- basic arithmetic --------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def commutator(self, a: int, b: int) -> int:
        """a * b * a^-1 * b^-1."""
        return int(self.mul[self.mul[self.mul[a, b], self.inv[a]], self.inv[b]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(a), -k)
        r = self.id
        while k:
            if k & 1:
                r = self.op(r, a)
            a = self.op(a, a)
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.id:
            x = self.op(x, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"

    # -- structure helpers -------------------------------------------------

    def generated_subgroup(self, gens: Iterable[int]) -> "Subgroup":
        """Subgroup generated by gens (closure under multiplication)."""
        return Subgroup(self, np.flatnonzero(self._close(gens)[0]))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generating set: each generator is the least element
        outside the subgroup generated by the ones before it."""
        return tuple(self._close(range(self.order))[1])

    def _close(self, gens: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Member mask of the subgroup generated by gens, and the greedy
        subsequence of gens that generates it (Dimino's coset closure).

        The first candidate, in the order given, outside the current
        subgroup K becomes a generator, and the enlarged group is walked as
        a union of right cosets K*r: from r = id, y = r*s for each generator
        s so far is a new representative when it lies in no coset found
        yet, and its coset K*y = (K*r)*s is the block of r mapped through
        the column of s.  The union is then closed under right multiplication by every
        generator.  Each member is a product of generators even in a table
        that is not associative, which Light's test relies on.
        """
        cand = dict.fromkeys(gens.tolist() if isinstance(gens, np.ndarray) else gens)
        member = bytearray(self.order)
        member[self.id] = 1
        mask = np.frombuffer(member, dtype=bool)  # a view of member
        K = [self.id]
        small: list[int] = []
        cols: list[list[int]] = []  # cols[i][x] = x * small[i]
        for g in cand:
            if member[g]:
                continue
            small.append(g)
            cols.append(self.mul[:, g].tolist())
            reps, blocks = [self.id], [K]
            for r, block in zip(reps, blocks):  # both grow while walked
                for col in cols:
                    if not member[col[r]]:
                        new = [col[x] for x in block]
                        for x in new:
                            member[x] = 1
                        reps.append(col[r])
                        blocks.append(new)
            # the union of the blocks; they overlap only in a table that
            # is not a group
            K = np.flatnonzero(mask).tolist()
            if len(K) == self.order:
                break
        return mask, small

    def conjugation_orbits(self, by: Iterable[int]) -> tuple[list[np.ndarray], np.ndarray]:
        """Orbits of conjugation by the subgroup ``by`` (sorted arrays, by
        least member) and each element's orbit number; one sweep per orbit."""
        by = np.flatnonzero(self._mask_of(list(by)))
        orbit_of = np.full(self.order, -1, dtype=np.int64)
        orbits = []
        for x in range(self.order):
            if orbit_of[x] >= 0:
                continue
            orb = np.flatnonzero(self._mask_of(self.mul[self.mul[by, x], self.inv[by]]))
            orbit_of[orb] = len(orbits)
            orbits.append(orb)
        return orbits, orbit_of

    def _mask_of(self, xs) -> np.ndarray:
        """The member mask of a set of elements."""
        mask = np.zeros(self.order, dtype=bool)
        mask[xs] = True
        return mask

    @cached_property
    def class_partition(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Conjugacy classes and each element's class id.  A set is closed
        under conjugation iff it is a union of classes, so every normality
        fact is read from this partition."""
        return self.conjugation_orbits(range(self.order))

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Conjugacy classes as sorted index arrays, ordered by least member."""
        return self.class_partition[0]

    def _class_hull(self, xs) -> np.ndarray:
        """Mask of the union of the conjugacy classes that meet xs."""
        classes, class_of = self.class_partition
        met = np.zeros(len(classes), dtype=bool)
        met[class_of[xs]] = True
        return met[class_of]

    # -- the normal-subgroup lattice, in class space -------------------------

    @cached_property
    def _class_reps(self) -> np.ndarray:
        """The least member of each conjugacy class."""
        return np.array([int(c[0]) for c in self.class_partition[0]])

    @cached_property
    def normal_lattice(self) -> np.ndarray:
        """The normal subgroups as class masks, one row each, ordered by
        (size, member tuple) as ``normal_subgroups`` lists them.

        A normal subgroup is a union of classes closed under products.  One
        table P[x, d], the class of x * a_d (a_d the least member of class
        d), costs n * k products.  For unions of classes N and A, the classes
        of the product set NA are the P[x, d] with x in N and class d in A:
        y = x * b with b = g * a_d * g^-1 is conjugate to (g^-1 * x * g) *
        a_d, whose first factor lies in N.

        The atoms are the normal closures of single classes: class d's
        closure starts from the classes of the powers of a_d and grows by
        the classes of its product with a_d until it stops.  Every normal
        subgroup is a join of atoms, and the join of N with atom A is NA,
        read from P for all atoms at once.
        """
        _, class_of = self.class_partition
        reps = self._class_reps
        k = len(reps)
        P = class_of[self.mul[:, reps]]
        atoms = np.zeros((k, k), dtype=bool)
        power = np.full(k, self.id)
        while True:  # until every a_d has cycled back to the identity
            atoms[np.arange(k), class_of[power]] = True
            power = self.mul[power, reps]
            if (power == self.id).all():
                break
        while True:
            x, d = np.nonzero(atoms[:, class_of].T)  # x lies in atom d
            grown = atoms.copy()
            grown[d, P[x, d]] = True
            if np.array_equal(grown, atoms):
                break
            atoms = grown
        # the distinct atoms, as float rows for the join products
        A = np.array(list({a.tobytes(): a for a in atoms}.values()), dtype=np.float32)
        trivial = np.zeros(k, dtype=bool)
        trivial[class_of[self.id]] = True
        found = {trivial.tobytes(): trivial}
        frontier = [trivial]
        cols = np.arange(k)[None, :]
        while frontier:
            nxt = []
            for N in frontier:
                R = np.zeros((k, k), dtype=np.float32)  # R[d, e]: class e meets N * a_d
                R[cols, P[N[class_of]]] = 1
                for J in A @ R > 0:
                    key = J.tobytes()
                    if key not in found:
                        found[key] = J
                        nxt.append(J)
            frontier = nxt
        members = {key: tuple(np.flatnonzero(m[class_of]).tolist()) for key, m in found.items()}
        order = sorted(found, key=lambda key: (len(members[key]), members[key]))
        return np.array([found[key] for key in order])

    @cached_property
    def _normal_position(self) -> dict["Subgroup", int]:
        """Each normal subgroup's row in ``normal_lattice``."""
        return {N: i for i, N in enumerate(normal_subgroups(self))}

    def _normal_hull(self, xs) -> "Subgroup":
        """The least normal subgroup holding the elements xs."""
        held = np.zeros(len(self._class_reps), dtype=bool)
        held[self.class_partition[1][xs]] = True
        return normal_subgroups(self)[self._least_normals(held)]

    def _least_normals(self, classes: np.ndarray) -> np.ndarray:
        """For each class mask (along the last axis), the row of the least
        normal subgroup holding those classes: the first row that covers
        it.  Rows covering a set are closed under intersection, so the first
        by size is their meet."""
        M = self.normal_lattice
        missing = classes.astype(np.float32) @ (~M).T.astype(np.float32)
        return np.argmax(missing == 0, axis=-1)

    def _normal_containment(self, masks: np.ndarray) -> np.ndarray:
        """C[r, m]: whether lattice row r lies in the normal subgroup with
        member mask ``masks[m]``."""
        outside = ~masks[:, self._class_reps]
        return self.normal_lattice.astype(np.float32) @ outside.T.astype(np.float32) == 0


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a parent GroupTable as a flat sorted member tuple."""

    parent: GroupTable
    members: tuple[int, ...]
    _mask: np.ndarray = field(compare=False, repr=False, default=None)
    _hash: int = field(compare=False, repr=False, default=0)

    def __init__(self, parent: GroupTable, members: Iterable[int]):
        if not isinstance(members, np.ndarray):
            members = np.fromiter(members, dtype=np.int64)
        mask = parent._mask_of(members)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", tuple(np.flatnonzero(mask).tolist()))
        # tuples do not cache their hash, and subgroups key many caches
        object.__setattr__(self, "_hash", hash((id(parent), self.members)))
        object.__setattr__(self, "_mask", mask)
        if not mask[parent.id]:
            raise GroupError("subgroup must contain the identity")

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def __contains__(self, x: int) -> bool:
        return bool(self._mask[x])

    def __len__(self) -> int:
        return len(self.members)

    def issubset(self, other: "Subgroup") -> bool:
        return not bool((self._mask & ~other._mask).any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return self._hash

    def verify(self) -> None:
        m = np.asarray(self.members)
        prods = self.parent.mul[np.ix_(m, m)]
        if not self._mask[prods].all():
            raise GroupError("not closed under multiplication")
        if not self._mask[self.parent.inv[m]].all():
            raise GroupError("not closed under inverses")

    def is_normal(self) -> bool:
        return np.array_equal(self.parent._class_hull(self._mask), self._mask)

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def is_whole(self) -> bool:
        return len(self.members) == self.parent.order

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if other.parent is not self.parent:
            raise GroupError("subgroups of different parents")
        return Subgroup(self.parent, np.flatnonzero(self._mask & other._mask))


@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by the per-element image table."""

    source: GroupTable
    target: GroupTable
    image: tuple[int, ...]

    def __init__(self, source: GroupTable, target: GroupTable, image: Sequence[int]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", tuple(int(x) for x in image))
        if len(self.image) != source.order:
            raise GroupError("image table has wrong length")
        bad = [x for x in self.image if not 0 <= x < target.order]
        if bad:
            raise GroupError(
                f"image {bad[0]} out of range for {target.name} (order {target.order})"
            )

    def __call__(self, x: int) -> int:
        return self.image[x]

    def verify(self) -> None:
        """f(1) = 1 and the generator test (``_respects_generators``)."""
        img = np.asarray(self.image)
        if img[self.source.id] != self.target.id:
            raise GroupError("identity not preserved")
        if not _respects_generators(self.source, self.target, img[None])[0]:
            raise GroupError("map is not a homomorphism")

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.order

    def compose(self, outer: "Homomorphism") -> "Homomorphism":
        """outer o self (apply self first)."""
        if outer.source is not self.target:
            raise GroupError("composition mismatch")
        return Homomorphism(self.source, outer.target, [outer.image[i] for i in self.image])

    def preimage_subgroup(self, sub: Subgroup) -> Subgroup:
        img = np.asarray(self.image)
        return Subgroup(self.source, np.flatnonzero(sub.mask[img]))

    @staticmethod
    def identity(g: GroupTable) -> "Homomorphism":
        return Homomorphism(g, g, list(range(g.order)))


def _respects_generators(source: GroupTable, target: GroupTable, rows: np.ndarray) -> np.ndarray:
    """For each row f of images (one map per row), whether f(g*x) =
    f(g)*f(x) for every generator g of the source and every x, O(n * |gens|)
    per row.  With f(1) = 1 this is exact: by induction on the length of a
    word in the generators, f(a*x) = f(a)*f(x) for all a."""
    gens = list(source.generators)
    # both sides in the table dtype: a quarter of the memory of intp rows
    lhs = rows.astype(target.mul.dtype)[:, source.mul[gens]]
    rhs = target.mul[rows[:, gens, None], rows[:, None, :]]
    return (lhs == rhs).all(axis=(1, 2))


@dataclass(frozen=True)
class QuotientGroup:
    """Coset group H/N with its projection, cosets ordered by least member.

    ``reps[c]`` is the least member of coset c.
    """

    parent: GroupTable
    kernel: Subgroup
    table: GroupTable
    projection: Homomorphism
    reps: tuple[int, ...]


def normal_closure(H: GroupTable, S: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of H containing S: the least lattice row
    holding the classes that meet S."""
    return H._normal_hull(np.asarray(list(S), dtype=np.int64))


def _commutators(H: GroupTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a_i, b_j] for every pair, as an array."""
    p = H.mul[a[:, None], b[None, :]]
    return H.mul[H.mul[p, H.inv[a][:, None]], H.inv[b][None, :]]


@lru_cache(maxsize=None)
def commutator_subgroup(H: GroupTable, L: Subgroup, Lp: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [l, l'], l in L, l' in L'.

    For normal L and L' it is normal, and [l^g, b] = [l, b^(g^-1)]^g, so it
    is the least normal subgroup holding the classes of [a_c, b]: a_c the
    least member of a class c in L, b in L'.  Other inputs (the lower
    central terms of ``is_nilpotent``) take the closure of all commutators.
    """
    b = np.asarray(Lp.members)
    if L in H._normal_position and Lp in H._normal_position:
        a = H._class_reps[H.normal_lattice[H._normal_position[L]]]
        return H._normal_hull(_commutators(H, a, b))
    return H.generated_subgroup(np.flatnonzero(H._mask_of(_commutators(H, np.asarray(L.members), b))))


def subgroup_product(H: GroupTable, A: Subgroup, B: Subgroup) -> Subgroup:
    """Product AB of two normal subgroups, a normal subgroup: the one
    holding every x * a_d, x in A and a_d a class representative in B."""
    if not (A in H._normal_position and B in H._normal_position):
        raise GroupError("subgroup_product requires normal inputs")
    b = H._class_reps[H.normal_lattice[H._normal_position[B]]]
    return H._normal_hull(H.mul[np.asarray(A.members)[:, None], b[None, :]])


@lru_cache(maxsize=None)
def quotient(H: GroupTable, N: Subgroup) -> QuotientGroup:
    """Quotient H/N for normal N, cosets canonically ordered by least member."""
    if not N.is_normal():
        raise GroupError("quotient requires a normal subgroup")
    m = np.asarray(N.members)
    # coset representative of x = least member of xN
    rep = H.mul[:, m].min(axis=1)
    reps = np.flatnonzero(H._mask_of(rep))
    proj = np.searchsorted(reps, rep).astype(H.mul.dtype)  # coset index of every element
    qmul = proj[H.mul[np.ix_(reps, reps)]]
    labels = [H.labels[int(r)] + "*" if len(N) > 1 else H.labels[int(r)] for r in reps]
    table = GroupTable(qmul, labels=labels, name=f"{H.name}/{len(N)}", validate=False)
    projection = Homomorphism(H, table, proj)
    return QuotientGroup(H, N, table, projection, tuple(int(r) for r in reps))


def is_nilpotent(L: Subgroup) -> bool:
    """True iff the lower central series of L reaches the trivial group."""
    H = L.parent
    current = L
    while True:
        nxt = commutator_subgroup(H, L, current)
        if nxt.is_trivial():
            return True
        if nxt == current:
            return False
        current = nxt


@lru_cache(maxsize=None)
def normal_subgroups(H: GroupTable) -> tuple[Subgroup, ...]:
    """All normal subgroups, ordered by (size, member tuple): the rows of
    ``H.normal_lattice``."""
    _, class_of = H.class_partition
    return tuple(Subgroup(H, np.flatnonzero(row[class_of])) for row in H.normal_lattice)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque key per row of a (rows along the last axis), for any width:
    zero-width rows all get the key of a single 0."""
    if a.shape[-1] == 0:
        a = np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[-1]))).ravel()


def _row_index(rows: np.ndarray):
    """A lookup from arrays of rows like ``rows`` to their indices in
    ``rows``, by sorted row keys; -1 where a row is not in ``rows`` (also
    for every row when the widths differ or ``rows`` is empty)."""
    rows = np.asarray(rows)
    keys = _row_keys(rows)
    order = np.argsort(keys)
    ordered = keys[order]

    def find(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=rows.dtype)
        if not len(ordered) or a.shape[-1] != rows.shape[-1]:
            return np.full(a.shape[:-1], -1).ravel()
        want = _row_keys(a)
        pos = np.minimum(np.searchsorted(ordered, want), len(ordered) - 1)
        return np.where(ordered[pos] == want, order[pos], -1)

    return find


def pointwise_table(
    factors: Sequence[GroupTable], rows: Sequence[Sequence[int]], find=None
) -> np.ndarray:
    """Cayley table of distinct tuples under the pointwise product.

    Column c of ``rows`` multiplies in ``factors[c]``.  Each product row is
    looked up among ``rows`` (by ``find``, a ``_row_index`` of ``rows`` the
    caller already holds, else a new one), so a product that is not a row
    raises GroupError: closure is checked exactly.  One left factor at a
    time, so the extra memory is O(n*k), never an n*n*k array.
    """
    n, k = len(rows), len(factors)
    if k == 0:  # the one empty row
        return np.zeros((n, n), dtype=_dtype_for(n))
    R = np.asarray(rows, dtype=np.int64)
    # each distinct factor table flattened once; a*b in column c is at
    # flat[off[c] + a * order_c + b]
    distinct = {id(t): t for t in factors}
    start = dict(zip(distinct, np.cumsum([0] + [t.order ** 2 for t in distinct.values()])))
    flat = np.concatenate([t.mul.ravel() for t in distinct.values()]).astype(np.int64)
    off = np.asarray([start[id(t)] for t in factors])
    left = off + R * np.asarray([t.order for t in factors])
    find = find or _row_index(R)
    table = np.empty((n, n), dtype=_dtype_for(n))
    for i in range(n):
        table[i] = _found(find(flat[left[i] + R]))
    return table


def _found(idx: np.ndarray) -> np.ndarray:
    """Indices from a ``_row_index`` lookup that must all be hits."""
    if (idx < 0).any():
        raise GroupError("pointwise product is not a row")
    return idx


def is_simple(H: GroupTable) -> bool:
    if H.order == 1:
        raise GroupError("simplicity is undefined for the trivial group")
    return len(normal_subgroups(H)) == 2


# -- constructors ----------------------------------------------------------


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise GroupError("cyclic(n) needs n >= 1")
    _check_order(n, f"Z{n}")
    r = np.arange(n)
    mul = (r[:, None] + r[None, :]) % n
    return GroupTable(mul, labels=[str(i) for i in range(n)], name=f"Z{n}", validate=False)


def _perm_group(perms: list[tuple[int, ...]], name: str) -> GroupTable:
    """Table of a set of permutations closed under composition, elements in
    sorted order: p*q sends k to p[q[k]].  Whole blocks of rows compose at
    once, P[block][:, P], and each product is ranked by its row key."""
    perms = sorted(set(perms))
    n = len(perms)
    # a degree-0 permutation () stands in as the one fixed point (0,)
    P = np.array([p or (0,) for p in perms])
    P = P.astype(np.min_scalar_type(P.shape[1]))
    find = _row_index(P)
    mul = np.empty((n, n), dtype=_dtype_for(n))
    step = max(1, 2 ** 16 // n)  # rows per block: about 2**16 products
    for i in range(0, n, step):
        mul[i : i + step] = _found(find(P[i : i + step][:, P])).reshape(-1, n)
    return GroupTable(mul, labels=[_cycle_label(p) for p in perms], name=name, validate=False)


def _cycle_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) or "e"


def symmetric(n: int) -> GroupTable:
    if n < 0:
        raise GroupError("symmetric(n) needs n >= 0")
    _check_order(math.factorial(n), f"S{n}")
    return _perm_group(list(itertools.permutations(range(n))), f"S{n}")


def _parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        sign += ln - 1
    return sign % 2


def alternating(n: int) -> GroupTable:
    if n < 0:
        raise GroupError("alternating(n) needs n >= 0")
    _check_order(max(math.factorial(n) // 2, 1), f"A{n}")
    return _perm_group(
        [p for p in itertools.permutations(range(n)) if _parity(p) == 0], f"A{n}"
    )


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    if n < 1:
        raise GroupError("dihedral(n) needs n >= 1")
    _check_order(2 * n, f"D{n}")
    # element s*n + r: rotation by r composed with s reflections;
    # (r1, s1)(r2, s2) = (r1 + r2, s2) if s1 = 0, else (r1 - r2, 1 - s2)
    r, s = np.arange(2 * n) % n, np.arange(2 * n) // n
    rot = np.where(s[:, None] == 0, r[:, None] + r[None, :], r[:, None] - r[None, :]) % n
    mul = (s[:, None] ^ s[None, :]) * n + rot
    labels = ["r%d" % i for i in range(n)] + ["sr%d" % i for i in range(n)]
    return GroupTable(mul, labels=labels, name=f"D{n}", validate=False)


def quaternion8() -> GroupTable:
    # elements 1, -1, i, -i, j, -j, k, -k encoded as (axis, sign)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    axis = [0, 0, 1, 1, 2, 2, 3, 3]  # 0 = scalar, 1 = i, 2 = j, 3 = k
    sign = [1, -1, 1, -1, 1, -1, 1, -1]
    mul_axis = {
        (0, a): a for a in range(4)
    }
    for a in range(4):
        mul_axis[(a, 0)] = a
    qtab = {
        (1, 1): (0, -1),
        (2, 2): (0, -1),
        (3, 3): (0, -1),
        (1, 2): (3, 1),
        (2, 1): (3, -1),
        (2, 3): (1, 1),
        (3, 2): (1, -1),
        (3, 1): (2, 1),
        (1, 3): (2, -1),
    }

    def mul(i, j):
        a1, s1, a2, s2 = axis[i], sign[i], axis[j], sign[j]
        if a1 == 0 or a2 == 0:
            a, s = mul_axis[(a1, a2)], 1
        else:
            a, s = qtab[(a1, a2)]
        s = s * s1 * s2
        return names.index(names[2 * a] if a else "1") + (0 if s == 1 else 1)

    table = [[mul(i, j) for j in range(8)] for i in range(8)]
    return GroupTable(table, labels=names, name="Q8", validate=True)


def direct_product(A: GroupTable, B: GroupTable) -> GroupTable:
    n, m = A.order, B.order
    _check_order(n * m, f"{A.name}x{B.name}")
    dt = _dtype_for(n * m)  # every entry is below n*m
    big = A.mul.astype(dt)[:, None, :, None] * m + B.mul.astype(dt)[None, :, None, :]
    mul = big.reshape(n * m, n * m)
    labels = [f"({a},{b})" for a in A.labels for b in B.labels]
    return GroupTable(mul, labels=labels, name=f"{A.name}x{B.name}", validate=False)


def from_permutations(degree: int, gens: Sequence[tuple[int, ...]], name: str = "perm") -> GroupTable:
    """Expand permutation generators (0-based image tuples) to a full table."""
    if degree < 0:
        raise GroupError(f"permutation degree {degree} is negative")
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {g}")
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[k]] for k in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
            if len(seen) > TABLE_CAP:
                raise TableCapError(f"{name}: order above the table cap of {TABLE_CAP}")
        frontier = nxt
    return _perm_group(list(seen), name)


# -- text formats ----------------------------------------------------------


def parse_cayley_text(text: str) -> GroupTable:
    """Cayley-table format: first line ``order n``, then n rows of n indices."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("order"):
        raise GroupError("expected first line 'order n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GroupError("malformed order line") from None
    _check_order(n, "table")
    if len(lines) != n + 1:
        raise GroupError(f"expected {n} table rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GroupError(f"non-integer entry in table row {ln!r}") from None
        if len(row) != n:
            raise GroupError("table row has wrong length")
        rows.append(row)
    return GroupTable(rows, name="table")


def _parse_cycles(s: str, degree: int) -> tuple[int, ...]:
    img = list(range(degree))
    s = s.strip()
    if s in ("", "()", "e"):
        return tuple(img)
    depth = 0
    cycles, cur = [], []
    token = ""
    for ch in s:
        if ch == "(":
            if depth:
                raise GroupError("nested parenthesis in cycle")
            depth, cur, token = 1, [], ""
        elif ch == ")":
            if token:
                cur.append(int(token))
            token = ""
            depth = 0
            cycles.append(cur)
        elif ch in " ,":
            if token:
                cur.append(int(token))
            token = ""
        elif ch.isdigit():
            token += ch
        else:
            raise GroupError(f"bad character {ch!r} in cycle notation")
    if depth:
        raise GroupError("unbalanced parenthesis in cycle notation")
    written: set[int] = set()
    for cyc in cycles:
        pts = [c - 1 for c in cyc]  # 1-based on the wire
        if any(p < 0 or p >= degree for p in pts):
            raise GroupError("cycle point out of range")
        for c in cyc:
            if c in written:
                raise GroupError(f"cycle point {c} written twice in {s}")
            written.add(c)
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def parse_perm_text(text: str) -> GroupTable:
    """Permutation format: ``perm n: (a b c)(d e) ; (x y) ; ...`` (1-based)."""
    text = text.strip()
    if not text.startswith("perm"):
        raise GroupError("expected 'perm n: ...'")
    head, _, rest = text.partition(":")
    try:
        degree = int(head.split()[1])
    except (IndexError, ValueError):
        raise GroupError("malformed perm header") from None
    gens = [_parse_cycles(part, degree) for part in rest.split(";") if part.strip()]
    if not gens:
        gens = [tuple(range(degree))]
    return from_permutations(degree, gens, name=f"perm{degree}")
