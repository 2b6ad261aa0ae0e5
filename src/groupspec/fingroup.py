"""Finite group kernel: Cayley tables, subgroups, homomorphisms, quotients.

Every group is materialized as a full multiplication table over element
indices 0..n-1 with a fixed canonical order, so all downstream searches are
exhaustive and deterministic.  Set-valued results are always emitted sorted.
Permutation and pointwise tables are filled by one coset walk from the rows
of a few generators (``_fill_table``); S_n and A_n come from two generators.
"""

from __future__ import annotations

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
    "RowGroup",
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
        self.mul: np.ndarray = np.ascontiguousarray(mul, dtype=_dtype_for(n))
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

    @cached_property
    def _scalar(self) -> tuple[memoryview, memoryview]:
        """Zero-copy views of mul and inv for scalar reads.  Indexed by ints
        (numpy ints too) a view returns a Python int, in about a third of
        the time of int(mul[a, b]); a tolist() copy would hold n^2 ints."""
        return memoryview(self.mul), memoryview(self.inv)

    def __getstate__(self) -> dict:
        # memoryviews cannot be pickled or deep-copied; a copy rebuilds its own
        state = self.__dict__.copy()
        state.pop("_scalar", None)
        return state

    def op(self, a: int, b: int) -> int:
        """a * b as a Python int, read through the zero-copy table view."""
        return self._scalar[0][a, b]

    def inverse(self, a: int) -> int:
        return self._scalar[1][a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        mul, inv = self._scalar
        return mul[mul[g, x], inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a * b * a^-1 * b^-1."""
        mul, inv = self._scalar
        return mul[mul[mul[a, b], inv[a]], inv[b]]

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


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])] if rows.shape[1] else rows


class RowGroup:
    """A finite group stored as its elements' rows: ``rows`` holds one
    distinct int64 row per element, in lexicographic order, and nothing
    else.  One lookup, ``locate``, finds rows; a subclass hands it to
    ``pointwise_table`` for its Cayley table and keeps that table's object
    in ``_ggroup``."""

    _error, _missing = GroupError, "row does not belong to this group"

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.int64)
        self._ggroup = None

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def locate(self):
        """The lookup from an array of rows to the element index of each,
        -1 where a row is no element (``_row_index``)."""
        return _row_index(self.rows)

    def _indices(self, rows: np.ndarray) -> np.ndarray:
        """locate, where every row must be an element."""
        idx = self.locate(rows)
        if (idx < 0).any():
            raise self._error(self._missing)
        return idx

    def index_of(self, row: Sequence[int]) -> int:
        return int(self._indices(np.array([row], dtype=np.int64))[0])


def pointwise_table(
    factors: Sequence[GroupTable], rows: Sequence[Sequence[int]], find=None
) -> np.ndarray:
    """Cayley table of distinct tuples under the pointwise product.

    Column c of ``rows`` multiplies in ``factors[c]``.  The identity tuple
    and each generator's product row are looked up among ``rows`` (by
    ``find``, a ``_row_index`` of ``rows`` the caller already holds, else a
    new one), so a product that is not a row raises GroupError: closure is
    checked exactly (``_fill_table``).
    """
    R = np.asarray(rows, dtype=np.int64)
    find = find or _row_index(R)
    e = _found(find(np.array([[t.id for t in factors]])))

    def times(g: int) -> np.ndarray:
        prods = [t.mul[a, R[:, c]] for c, (t, a) in enumerate(zip(factors, R[g]))]
        return _found(find(np.column_stack(prods)))

    return _fill_table(len(R), int(e[0]), times)


def _fill_table(n: int, e: int, times) -> np.ndarray:
    """The Cayley table of n elements with identity e, from the rows
    ``times(g)`` (the index of g*x for every x; it raises on a product
    outside the set) of the greedy generators only.  Dimino's coset walk,
    as in ``GroupTable._close``: the group K reached so far grows by the
    least element g outside it, walked as right cosets K*y, y = r*s for a
    representative r and a generator s; since row(k*y) = row(k)[row(y)] and
    k*y = row(k)[y], each new coset is one gather.  Every element is a
    product of generators whose rows stay in the set: the set is closed."""
    table = np.empty((n, n), dtype=_dtype_for(n))
    table[e] = np.arange(n)
    reached = bytearray(n)
    reached[e] = 1
    mask = np.frombuffer(reached, dtype=bool)  # a view of reached
    K = np.array([e])
    gens: list[int] = []
    while len(K) < n:
        g = reached.index(0)
        table[g] = times(g)
        gens.append(g)
        reps = [e]
        for r in reps:  # grows while walked
            for s in gens:
                y = int(table[r, s])
                if not reached[y]:
                    coset = table[K, y]
                    table[coset] = table[K[:, None], table[r, table[s]]]
                    mask[coset] = True
                    reps.append(y)
        K = np.flatnonzero(mask)
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
    sorted order: p*q sends k to p[q[k]], so the row of p ranks the rows of
    P[p][P] by their keys."""
    perms = sorted(set(perms))
    # a degree-0 permutation () stands in as the one fixed point (0,)
    P = np.array([p or (0,) for p in perms])
    P = P.astype(np.min_scalar_type(P.shape[1]))
    find = _row_index(P)
    mul = _fill_table(len(perms), 0, lambda g: _found(find(P[g][P])))  # the identity sorts first
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
    """S_n from (1 2) and (1 2 ... n)."""
    if n < 0:
        raise GroupError("symmetric(n) needs n >= 0")
    _check_order(math.factorial(n), f"S{n}")
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n > 1 else []
    return from_permutations(n, gens, f"S{n}")


def alternating(n: int) -> GroupTable:
    """A_n from (1 2 3) and (1 2 ... n) for odd n, (2 3 ... n) for even n."""
    if n < 0:
        raise GroupError("alternating(n) needs n >= 0")
    _check_order(max(math.factorial(n) // 2, 1), f"A{n}")
    cycle = tuple(range(1, n)) + (0,) if n % 2 else (0,) + tuple(range(2, n)) + (1,)
    gens = [(1, 2, 0) + tuple(range(3, n)), cycle] if n > 2 else []
    return from_permutations(n, gens, f"A{n}")


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
    """Element 2a + s is (-1)^s * unit[a], the units 1, i, j, k; unit[a] *
    unit[b] is unit[a ^ b], negated where SIGN[a, b] = 1."""
    SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    a, s = np.arange(8)[:, None] // 2, np.arange(8)[:, None] % 2
    mul = 2 * (a ^ a.T) + (SIGN[a, a.T] ^ s ^ s.T)
    return GroupTable(mul, labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"], name="Q8", validate=True)


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
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(map(p.__getitem__, g))
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
    return from_permutations(degree, gens, name=f"perm{degree}")
