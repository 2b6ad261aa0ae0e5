"""Named object catalogs used by the audit suites.

Group instances are built on first use and then shared, so identity-based
endpoint checks (structure maps, morphisms) work across suites.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .fingroup import (
    GroupTable,
    Homomorphism,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
)
from .gobject import GGroup, identity_object

__all__ = ["groups", "small_catalog", "large_catalog", "catalog", "CATALOGS"]

CATALOGS = ("small", "large")


class _Groups(Mapping):
    """Name -> group, each built on first lookup and then shared."""

    _MAKERS = {
        "Z2": lambda g: cyclic(2),
        "Z3": lambda g: cyclic(3),
        "Z4": lambda g: cyclic(4),
        "V4": lambda g: direct_product(cyclic(2), cyclic(2)),
        "S3": lambda g: symmetric(3),
        "D4": lambda g: dihedral(4),
        "Q8": lambda g: quaternion8(),
        "A4": lambda g: alternating(4),
        "S4": lambda g: symmetric(4),
        "A5": lambda g: alternating(5),
        "S5": lambda g: symmetric(5),
        "A5xA5": lambda g: direct_product(g["A5"], g["A5"]),
    }

    def __init__(self):
        self._built: dict[str, GroupTable] = {}

    def __getitem__(self, name: str) -> GroupTable:
        if name not in self._built:
            self._built[name] = self._MAKERS[name](self)
        return self._built[name]

    def __iter__(self):
        return iter(self._MAKERS)

    def __len__(self) -> int:
        return len(self._MAKERS)


@lru_cache(maxsize=None)
def groups() -> Mapping[str, GroupTable]:
    """The shared group instances, keyed by display name."""
    return _Groups()


@lru_cache(maxsize=None)
def small_catalog() -> tuple[tuple[str, GGroup], ...]:
    g = groups()
    names = ["Z2", "Z3", "Z4", "V4", "S3", "D4", "Q8", "A4", "S4"]
    return tuple((n, identity_object(g[n], name=n)) for n in names)


@lru_cache(maxsize=None)
def large_catalog() -> tuple[tuple[str, GGroup], ...]:
    g = groups()
    extra = [(n, identity_object(g[n], name=n)) for n in ("A5", "S5", "A5xA5")]
    # a non-identity structure: Z/2 -> S5 sending the generator to (12)
    S5 = g["S5"]
    Z2 = g["Z2"]
    t12 = next(
        i for i in range(S5.order) if S5.labels[i] == "(1 2)"
    )
    struct = Homomorphism(Z2, S5, [S5.id, t12])
    extra.append(("Z2->S5", GGroup(Z2, S5, struct, name="Z2->S5")))
    return small_catalog() + tuple(extra)


def catalog(name: str) -> tuple[tuple[str, GGroup], ...]:
    if name == "small":
        return small_catalog()
    if name == "large":
        return large_catalog()
    raise ValueError(f"unknown catalog {name!r}")
