"""Deterministic JSON and DOT exporters with round-trip import.

All collections are emitted in canonical (sorted) order so a fixed input
always produces byte-identical output.
"""

from __future__ import annotations

import json

from .fingroup import GroupError, Subgroup
from .gobject import GGroup
from .spectrum import (
    Ideal,
    Spectrum,
    irreducible_components,
    whole_radical,
)

__all__ = [
    "spectrum_to_dict",
    "spectrum_to_json",
    "spectrum_from_dict",
    "spectrum_to_dot",
    "variety_to_dict",
    "scheme_to_dict",
    "to_json_bytes",
]


def to_json_bytes(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _prime_label(spec: Spectrum, i: int) -> str:
    P = spec.primes[i].members
    if len(P) == 1:
        return "{1}"
    return f"N{len(P)}"


def spectrum_to_dict(spec: Spectrum) -> dict:
    comps = irreducible_components(spec)
    return {
        "carrier_order": spec.object.carrier.order,
        "variant": spec.variant,
        "prime_def": spec.prime_def,
        "primes": [list(P.members.members) for P in spec.primes],
        "closed_sets": sorted(sorted(c) for c in spec.space.closed_sets),
        "specialization": [list(e) for e in spec.space.specialization_edges()],
        "radical": list(whole_radical(spec).members)
        if spec.primes
        else list(range(spec.object.carrier.order)),
        "components": [
            {"members": sorted(c), "generic": g} for c, g in comps
        ],
    }


def spectrum_to_json(spec: Spectrum) -> bytes:
    return to_json_bytes(spectrum_to_dict(spec))


def spectrum_from_dict(data: dict, obj: GGroup) -> Spectrum:
    """Rebuild a spectrum over a known object and check it is self-consistent."""
    if data["carrier_order"] != obj.carrier.order:
        raise GroupError("spectrum import against an object of the wrong order")
    primes = tuple(
        Ideal(obj, Subgroup(obj.carrier, members)) for members in data["primes"]
    )
    spec = Spectrum(obj, data["variant"], data["prime_def"], primes)
    if spectrum_to_dict(spec) != data:
        raise GroupError("imported spectrum does not reproduce its export")
    return spec


def spectrum_to_dot(spec: Spectrum) -> bytes:
    """The specialization order as a DOT digraph (edges generic -> special)."""
    lines = ["digraph specialization {"]
    for i in range(len(spec.primes)):
        lines.append(f'  p{i} [label="{_prime_label(spec, i)}"];')
    for i, j in spec.space.specialization_edges():
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def variety_to_dict(V) -> dict:
    """The variety, its function group's order and a word for each function."""
    FG = V.functions
    return {
        "group_order": V.group.order,
        "nvars": V.nvars,
        "generators": [str(w) for w in V.generators],
        "points": [list(p) for p in V.points],
        "function_group_order": len(FG),
        "witnesses": [[row, str(w)] for row, w in zip(FG.rows.tolist(), FG.witnesses)],
    }


def scheme_to_dict(scheme) -> dict:
    opens = scheme.space.opens
    out = {
        "points": [repr(p) for p in scheme.points],
        "opens": sorted(sorted(repr(p) for p in U) for U in opens),
        "section_orders": {
            json.dumps(sorted(repr(p) for p in U)): len(scheme.section_group(U))
            for U in opens
        },
        "stalks": {
            repr(p): len(scheme.stalk(p)[0]) for p in scheme.points
        },
    }
    return out
