"""The normal-subgroup lattice in class space, against the element-space
bodies it replaced (``tests/oracles.py``): normal subgroups, conjugation
orbits, commutator subgroups, divisor pairs, spans and vanishing sets."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec.catalog import groups, large_catalog
from groupspec.fingroup import (
    GroupError,
    Homomorphism,
    Subgroup,
    alternating,
    commutator_subgroup,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    is_nilpotent,
    normal_subgroups,
    subgroup_product,
    symmetric,
)
from groupspec.gobject import GGroup, identity_object
from groupspec.spectrum import spectrum, vanishing_set

from oracles import (
    closure_commutator_subgroup,
    naive_generated,
    per_normal_divisor_pairs,
    product_set_normal_subgroups,
    sweep_conjugation_orbits,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
CHOICES = [(v, d) for v in ("t1", "t2") for d in ("elementwise", "quotient")]


def _label_index(G, label):
    return G.labels.index(label)


def _cyclic_map(Zk, H, h):
    return GGroup(Zk, H, Homomorphism(Zk, H, [H.power(h, i) for i in range(Zk.order)]))


@lru_cache(maxsize=None)
def _scheme_objects():
    """The six structure maps of the ``schemes`` benchmark program, each
    sending the base generator into the same class as there."""
    S3, S4, S5 = symmetric(3), symmetric(4), symmetric(5)
    Z2, Z3, Z4, Z6 = cyclic(2), cyclic(3), cyclic(4), cyclic(6)
    S3xZ3, S4xS3, D12 = direct_product(S3, Z3), direct_product(S4, S3), dihedral(12)
    return (
        _cyclic_map(Z2, S5, _label_index(S5, "(1 2)")),
        _cyclic_map(Z3, S4, _label_index(S4, "(1 2 3)")),
        _cyclic_map(Z4, S4, _label_index(S4, "(1 2 3 4)")),
        _cyclic_map(Z3, S3xZ3, _label_index(S3xZ3, "((1 2 3),0)")),
        _cyclic_map(Z6, D12, _label_index(D12, "r2")),
        _cyclic_map(Z2, S4xS3, _label_index(S4xS3, "((1 2),e)")),
    )


@lru_cache(maxsize=None)
def _objects():
    """Every large-catalog object (the small catalog included), S4xZ3, the
    six scheme structure maps and a trivial carrier."""
    extra = [identity_object(direct_product(symmetric(4), cyclic(3))), identity_object(cyclic(1))]
    return tuple(obj for _, obj in large_catalog()) + _scheme_objects() + tuple(extra)


def _carriers():
    return list({id(obj.carrier): obj.carrier for obj in _objects()}.values())


def _members(subgroups):
    return [N.members for N in subgroups]


def _same_orbits(got, want):
    assert len(got[0]) == len(want[0])
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert np.array_equal(got[1], want[1])


def _check_lattice(G):
    normals = normal_subgroups(G)
    assert _members(normals) == product_set_normal_subgroups(G), G.name
    _same_orbits(G.class_partition, sweep_conjugation_orbits(G, range(G.order)))
    for I in normals:
        for J in normals:
            got = commutator_subgroup(G, I, J)
            assert got.members == closure_commutator_subgroup(G, I, J), (G.name, len(I), len(J))
            join = subgroup_product(G, I, J)
            assert join == G.generated_subgroup(set(I.members) | set(J.members)), G.name
            assert join in normals and got in normals


def test_normal_subgroups_match_product_set_oracle():
    assert len(_carriers()) == 19
    for G in _carriers():
        _check_lattice(G)


def test_conjugation_orbits_match_sweep_oracle():
    for obj in _objects():
        got = obj.carrier.conjugation_orbits(obj.structure.image)
        _same_orbits(got, sweep_conjugation_orbits(obj.carrier, obj.structure.image))


def test_trivial_carrier_has_one_normal_subgroup():
    G = cyclic(1)
    assert _members(normal_subgroups(G)) == [(0,)]
    obj = identity_object(G)
    for variant, prime_def in CHOICES:
        assert obj.primes(variant, prime_def) == ()
        assert vanishing_set(spectrum(obj, variant, prime_def), normal_subgroups(G)[0]) == frozenset()


def test_commutator_of_a_non_normal_s5_pair_takes_the_closure():
    S5 = symmetric(5)
    t = _label_index(S5, "(1 2)")
    c = _label_index(S5, "(1 2 3)")
    L, Lp = S5.generated_subgroup([t]), S5.generated_subgroup([c])
    assert not L.is_normal() and not Lp.is_normal()
    got = commutator_subgroup(S5, L, Lp)
    assert got.members == closure_commutator_subgroup(S5, L, Lp)
    assert frozenset(got.members) == naive_generated(S5, [S5.commutator(t, c), S5.commutator(t, S5.op(c, c))])
    assert len(got) == 3 and not got.is_normal()
    # a normal first argument with a non-normal second one, as in is_nilpotent
    A5 = normal_subgroups(S5)[1]
    assert commutator_subgroup(S5, A5, L).members == closure_commutator_subgroup(S5, A5, L)
    D4 = S5.generated_subgroup([_label_index(S5, "(1 2 3 4)"), _label_index(S5, "(1 3)")])
    assert len(D4) == 8 and is_nilpotent(D4) and not is_nilpotent(S5.generated_subgroup([t, c]))


def test_subgroup_product_rejects_a_non_normal_input():
    S4 = symmetric(4)
    L = S4.generated_subgroup([_label_index(S4, "(1 2)")])
    with pytest.raises(GroupError, match="requires normal inputs"):
        subgroup_product(S4, normal_subgroups(S4)[0], L)


def _check_divisor_pairs(obj):
    proper = normal_subgroups(obj.carrier)[:-1]
    for variant, prime_def in CHOICES:
        want = []
        for N in proper:
            pairs = per_normal_divisor_pairs(obj, N, variant, prime_def)
            got = obj._divisor_pairs(N.mask[None], variant, prime_def)[0]
            assert np.array_equal(got, pairs), (obj.label(), len(N), variant, prime_def)
            if not pairs.any():
                want.append(N)
        assert obj.primes(variant, prime_def) == tuple(want), (obj.label(), variant, prime_def)


def test_divisor_pairs_match_per_normal_oracle():
    for obj in _objects():
        _check_divisor_pairs(obj)


def test_spans_are_orbit_closures():
    for obj in _objects():
        H = obj.carrier
        for orbit in sweep_conjugation_orbits(H, obj.structure.image)[0]:
            want = H.generated_subgroup(orbit)
            assert all(obj.g_span(int(x)) == want for x in orbit), (obj.label(), orbit)


def test_spans_close_once_per_power_class(monkeypatch):
    """x and x^k, k prime to the order of x, span the same subgroup: the
    transposition map into S5 has 66 orbits in 43 power classes, and the
    one into S4xS3 has 84 orbits in 61."""
    X1, X6 = _scheme_objects()[0], _scheme_objects()[5]
    for obj, orbits, closures in ((X1, 66, 43), (X6, 84, 61)):
        fresh = GGroup(obj.base, obj.carrier, obj.structure)
        calls = []
        real = type(obj.carrier).generated_subgroup
        monkeypatch.setattr(
            type(obj.carrier), "generated_subgroup", lambda G, gens: calls.append(1) or real(G, gens)
        )
        fresh.g_span(0)
        monkeypatch.undo()
        assert (len(fresh._orbits[0]), len(calls)) == (orbits, closures)


def test_vanishing_sets_are_prime_containments():
    for obj in _objects():
        H = obj.carrier
        normals = normal_subgroups(H)
        for variant, prime_def in CHOICES:
            spec = spectrum(obj, variant, prime_def)
            primes = [set(P.members.members) for P in spec.primes]
            want = [frozenset(i for i, P in enumerate(primes) if set(N.members) <= P) for N in normals]
            assert [vanishing_set(spec, N) for N in normals] == want, obj.label()
            assert spec.space.closed_sets == sorted(set(want), key=lambda c: (len(c), sorted(c)))


def test_topology_defects_are_the_known_t2_quotient_spectra():
    """The V(N) family is kept as computed, never closed under unions.  It
    is a topology everywhere except under t2 with quotient primes on V4, D4,
    Q8 and two of the scheme objects, and there the first missing union
    shows."""
    defects = {}
    for obj in _objects():
        for variant, prime_def in CHOICES:
            pair = spectrum(obj, variant, prime_def).space.topology_defect()
            if pair is not None:
                defects[obj.label(), variant, prime_def] = pair
    assert defects == {
        ("V4", "t2", "quotient"): ({0}, {1}),
        ("D4", "t2", "quotient"): ({1}, {2}),
        ("Q8", "t2", "quotient"): ({1}, {2}),
        ("Z6->D12", "t2", "quotient"): ({1}, {2}),
        ("Z2->S4xS3", "t2", "quotient"): ({0}, {1}),
    }


def test_vanishing_set_of_a_non_normal_subgroup_raises():
    S3 = symmetric(3)
    spec = spectrum(identity_object(S3), "t2")
    L = Subgroup(S3, [S3.id, _label_index(S3, "(1 2)")])
    with pytest.raises(GroupError, match="^vanishing_set needs a normal subgroup$"):
        vanishing_set(spec, L)


@st.composite
def _perm_groups(draw):
    degree = draw(st.integers(1, 5))
    perm = st.permutations(list(range(degree))).map(tuple)
    gens = draw(st.lists(perm, min_size=1, max_size=2))
    return from_permutations(degree, gens)


@settings(max_examples=40, deadline=None)
@given(_perm_groups())
def test_lattice_on_drawn_permutation_groups(G):
    _check_lattice(G)
    obj = identity_object(G)
    _same_orbits(obj._orbits, sweep_conjugation_orbits(G, range(G.order)))
    _check_divisor_pairs(obj)


def test_large_catalog_lattices_are_built_in_class_space():
    # one row per normal subgroup, one column per conjugacy class
    G = groups()["A5xA5"]
    assert G.normal_lattice.shape == (4, 25)
    assert [len(N) for N in normal_subgroups(G)] == [1, 60, 60, 3600]
    assert len(normal_subgroups(alternating(5))) == 2


def test_statements_load_no_module_after_import():
    """``spec``, ``sections`` and ``export`` import nothing once numpy,
    groupspec and the program interpreter are loaded: no module (numpy.ma
    included) is first imported inside a statement."""
    program = (
        "group S4 = sym(4)\ngroup Z2 = cyclic(2)\nggroup X = (Z2 -> S4) via [0, 1]\n"
        "spec X --variant t2 as S\nspec S4 --variant t1 --prime-def quotient as T\n"
        "sections S whole\nsections T whole\nexport S\nexport T --format dot\n"
    )
    code = (
        "import sys\nimport numpy, groupspec, groupspec.dsl as dsl\n"
        "before = set(sys.modules)\n"
        f"dsl.Interpreter().run(dsl.parse_program({program!r}))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
