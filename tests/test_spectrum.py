import pytest
from hypothesis import given, settings, strategies as st

from groupspec.fingroup import (
    GroupError,
    Homomorphism,
    Subgroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    normal_subgroups,
    symmetric,
)
from groupspec.gobject import GGroup, identity_object
from groupspec.spectrum import (
    Ideal,
    irreducible_components,
    is_prime,
    point_radical,
    radical,
    spectrum,
    vanishing_set,
    whole_radical,
)

from oracles import (
    SpanOracle,
    naive_closed_sets,
    naive_closure,
    naive_irreducible_components,
    naive_is_open,
    naive_is_prime,
    naive_minimal_open,
    naive_object_witness,
    naive_open_sets,
    naive_quotient_prime,
    naive_specialization_edges,
    naive_spectrum,
)

Z2 = cyclic(2)
S3 = symmetric(3)
S5 = symmetric(5)
A5 = alternating(5)


def _prime_sets(spec):
    return [frozenset(P.members.members) for P in spec.primes]


def test_frozen_spectra_match_brute_force_oracle():
    cases = [
        (identity_object(Z2), "t1"),
        (identity_object(Z2), "t2"),
        (identity_object(S3), "t1"),
        (identity_object(A5), "t1"),
        (identity_object(S5), "t2"),
    ]
    for obj, variant in cases:
        assert _prime_sets(spectrum(obj, variant)) == naive_spectrum(obj.structure, variant)


def test_frozen_spectra_values():
    assert spectrum(identity_object(Z2), "t1").primes == ()
    assert _prime_sets(spectrum(identity_object(Z2), "t2")) == [frozenset({0})]
    assert spectrum(identity_object(S3), "t1").primes == ()
    assert _prime_sets(spectrum(identity_object(A5), "t1")) == [frozenset({0})]
    s = spectrum(identity_object(S5), "t2")
    assert [len(P.members) for P in s.primes] == [1, 60]
    assert s.space.specialization_edges() == [(0, 1)]


def test_spectrum_small_catalog_oracle():
    # every small catalog object, both variants, against the naive scan
    from groupspec.catalog import small_catalog

    for name, obj in small_catalog():
        for variant in ("t1", "t2"):
            assert _prime_sets(spectrum(obj, variant)) == naive_spectrum(
                obj.structure, variant
            ), (name, variant)


def test_nonidentity_structure_spectrum():
    transposition = next(x for x in range(120) if x != 0 and S5.mul[x][x] == 0)
    obj = GGroup(Z2, S5, Homomorphism(Z2, S5, [0, transposition]))
    for variant in ("t1", "t2"):
        assert _prime_sets(spectrum(obj, variant)) == naive_spectrum(obj.structure, variant)


def test_ideal_rejects_whole_and_non_normal():
    obj = identity_object(S3)
    with pytest.raises(GroupError):
        Ideal(obj, Subgroup(S3, range(6)))
    non_normal = next(
        Subgroup(S3, (0, x)) for x in range(1, 6) if not Subgroup(S3, (0, x)).is_normal()
    )
    with pytest.raises(GroupError):
        Ideal(obj, non_normal)


def test_closed_sets_form_topology():
    s = spectrum(identity_object(S5), "t2")
    closed = s.space.closed_sets
    allp = frozenset(range(len(s.primes)))
    assert frozenset() in closed and allp in closed
    for a in closed:
        for b in closed:
            assert a & b in closed
            assert a | b in closed


def test_vanishing_set_antitone():
    s = spectrum(identity_object(S5), "t2")
    subs = sorted(normal_subgroups(S5), key=len)
    for i, N in enumerate(subs):
        for M in subs[i:]:
            if frozenset(N.members) <= frozenset(M.members):
                assert vanishing_set(s, M) <= vanishing_set(s, N)


def test_radical_galois_connection():
    s = spectrum(identity_object(S5), "t2")
    for c in s.space.closed_sets:
        r = radical(s, c)
        assert vanishing_set(s, r) == c
    # empty set of primes has the whole carrier as radical
    assert len(radical(s, frozenset())) == 120
    assert len(whole_radical(s)) == 1
    # minimal open of the closed point contains the generic point too
    assert len(point_radical(s, 1)) == 1
    assert frozenset(point_radical(s, 0).members) == frozenset(s.primes[0].members.members)


def test_irreducible_components_disjoint_case():
    obj = identity_object(direct_product(A5, A5))
    s = spectrum(obj, "t1")
    comps = irreducible_components(s)
    assert len(comps) == 2
    assert all(generic is not None for _, generic in comps)
    assert {c for c, _ in comps} == {frozenset({0}), frozenset({1})}


def test_minimal_open_and_specialization():
    s = spectrum(identity_object(S5), "t2")
    # the generic point {1} specializes to A5; its minimal open is itself
    assert s.space.minimal_open(0) == frozenset({0})
    assert s.space.minimal_open(1) == frozenset({0, 1})
    assert s.space.closure({0}) == frozenset({0, 1})


def test_spaces_match_the_old_topology_bodies():
    """Every spectrum of both catalogs under all four definitions: the
    space lists what the old Spectrum methods listed, order included, also
    on the spectra whose V(N) family is not closed under unions."""
    from groupspec.catalog import catalog

    checked = defects = 0
    for cat in ("small", "large"):
        for name, obj in catalog(cat):
            for variant in ("t1", "t2"):
                for prime_def in ("elementwise", "quotient"):
                    spec = spectrum(obj, variant, prime_def)
                    space, pts = spec.space, range(len(spec.primes))
                    closed = naive_closed_sets(spec)
                    where = (name, variant, prime_def)
                    assert space.closed_sets == closed, where
                    assert space.opens == naive_open_sets(spec), where
                    for U in [*space.opens, *closed, *({p} for p in pts)]:
                        assert space.is_open(U) == naive_is_open(spec, U), where
                    for p in pts:
                        assert space.minimal_open(p) == naive_minimal_open(spec, p), where
                        assert space.closure({p}) == naive_closure(closed, pts, {p}), where
                    assert space.specialization_edges() == naive_specialization_edges(spec), where
                    assert irreducible_components(spec) == naive_irreducible_components(spec), where
                    checked += 1
                    defects += space.topology_defect() is not None
    assert (checked, defects) == (88, 6)


def test_points_outside_the_space_raise():
    s = spectrum(identity_object(S5), "t2")
    assert len(s.primes) == 2
    for call, p in [
        (s.space.minimal_open, 7),
        (s.space.minimal_open, -1),
        (lambda p: s.space.closure({0, p}), 9),
        (lambda p: point_radical(s, p), 7),
        (lambda p: radical(s, [p]), -1),
        (lambda p: radical(s, [0, p]), 7),
    ]:
        with pytest.raises(GroupError, match=f"^no point {p} in a space of 2 points$"):
            call(p)
    assert not s.space.is_open({0, 9})


def test_prime_defs_agree_on_t1():
    for G in (Z2, S3, cyclic(4)):
        obj = identity_object(G)
        for N in normal_subgroups(G):
            if N.is_whole():
                continue
            I = Ideal(obj, N)
            assert is_prime(obj, I, "t1", "quotient") == is_prime(obj, I, "t1", "elementwise")


def test_prime_defs_diverge_on_t2_v4():
    V4 = direct_product(Z2, Z2)
    obj = identity_object(V4)
    diag = next(
        N for N in normal_subgroups(V4) if len(N) == 2 and all(x in (0, 3) for x in N.members)
    )
    I = Ideal(obj, diag)
    assert is_prime(obj, I, "t2", "quotient")
    assert not is_prime(obj, I, "t2", "elementwise")


def _check_primality_against_oracles(obj):
    """is_prime under both variants and both definitions on every ideal,
    is_integral and every divisor_witness, against the brute-force scans."""
    H = obj.carrier
    oracle = SpanOracle(obj.structure)
    for N in normal_subgroups(H):
        if N.is_whole():
            continue
        I, members = Ideal(obj, N), frozenset(N.members)
        for variant in ("t1", "t2"):
            want = naive_is_prime(obj.structure, members, variant, oracle)
            assert is_prime(obj, I, variant, "elementwise") == want, (obj.label(), len(N), variant)
            want = naive_quotient_prime(obj.structure, members, variant)
            assert is_prime(obj, I, variant, "quotient") == want, (obj.label(), len(N), variant)
    for variant in ("t1", "t2"):
        trivial = frozenset({H.id})
        assert obj.is_integral(variant) == naive_is_prime(obj.structure, trivial, variant, oracle)
        for x in range(H.order):
            if x != H.id:
                want = naive_object_witness(obj.structure, x, variant, oracle)
                assert obj.divisor_witness(x, variant) == want, (obj.label(), x, variant)


def test_primality_engine_on_catalog_objects():
    from groupspec.catalog import large_catalog, small_catalog

    for _, obj in small_catalog():
        _check_primality_against_oracles(obj)
    _check_primality_against_oracles(dict(large_catalog())["Z2->S5"])


_CARRIERS = {
    "S4": symmetric(4),
    "D6": dihedral(6),
    "Z2xS3": direct_product(cyclic(2), symmetric(3)),
}


@st.composite
def _cyclic_structures(draw):
    """Z_k -> H sending the generator to an element whose order divides k."""
    H = _CARRIERS[draw(st.sampled_from(sorted(_CARRIERS)))]
    k = draw(st.integers(1, 12))
    h = draw(st.sampled_from([x for x in range(H.order) if k % H.element_order(x) == 0]))
    Zk = cyclic(k)
    return GGroup(Zk, H, Homomorphism(Zk, H, [H.power(h, i) for i in range(k)]))


@settings(max_examples=60, deadline=None)
@given(_cyclic_structures())
def test_primality_engine_on_cyclic_structure_maps(obj):
    _check_primality_against_oracles(obj)


def test_unknown_variant_and_prime_def_raise():
    obj = identity_object(S3)
    I = Ideal(obj, normal_subgroups(S3)[0])
    with pytest.raises(GroupError):
        is_prime(obj, I, "t3", "elementwise")
    with pytest.raises(GroupError):
        is_prime(obj, I, "t1", "naive")
    with pytest.raises(GroupError):
        obj.divisor_witness(1, "t3")
