from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec.catalog import large_catalog
from groupspec.fingroup import (
    GroupError,
    Homomorphism,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric,
)
from groupspec.freeprod import WordContext, parse_word
from groupspec.gobject import GGroup, GMorphism, enumerate_g_morphisms, identity_object
from groupspec.spectrum import spectrum

from oracles import SpanOracle, conjugates_of, naive_g_morphisms, naive_generated


def test_identity_object_spans_are_normal_closures():
    S3 = symmetric(3)
    obj = identity_object(S3)
    oracle = SpanOracle(obj.structure)
    for x in range(6):
        assert frozenset(obj.g_span(x).members) == oracle.span(x)


def test_span_with_partial_structure():
    # base Z2 hits S3 only through one transposition; the span of a
    # 3-cycle under conjugation by {e, (12)} is the full A3
    Z2, S3 = cyclic(2), symmetric(3)
    transposition = next(x for x in range(6) if x != 0 and S3.mul[x][x] == 0)
    obj = GGroup(Z2, S3, Homomorphism(Z2, S3, [0, transposition]))
    three_cycle = next(x for x in range(6) if S3.mul[x][x] not in (0,) and S3.element_order(x) == 3)
    assert len(obj.g_span(three_cycle)) == 3
    oracle = SpanOracle(obj.structure)
    for x in range(6):
        assert frozenset(obj.g_span(x).members) == oracle.span(x)


def test_spans_match_naive_closure_of_conjugates():
    # one surjective object and two that are not: the catalog's Z2 -> S5
    # and Z4 onto the cyclic subgroup of a 4-cycle in S4
    from groupspec.catalog import large_catalog

    S4, Z4 = symmetric(4), cyclic(4)
    c = next(x for x in range(S4.order) if S4.element_order(x) == 4)
    cyc = GGroup(Z4, S4, Homomorphism(Z4, S4, [S4.power(c, i) for i in range(4)]))
    objects = [identity_object(S4), dict(large_catalog())["Z2->S5"], cyc]
    for obj in objects:
        H = obj.carrier
        by = np.unique(np.asarray(obj.structure.image))
        for x in range(H.order):
            want = naive_generated(H, (int(y) for y in conjugates_of(H, x, by)))
            assert frozenset(obj.g_span(x).members) == want, (obj.label(), x)
    classes = [frozenset(cls.tolist()) for cls in S4.conjugacy_classes()]
    assert classes == sorted(
        {frozenset(conjugates_of(S4, x, np.arange(24)).tolist()) for x in range(24)}, key=min
    )


def test_integrality_flags():
    # abelian carriers have commuting spans everywhere, so every element
    # is a T1 divisor; T2 needs two nontrivially-intersecting spans
    assert not identity_object(cyclic(2)).is_integral("t1")
    assert identity_object(cyclic(2)).is_integral("t2")
    assert not identity_object(symmetric(3)).is_integral("t1")
    assert identity_object(symmetric(3)).is_integral("t2")
    assert not identity_object(direct_product(cyclic(2), cyclic(2))).is_integral("t2")


def test_divisor_witness_consistency():
    for G in (cyclic(2), cyclic(3), symmetric(3), direct_product(cyclic(2), cyclic(2))):
        obj = identity_object(G)
        for variant in ("t1", "t2"):
            witnesses = [obj.divisor_witness(x, variant) for x in range(1, G.order)]
            any_divisor = any(w is not None for w in witnesses)
            assert any_divisor != obj.is_integral(variant)



@pytest.mark.parametrize("n", [1, 2])  # the trivial carrier has no proper ideal to test
def test_unknown_variant_or_prime_def_is_rejected_up_front(n):
    obj = identity_object(cyclic(n))
    x = n - 1  # the identity when n == 1
    for call, message in [
        (lambda: obj.primes("bogus", "elementwise"), "unknown variant 'bogus'"),
        (lambda: obj.primes("t1", "nope"), "unknown prime_def 'nope'"),
        (lambda: obj.primes("bogus", "nope"), "unknown variant 'bogus'"),
        (lambda: obj.is_integral("bogus"), "unknown variant 'bogus'"),
        (lambda: obj.divisor_witness(x, "bogus"), "unknown variant 'bogus'"),
        (lambda: spectrum(obj, "bogus", "nope"), "unknown variant 'bogus'"),
    ]:
        with pytest.raises(GroupError, match=message):
            call()
    assert not any("bogus" in key or "nope" in key for key in obj._caches if isinstance(key, tuple))


def test_gmorphism_checks_commutation():
    Z4, Z2 = cyclic(4), cyclic(2)
    A = identity_object(Z4)
    proj = Homomorphism(Z4, Z2, [0, 1, 0, 1])
    B = GGroup(Z4, Z2, proj)
    GMorphism(A, B, proj)  # commutes
    with pytest.raises(GroupError):
        GMorphism(A, B, Homomorphism(Z4, Z2, [0, 0, 0, 0]))


def test_gmorphism_rejects_mismatched_base():
    A = identity_object(cyclic(4))
    B = identity_object(cyclic(2))
    with pytest.raises(GroupError):
        GMorphism(A, B, Homomorphism(cyclic(4), cyclic(2), [0, 1, 0, 1]))


def test_enumerate_g_morphisms_v4():
    # carrier V4 with structure hitting (1,0): endomorphisms fixing that
    # generator are free on the other, giving four morphisms
    Z2 = cyclic(2)
    V4 = direct_product(Z2, Z2)
    fixed = next(x for x in range(4) if x != 0)
    obj = GGroup(Z2, V4, Homomorphism(Z2, V4, [0, fixed]))
    homs = enumerate_g_morphisms(obj, obj)
    assert len(homs) == 4
    assert len({m.map.image for m in homs}) == 4
    for m in homs:
        assert m.map.image[fixed] == fixed


def test_enumerate_g_morphisms_identity_only():
    obj = identity_object(symmetric(3))
    homs = enumerate_g_morphisms(obj, obj)
    assert len(homs) == 1
    assert homs[0].map.image == tuple(range(6))


def _images(A, B):
    return [m.map.image for m in enumerate_g_morphisms(A, B)]


def _over_trivial_base(H):
    T = cyclic(1)
    return GGroup(T, H, Homomorphism(T, H, [H.id]))


def test_enumeration_matches_oracle_on_the_large_catalog():
    # every same-base pair with both carriers of order <= 120, which holds
    # the Z2 -> S5 endomorphisms
    objs = [obj for _, obj in large_catalog() if obj.carrier.order <= 120]
    pairs = [(A, B) for A in objs for B in objs if A.base is B.base]
    assert len(pairs) == 14
    for A, B in pairs:
        assert _images(A, B) == naive_g_morphisms(A, B), (A.label(), B.label())


@pytest.mark.parametrize("make", [
    lambda: symmetric(3), lambda: dihedral(4), quaternion8,
    lambda: alternating(4), lambda: symmetric(4), lambda: dihedral(6),
], ids=["S3", "D4", "Q8", "A4", "S4", "D6"])
def test_endomorphisms_over_the_trivial_base_match_oracle(make):
    X = _over_trivial_base(make())
    assert _images(X, X) == naive_g_morphisms(X, X)


_CARRIERS = {"S4": symmetric(4), "D6": dihedral(6)}
_cyclic = lru_cache(maxsize=None)(cyclic)  # one base instance per order


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_enumeration_matches_oracle_on_drawn_cyclic_bases(data):
    # Z_k -> H by i -> a^i for an a whose order divides k, for both ends
    k = data.draw(st.integers(1, 6))
    Zk = _cyclic(k)
    objs = []
    for _ in range(2):
        H = _CARRIERS[data.draw(st.sampled_from(sorted(_CARRIERS)))]
        a = data.draw(st.sampled_from([x for x in range(H.order) if k % H.element_order(x) == 0]))
        objs.append(GGroup(Zk, H, Homomorphism(Zk, H, [H.power(a, i) for i in range(k)])))
    A, B = objs
    assert _images(A, B) == naive_g_morphisms(A, B)


def test_incompatible_structure_maps_have_no_morphisms():
    Z4 = cyclic(4)
    A = GGroup(Z4, Z4, Homomorphism(Z4, Z4, [0, 2, 0, 2]))  # k -> 2k
    B = identity_object(Z4)
    assert _images(A, B) == naive_g_morphisms(A, B) == []


def test_endomorphism_counts_over_the_trivial_base():
    # End(S3): the trivial map, one onto each of the 3 subgroups of order
    # 2, and the 6 automorphisms; End(A5): the trivial map and |Aut A5| = |S5| = 120
    S3, A5 = _over_trivial_base(symmetric(3)), _over_trivial_base(alternating(5))
    assert len(enumerate_g_morphisms(S3, S3)) == 10
    assert len(enumerate_g_morphisms(A5, A5)) == 121


def test_evaluate_words_on_object():
    S3 = symmetric(3)
    obj = identity_object(S3)
    ctx = WordContext(S3, 1)
    word = parse_word(ctx, "X1^2")
    sq = {obj.evaluate(word, [x]) for x in range(6)}
    assert sq == {int(S3.mul[x][x]) for x in range(6)}
