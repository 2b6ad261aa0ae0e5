"""Subgroup closure, the greedy generating set, Subgroup construction and
generator-based homomorphism checks against the brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec.catalog import groups, large_catalog, small_catalog
from groupspec.fingroup import (
    GroupError,
    Homomorphism,
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    normal_subgroups,
    quotient,
    symmetric,
)

from oracles import naive_generated, naive_greedy_generators, naive_is_homomorphism

S5, D12, S4xZ3 = symmetric(5), dihedral(12), direct_product(symmetric(4), cyclic(3))


def _closure(G, gens) -> frozenset:
    return frozenset(G.generated_subgroup(gens).members)


def test_closure_of_classes_and_pairs_matches_oracle():
    for name, obj in small_catalog():
        G = obj.carrier
        for c in G.conjugacy_classes():
            assert _closure(G, c) == naive_generated(G, c.tolist()), (name, c)
        for x, y in itertools.combinations_with_replacement(range(G.order), 2):
            assert _closure(G, [x, y]) == naive_generated(G, [x, y]), (name, x, y)


@pytest.mark.parametrize("G", [S5, D12, S4xZ3], ids=lambda G: G.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_closure_of_drawn_generators_matches_oracle(G, data):
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert _closure(G, gens) == naive_generated(G, gens)


def test_closure_input_shapes():
    G = S5
    trivial = frozenset({G.id})
    assert _closure(G, []) == _closure(G, [G.id]) == _closure(G, [G.id] * 3) == trivial
    assert _closure(G, np.array([], dtype=np.int64)) == trivial
    gens = [7, 31]
    want = naive_generated(G, gens)
    for given_gens in ([7, 31, 7], (31, 7), {7, 31}, np.array(gens), np.array(gens, dtype=np.int16),
                       (x for x in gens), iter([31, 31, 7])):
        assert _closure(G, given_gens) == want


def test_generators_match_the_greedy_loop():
    for name, G in groups().items():
        if G.order <= 120:
            assert list(G.generators) == naive_greedy_generators(G), name
    for G in (D12, S4xZ3, cyclic(1), cyclic(30)):
        assert list(G.generators) == naive_greedy_generators(G), G.name


def test_closure_takes_generators_in_the_order_given():
    # each candidate outside the span of those kept so far is kept, first
    # come first: reversed index order keeps the greatest outsiders
    G = S4xZ3
    for cand in (list(range(G.order))[::-1], [7, 7, 30, 7, 2]):
        kept, span = [], frozenset({G.id})
        for x in cand:
            if x not in span:
                kept.append(x)
                span = naive_generated(G, kept)
        assert G._close(cand)[1] == kept


def test_subgroup_from_any_iterable():
    G = S4xZ3
    H = G.generated_subgroup([5, 40])
    ms = H.members
    inputs = [list(ms), tuple(ms), set(ms), frozenset(ms), np.array(ms), np.array(ms[::-1], dtype=np.int16),
              list(ms) + list(ms), (x for x in ms)]
    for members in inputs:
        S = Subgroup(G, members)
        assert S.members == ms and S == H and hash(S) == hash(H)
        assert all(type(x) is int for x in S.members)
        assert np.array_equal(S.mask, H.mask)
    evens = Subgroup(cyclic(6), range(0, 6, 2))
    assert evens.members == (0, 2, 4)
    with pytest.raises(GroupError, match="identity"):
        Subgroup(G, np.array([1, 2]))


def _maps():
    """Every catalog structure map, identity map and quotient projection."""
    for name, obj in large_catalog():
        yield name, obj.structure
        yield name + " id", Homomorphism.identity(obj.carrier)
    for name, obj in small_catalog():
        for N in normal_subgroups(obj.carrier):
            yield f"{name}/{len(N)}", quotient(obj.carrier, N).projection


def test_generator_verify_accepts_every_catalog_map():
    for name, f in _maps():
        assert naive_is_homomorphism(f), name
        f.verify()


def test_generator_verify_matches_full_check_on_swapped_images():
    raised = 0
    for name, f in _maps():
        src = f.source
        if src.order > 24:
            continue
        gens = set(src.generators)
        for x, y in itertools.combinations(range(src.order), 2):
            if src.id in (x, y) or f.image[x] == f.image[y]:
                continue
            img = list(f.image)
            img[x], img[y] = img[y], img[x]
            g = Homomorphism(src, f.target, img)
            full = naive_is_homomorphism(g)
            try:
                g.verify()
                fast = True
            except GroupError:
                fast = False
            assert fast == full, (name, x, y)
            raised += not fast and x not in gens and y not in gens
    assert raised > 100  # swaps that touch no generator must be caught too


def test_generator_verify_rejects_a_moved_identity():
    S3 = symmetric(3)
    with pytest.raises(GroupError, match="identity"):
        Homomorphism(S3, S3, [1, 0, 2, 3, 4, 5]).verify()
    Homomorphism(cyclic(1), S3, [S3.id]).verify()
