import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec.catalog import groups, small_catalog
from groupspec.fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    alternating,
    commutator_subgroup,
    cyclic,
    dihedral,
    direct_product,
    is_nilpotent,
    normal_closure,
    normal_subgroups,
    parse_cayley_text,
    quaternion8,
    quotient,
    subgroup_product,
    symmetric,
)

from oracles import (
    naive_generated,
    naive_inverses,
    naive_is_associative,
    naive_is_normal,
    naive_normal_subgroups,
    swapped_cyclic,
)

SMALL = [cyclic(2), cyclic(6), symmetric(3), dihedral(4), quaternion8(), alternating(4)]


def test_constructor_orders():
    assert cyclic(5).order == 5
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert dihedral(6).order == 12
    assert quaternion8().order == 8
    assert direct_product(cyclic(2), symmetric(3)).order == 12


def test_group_axioms():
    for G in SMALL:
        e = G.id
        xs = range(G.order)
        assert all(G.mul[e][x] == x and G.mul[x][e] == x for x in xs)
        assert all(G.mul[x][G.inv[x]] == e for x in xs)
        m = np.asarray(G.mul)
        # (xy)z == x(yz), full table check
        assert np.array_equal(m[m, :], m[:, m])


def test_normal_closure_against_oracle():
    for G in SMALL:
        for x in range(min(G.order, 8)):
            N = normal_closure(G, (x,))
            gens = {int(G.mul[G.mul[g][x]][G.inv[g]]) for g in range(G.order)}
            assert frozenset(N.members) == naive_generated(G, gens)
            assert naive_is_normal(G, frozenset(N.members))


def test_normal_subgroups_against_oracle():
    for G in SMALL:
        got = sorted(frozenset(N.members) for N in normal_subgroups(G))
        assert sorted(got) == sorted(naive_normal_subgroups(G))


def test_commutator_subgroup_known():
    S3 = symmetric(3)
    D = commutator_subgroup(S3, Subgroup(S3, range(6)), Subgroup(S3, range(6)))
    assert len(D) == 3
    Q = quaternion8()
    D = commutator_subgroup(Q, Subgroup(Q, range(8)), Subgroup(Q, range(8)))
    assert len(D) == 2
    A5 = alternating(5)
    D = commutator_subgroup(A5, Subgroup(A5, range(60)), Subgroup(A5, range(60)))
    assert len(D) == 60


def test_quotient_s3_by_a3():
    S3 = symmetric(3)
    A3 = next(N for N in normal_subgroups(S3) if len(N) == 3)
    q = quotient(S3, A3)
    assert q.table.order == 2
    # projection is a homomorphism
    q.projection.verify()


def test_quotient_rejects_non_normal():
    S3 = symmetric(3)
    H = next(
        Subgroup(S3, (0, x))
        for x in range(1, 6)
        if S3.mul[x][x] == 0 and not Subgroup(S3, (0, x)).is_normal()
    )
    with pytest.raises(GroupError):
        quotient(S3, H)


def test_quotient_builds_its_table_in_the_table_dtype():
    """H/1 of A5 x A5 is a 25.9 MB table; an int64 intermediate would be 4x."""
    H = groups()["A5xA5"]
    trivial = Subgroup(H, [H.id])
    assert trivial.is_normal()
    tracemalloc.start()
    try:
        q = quotient.__wrapped__(H, trivial)  # bypass the cache: build afresh
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.table.mul, H.mul)
    assert peak < 2.5 * q.table.mul.nbytes, (peak, q.table.mul.nbytes)


def test_subgroup_product():
    Z6 = cyclic(6)
    A = Subgroup(Z6, (0, 2, 4))
    B = Subgroup(Z6, (0, 3))
    assert subgroup_product(Z6, A, B).members == tuple(range(6))


def _whole(G) -> Subgroup:
    return Subgroup(G, range(G.order))


def test_nilpotency():
    assert is_nilpotent(_whole(cyclic(8)))
    assert is_nilpotent(_whole(quaternion8()))
    assert is_nilpotent(_whole(dihedral(4)))
    assert not is_nilpotent(_whole(symmetric(3)))
    assert not is_nilpotent(_whole(alternating(4)))


def _sylow_normal_oracle(G) -> bool:
    # nilpotent iff every Sylow subgroup is normal; brute-forced from all
    # subgroups generated by subsets of bounded size
    n = G.order
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        pp = 1
        while n % (pp * p) == 0:
            pp *= p
        # find one Sylow p-subgroup by closing p-elements greedily
        members = {G.id}
        for x in range(n):
            cand = naive_generated(G, members | {x})
            if len(cand) <= pp and pp % len(cand) == 0:
                members = set(cand)
        if len(members) != pp:
            continue
        if not naive_is_normal(G, frozenset(members)):
            return False
    return True


def test_nilpotency_against_sylow_oracle():
    for G in SMALL:
        assert is_nilpotent(_whole(G)) == _sylow_normal_oracle(G)


def test_homomorphism_compose_and_verify():
    Z4 = cyclic(4)
    Z2 = cyclic(2)
    f = Homomorphism(Z4, Z2, [0, 1, 0, 1])
    f.verify()
    g = Homomorphism.identity(Z2)
    assert f.compose(g).image == f.image
    with pytest.raises(GroupError):
        Homomorphism(Z4, Z2, [0, 1, 1, 0]).verify()


def test_parse_cayley_roundtrip():
    G = symmetric(3)
    text = "order 6\n" + "\n".join(" ".join(str(int(x)) for x in row) for row in G.mul)
    H = parse_cayley_text(text)
    assert H.order == 6
    assert np.array_equal(np.asarray(H.mul), np.asarray(G.mul))


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=50, deadline=None)
def test_inverse_antihomomorphism(x, y):
    G = quaternion8()
    assert G.inv[G.mul[x][y]] == G.mul[G.inv[y]][G.inv[x]]


@given(st.sets(st.integers(0, 23), max_size=3))
@settings(max_examples=30, deadline=None)
def test_normal_closure_minimality(gens):
    G = symmetric(4)
    N = frozenset(normal_closure(G, tuple(gens)).members)
    assert naive_is_normal(G, N)
    assert gens <= N
    for M in naive_normal_subgroups(G):
        if gens <= M:
            assert N <= M


def test_homomorphism_rejects_out_of_range_images():
    S3 = symmetric(3)
    with pytest.raises(GroupError, match="image 9 out of range for S3 \\(order 6\\)"):
        Homomorphism(S3, S3, [0, 1, 2, 3, 4, 9])
    with pytest.raises(GroupError, match="image -1 out of range"):
        Homomorphism(S3, cyclic(2), [0, -1, 0, 1, 1, 0])


def test_light_test_rejects_large_non_associative_table():
    # order 300 is past the old 256-element cap, under which this table
    # (Latin, with identity and inverses) was accepted unchecked
    with pytest.raises(GroupError, match="not associative"):
        GroupTable(swapped_cyclic(300, 1, 2))


def _light_accepts(G) -> bool:
    try:
        G._check_associative()
    except GroupError:
        return False
    return True


def test_light_test_matches_cubic_check():
    rejected = 0
    for n in range(4, 41, 2):
        h = n // 2
        for a in range(1, h):
            for b in sorted({1, a, h - 1}):
                try:
                    G = GroupTable(swapped_cyclic(n, a, b), validate=False)
                except GroupError:
                    continue  # the swap moved an identity entry
                light = _light_accepts(G)
                assert light == naive_is_associative(G.mul), (n, a, b)
                rejected += not light
                if n <= 16:
                    # element 1 of G x Z2 is (e, 1), which associates with
                    # everything: a later generator must find the defect
                    P = direct_product(G, cyclic(2))
                    assert _light_accepts(P) == light == naive_is_associative(P.mul)
    assert rejected > 100
    for name, G in groups().items():
        if G.order <= 256:
            assert naive_is_associative(G.mul), name
            G._check_associative()


def test_is_normal_on_every_subset_with_identity():
    for G in (symmetric(3), dihedral(4), quaternion8(), alternating(4)):
        others = [x for x in range(G.order) if x != G.id]
        for k in range(len(others) + 1):
            for rest in itertools.combinations(others, k):
                S = frozenset(rest) | {G.id}
                assert Subgroup(G, S).is_normal() == naive_is_normal(G, S), (G.name, S)


def test_normal_closure_of_every_element():
    for G in SMALL:
        for x in range(G.order):
            gens = {int(G.mul[G.mul[g][x]][G.inv[g]]) for g in range(G.order)}
            assert frozenset(normal_closure(G, (x,)).members) == naive_generated(G, gens)


def test_subgroup_product_against_oracle():
    for name, obj in small_catalog():
        G = obj.carrier
        normals = normal_subgroups(G)
        for A in normals:
            for B in normals:
                got = subgroup_product(G, A, B)
                assert frozenset(got.members) == naive_generated(G, set(A.members) | set(B.members)), name


def test_normal_subgroups_by_atom_joins_against_oracle():
    for G in (symmetric(4), dihedral(12), direct_product(symmetric(4), cyclic(3))):
        got = [frozenset(N.members) for N in normal_subgroups(G)]
        assert got == naive_normal_subgroups(G), G.name


def test_inverses_match_full_mask_scan():
    # A5xA5 (order 3600) spans several 512-row blocks
    for name in groups():
        G = groups()[name]
        assert np.array_equal(G.inv, naive_inverses(G.mul, G.id)), name


def test_missing_and_one_sided_inverses_raise():
    # Z4 with the identity removed from row 2: 2 has no right inverse
    m = (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4
    m[2, 2] = 1
    with pytest.raises(GroupError, match="^element 2 has no two-sided inverse$"):
        naive_inverses(m, 0)
    with pytest.raises(GroupError, match="^element 2 has no two-sided inverse$"):
        GroupTable(m, validate=False)
    # a right inverse that is not a left one: 1*3 = 0 but 3*1 = 2
    m = (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4
    m[3, 1] = 2
    with pytest.raises(GroupError, match="^element 1 has no two-sided inverse$"):
        naive_inverses(m, 0)
    with pytest.raises(GroupError, match="^element 1 has no two-sided inverse$"):
        GroupTable(m, validate=False)


def test_scalar_arithmetic_reads_the_table_exactly():
    # every large-catalog table, and one built from a transposed (not
    # C-contiguous) array: the opposite group of S4
    S4 = groups()["S4"]
    opposite = GroupTable(S4.mul.T)
    assert not S4.mul.T.flags.c_contiguous
    assert np.array_equal(opposite.mul, S4.mul.T)
    rng = np.random.default_rng(0)
    for name, G in [*groups().items(), ("S4 transposed", opposite)]:
        mul, inv = G.mul, G.inv
        assert mul.flags.c_contiguous, name
        for view, array in zip(G._scalar, (mul, inv)):
            # the view reads the table itself, not a copy
            assert view.obj is array and np.shares_memory(np.asarray(view), array), name
        n = G.order
        xs = range(n) if n <= 120 else sorted({0, n - 1, *rng.choice(n, 40, replace=False).tolist()})
        for a in xs:
            assert type(G.inverse(a)) is int and G.inverse(a) == inv[a], name
            order, p = 1, a
            while p != G.id:
                order, p = order + 1, mul[p, a]
            assert type(G.element_order(a)) is int and G.element_order(a) == order, name
            for k in (-3, 0, 1, 5):
                expected = G.id
                for _ in range(abs(k)):
                    expected = mul[expected, a if k > 0 else inv[a]]
                assert type(G.power(a, k)) is int and G.power(a, k) == expected, (name, a, k)
            for b in xs:
                # numpy-int indices read Python ints too
                for x, y in ((a, b), (np.int64(a), np.int16(b))):
                    got = (G.op(x, y), G.conj(x, y), G.commutator(x, y))
                    assert [type(v) for v in got] == [int] * 3, name
                    assert got == (
                        mul[a, b],
                        mul[mul[a, b], inv[a]],
                        mul[mul[mul[a, b], inv[a]], inv[b]],
                    ), (name, a, b)
    # a table that has read through its views still pickles and copies
    for H in (pickle.loads(pickle.dumps(opposite)), copy.deepcopy(opposite)):
        assert np.array_equal(H.mul, opposite.mul) and H.op(1, 2) == opposite.op(1, 2)
