import itertools
import random

import numpy as np
import pytest

from groupspec.catalog import small_catalog
from groupspec.fingroup import GroupError, Subgroup, alternating, cyclic, normal_subgroups, symmetric
from groupspec.freeprod import WordContext, evaluate, parse_word
from groupspec.variety import (
    VarietyError,
    VarietySet,
    coordinate_group,
    hom_variety_correspondence,
    maximality_probe,
    variety_of,
    zariski_space,
)

from oracles import naive_coordinate_group

Z2 = cyclic(2)
S3 = symmetric(3)
A5 = alternating(5)


def _ctx(G, n):
    return WordContext(G, n)


def test_variety_of_squares_in_a5():
    w = parse_word(_ctx(A5, 1), "X1^2")
    V = variety_of(A5, 1, [w])
    # identity plus the fifteen involutions
    assert len(V) == 16
    assert (0,) in V
    assert all(A5.mul[p[0]][p[0]] == 0 for p in V.points)


def test_variety_brute_force_agreement():
    ctx = _ctx(S3, 2)
    words = [parse_word(ctx, "X1 * X2 * X1^-1 * X2^-1"), parse_word(ctx, "X1^2")]
    V = variety_of(S3, 2, words)
    from groupspec.variety import _id_structure

    expected = {
        p
        for p in itertools.product(range(6), repeat=2)
        if all(evaluate(w, _id_structure(S3), p) == 0 for w in words)
    }
    assert set(V.points) == expected


def test_empty_generators_give_whole_space():
    V = variety_of(Z2, 2, [])
    assert len(V) == 4


def test_coordinate_group_of_line():
    V = variety_of(Z2, 1, [])
    FG = coordinate_group(V)
    # constants and the coordinate generate all four value maps on 2 points
    assert len(FG) == 4
    assert FG.rows.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert FG.index_of((1, 1)) == 3  # the constant 1
    assert FG.index_of((0, 1)) == 1  # the coordinate X1
    assert FG.locate(np.array([[1, 0], [2, 0], [0, 0]])).tolist() == [2, -1, 0]
    with pytest.raises(GroupError, match="row does not belong to this group"):
        FG.index_of((0, 2))
    assert coordinate_group(V) is FG  # closed once per variety
    assert FG.as_ggroup() is FG.as_ggroup()


def test_coordinate_group_witnesses_evaluate_back():
    from groupspec.variety import _id_structure

    V = variety_of(Z2, 1, [])
    FG = coordinate_group(V)
    for vals, w in zip(FG.rows.tolist(), FG.witnesses):
        assert [evaluate(w, _id_structure(Z2), p) for p in V.points] == vals


def test_coordinate_group_of_point_is_carrier():
    ctx = _ctx(A5, 1)
    V = variety_of(A5, 1, [parse_word(ctx, "X1")])
    assert V.points == ((0,),)
    FG = coordinate_group(V)
    assert len(FG) == 60


def test_maximality_collapse_and_strictness():
    cert = maximality_probe(S3, 1, (1,), Subgroup(S3, (0,)))
    assert cert.kind == "collapse"
    A3 = next(N for N in normal_subgroups(S3) if len(N) == 3)
    x = next(i for i in range(6) if S3.element_order(i) == 3)
    cert = maximality_probe(S3, 1, (x,), A3)
    assert cert.kind == "strictness"
    from groupspec.variety import _id_structure

    w_in = cert.data["in_IN_not_Ix"]
    assert evaluate(w_in, _id_structure(S3), (x,)) != 0


def test_maximality_factorization_simple_group():
    from groupspec.variety import _id_structure

    ctx = _ctx(A5, 1)
    x = next(i for i in range(1, 60) if A5.element_order(i) == 5)
    probe = parse_word(ctx, "X1")
    cert = maximality_probe(A5, 1, (x,), Subgroup(A5, range(60)), probe=probe)
    assert cert.kind == "factorization"
    Q, target, left = cert.data["Q"], cert.data["target"], cert.data["left_in_Ix"]
    struct = _id_structure(A5)
    assert evaluate(Q, struct, (x,)) == evaluate(target, struct, (x,))
    assert evaluate(left, struct, (x,)) == 0


def test_factorization_rejects_vanishing_probe():
    ctx = _ctx(A5, 1)
    with pytest.raises(VarietyError):
        maximality_probe(A5, 1, (0,), Subgroup(A5, range(60)), probe=parse_word(ctx, "X1"))


def test_zariski_closed_sets_lattice():
    sets = zariski_space(Z2, 1, "t2", probe_len=3).closed_sets
    space = frozenset({(0,), (1,)})
    assert frozenset() in sets and space in sets
    for a in sets:
        for b in sets:
            assert a & b in frozenset(sets) and a | b in frozenset(sets)


def test_zariski_requires_integral():
    with pytest.raises(VarietyError):
        zariski_space(Z2, 1, "t1")


def test_hom_correspondence_line_to_line():
    V = variety_of(Z2, 1, [])
    corr = hom_variety_correspondence(V, V, "t2")
    assert len(corr.variety_morphisms) == 4
    assert len(corr.g_morphisms) == 4
    # a and b are mutually inverse bijections
    assert sorted(corr.a_table) == sorted(corr.b_table.values())
    for vi, mi in corr.a_table.items():
        assert corr.b_table[mi] == vi


def test_hom_correspondence_line_to_point():
    ctx = _ctx(Z2, 1)
    V = variety_of(Z2, 1, [])
    P = variety_of(Z2, 1, [parse_word(ctx, "X1")])
    corr = hom_variety_correspondence(V, P, "t2")
    assert len(corr.variety_morphisms) == 1
    assert len(corr.g_morphisms) == 1


def test_hom_correspondence_keeps_only_maps_that_pull_functions_back():
    """On the square roots of 1 in S3 every self-map is continuous, but only
    40 of the 256 pull every regular function back to a regular one."""
    V = variety_of(S3, 1, [parse_word(_ctx(S3, 1), "X1^2")])
    elements, _ = naive_coordinate_group(V)
    regular = set(elements)
    want = [
        images for images in itertools.product(V.points, repeat=len(V.points))
        if all(tuple(f[V.points.index(q)] for q in images) in regular for f in elements)
    ]
    corr = hom_variety_correspondence(V, V, "t2")
    assert list(corr.variety_morphisms) == want and len(want) == 40
    assert len(corr.g_morphisms) == 40


def _same_function_group(F, want):
    elements, witnesses = want
    assert list(map(tuple, F.rows.tolist())) == list(elements)
    assert [w.syllables for w in F.witnesses] == [witnesses[v].syllables for v in elements]


def test_coordinate_group_matches_naive_closure_on_audit_varieties(monkeypatch):
    """Every variety the prop3.x suites build, on both catalogs: the same
    elements and the same witness words as the one-product-at-a-time
    closure."""
    from groupspec import checks, variety

    built = []

    def keep(V):
        built.append(V)
        return coordinate_group(V)

    monkeypatch.setattr(variety, "coordinate_group", keep)
    monkeypatch.setattr(checks, "coordinate_group", keep)
    for cat in ("small", "large"):
        for suite in ("prop3.1", "prop3.2", "prop3.3", "prop3.4", "prop3.5"):
            checks.run_suite(suite, cat)
    assert len(built) > 20
    for V in built:
        _same_function_group(coordinate_group(V), naive_coordinate_group(V))


def test_coordinate_group_matches_naive_closure_on_point_sets():
    rng = random.Random(7)
    for G in [obj.carrier for _, obj in small_catalog()] + [A5]:
        for nvars in (1, 2):
            space = list(itertools.product(range(G.order), repeat=nvars))
            for k in (1, 2) if G.order > 24 else (1, 2, 3):  # A5^3 passes the cap
                V = VarietySet(G, nvars, (), tuple(sorted(rng.sample(space, min(k, len(space))))))
                _same_function_group(coordinate_group(V), naive_coordinate_group(V))
        V = variety_of(G, 0, [])  # the one empty point
        _same_function_group(coordinate_group(V), naive_coordinate_group(V))


def test_coordinate_group_keeps_the_closure_cap(monkeypatch):
    from groupspec import variety

    line = variety_of(cyclic(3), 1, [])  # all 9 maps of 3 points into Z3
    monkeypatch.setattr(variety, "CLOSURE_CAP", 9)
    assert len(coordinate_group(line)) == 9
    monkeypatch.setattr(variety, "CLOSURE_CAP", 8)
    with pytest.raises(VarietyError, match="function-group closure exceeded cap 8"):
        coordinate_group(variety_of(cyclic(3), 1, []))  # a fresh one: line keeps its group
    monkeypatch.setattr(variety, "CLOSURE_CAP", 2)  # below the constants alone
    with pytest.raises(VarietyError, match="function-group closure exceeded cap 2"):
        coordinate_group(VarietySet(cyclic(3), 1, (), ((0,),)))


def test_coordinate_group_of_the_trivial_group():
    T = cyclic(1)
    for n in (0, 2):
        V = variety_of(T, n, [])
        assert V.points == ((0,) * n,)
        F = coordinate_group(V)
        assert F.rows.tolist() == [[0]]
        _same_function_group(F, naive_coordinate_group(V))


def test_coordinate_group_with_constant_coordinates():
    """Coordinates that are constants add no coset to the constants."""
    for V in (VarietySet(S3, 2, (), ((1, 2),)), variety_of(A5, 1, [parse_word(_ctx(A5, 1), "X1")])):
        F = coordinate_group(V)
        assert F.rows.tolist() == [[g] for g in range(V.group.order)]
        _same_function_group(F, naive_coordinate_group(V))


def test_witness_search_across_gather_blocks(monkeypatch):
    """Gathers of a few products each walk every frontier in many blocks and
    must give the same words as the one-product-at-a-time closure."""
    from groupspec import variety

    monkeypatch.setattr(variety, "GATHER_CAP", 40)
    square = parse_word(_ctx(S3, 1), "X1^2")
    for V in (variety_of(S3, 1, []), variety_of(S3, 1, [square]), variety_of(cyclic(4), 2, []),
              VarietySet(A5, 1, (), ((1,), (7,)))):
        _same_function_group(coordinate_group(V), naive_coordinate_group(V))


def test_single_points_of_large_groups_close_to_the_carrier():
    for G in (alternating(7), symmetric(7)):
        F = coordinate_group(VarietySet(G, 1, (), ((1,),)))
        assert np.array_equal(F.rows, np.arange(G.order)[:, None])


def test_variety_of_refuses_past_the_point_cap(monkeypatch):
    from groupspec import variety

    monkeypatch.setattr(variety, "POINT_CAP", 8)
    assert len(variety_of(Z2, 3, [])) == 8
    for G, n in ((Z2, 4), (S3, 2), (cyclic(1), 9)):
        with pytest.raises(VarietyError, match=f"\\^{n} is too large to enumerate: the point cap is 8"):
            variety_of(G, n, [])
