import importlib.util
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec.catalog import small_catalog
from groupspec.dsl import parse_program, run_program
from groupspec.fingroup import (
    Homomorphism,
    alternating,
    cyclic,
    direct_product,
    normal_subgroups,
    quotient,
    Subgroup,
    symmetric,
)
from groupspec.gobject import GGroup, GMorphism, identity_object
from groupspec.spectrum import Ideal, Spectrum, quotient_object, spectrum, whole_radical
from groupspec.sheaf import (
    AffineScheme,
    GluedScheme,
    Scheme,
    SchemeMorphism,
    SchemeSection,
    SectionGroup,
    SheafError,
    affine_scheme,
    check_sheaf_axioms,
    embed_quotient,
    global_sections_vs_quotient,
    glue,
    induced_morphism,
    noetherian_sections,
    point_vanishing_ideal,
    restrictions_are_isomorphisms,
    scheme_hom_correspondence,
)

from oracles import (
    naive_induced_point_map,
    naive_induced_push,
    naive_morphism_check,
    naive_pullback,
    naive_section_group,
)

S5 = symmetric(5)
A5 = alternating(5)
Z2 = cyclic(2)


def _s5_scheme():
    return AffineScheme(spectrum(identity_object(S5, "S5"), "t2"))


def _glued_examples():
    """The gluings exercised below: a doubled point, a whole-space gluing
    and a disjoint union."""
    a5 = AffineScheme(spectrum(identity_object(A5, "A5"), "t1"))
    return [
        glue(_s5_scheme(), _s5_scheme(), frozenset({0}), frozenset({0})),
        glue(_s5_scheme(), _s5_scheme(), frozenset({0, 1}), frozenset({0, 1})),
        glue(a5, a5, frozenset(), frozenset()),
    ]


def _pairs(s):
    """A section's row as the oracle's repr-sorted (point, coset) pairs."""
    return tuple(sorted(zip(sorted(s.open_set), s.values), key=lambda kv: repr(kv[0])))


@pytest.mark.parametrize("variant", ["t1", "t2"])
@pytest.mark.parametrize("prime_def", ["elementwise", "quotient"])
def test_section_groups_match_naive_oracle(variant, prime_def):
    for name, obj in small_catalog():
        X = AffineScheme(spectrum(obj, variant, prime_def))
        for U in X.opens():
            G, want = X.section_group(U), naive_section_group(X, U)
            assert [_pairs(s) for s in G.elements] == [v for v, _ in want], (name, sorted(U))


def test_glued_section_groups_match_naive_oracle():
    for D in _glued_examples():
        assert isinstance(D, Scheme) and isinstance(D.X1, Scheme)
        want = {W: [v for v, _ in naive_section_group(D, W)] for W in D.opens()}
        for W in D.opens():
            G = D.section_group(W)
            assert [_pairs(s) for s in G.elements] == want[W], sorted(W, key=repr)
            # restriction selects the oracle's columns and lands on its rows
            for V in D.opens():
                if not V <= W:
                    continue
                down = [tuple(kv for kv in row if kv[0] in V) for row in want[W]]
                assert [_pairs(D.restrict(s, V)) for s in G.elements] == down, sorted(V, key=repr)
                idx = G.restriction_indices(D.section_group(V))
                assert [want[V][i] for i in idx] == down, sorted(V, key=repr)


def test_glued_opens_match_subset_enumeration():
    for D in _glued_examples():
        opens1, opens2 = set(D.X1.opens()), set(D.X2.opens())
        pm = {p: p for p in D.U}
        brute = []
        for r in range(len(D.points) + 1):
            for W in itertools.combinations(D.points, r):
                left = frozenset(p for side, p in W if side == "L")
                right = frozenset(q for side, q in W if side == "R") | {
                    pm[p] for p in left if p in pm
                }
                if left in opens1 and right in opens2:
                    brute.append(frozenset(W))
                assert D.is_open(W) == (left in opens1 and right in opens2)
        brute.sort(key=lambda w: (len(w), repr(sorted(w, key=repr))))
        assert D.opens() == brute
        for pt in D.points:
            assert D.minimal_open(pt) == frozenset.intersection(*[W for W in brute if pt in W])


def test_global_sections_of_s5():
    X = _s5_scheme()
    G = X.section_group(frozenset(X.points))
    assert len(G) == 120


def test_sections_over_generic_point_only():
    X = _s5_scheme()
    G = X.section_group(frozenset({0}))
    assert len(G) == 120


def test_stalks_bijective_for_s5():
    X = _s5_scheme()
    for p in X.points:
        group, report = X.stalk(p)
        assert report["surjective"] and report["injective"]
        from groupspec.spectrum import point_radical

        assert len(group) == quotient(S5, point_radical(X.spectrum, p)).table.order


def _glued_sweep():
    """Each small-catalog object under every definition glued to itself
    along the empty open, each minimal open and the whole space, and S5's
    two t2 spectra glued to each other.  Where the opens are not closed
    under intersections (V4, D4 and Q8 under t2 with quotient primes) most
    minimal opens are not open, so those glue along every open instead."""
    for name, obj in small_catalog():
        for variant in ("t1", "t2"):
            for prime_def in ("elementwise", "quotient"):
                X = AffineScheme(spectrum(obj, variant, prime_def))
                along = {frozenset(), frozenset(X.points)} | {X.minimal_open(p) for p in X.points}
                if not all(X.is_open(U) for U in along):
                    along = set(X.opens())
                for U in sorted(along, key=sorted):
                    yield f"{name},{variant},{prime_def},{sorted(U)}", glue(X, X, U, U)
    s5 = identity_object(S5, "S5")
    X1, X2 = (AffineScheme(spectrum(s5, "t2", d)) for d in ("elementwise", "quotient"))
    yield "S5,t2,elementwise|quotient", glue(X1, X2, {0}, {0})


def test_glued_sweep_matches_naive_oracle():
    for name, D in _glued_sweep():
        for W in D.opens():
            G, want = D.section_group(W), naive_section_group(D, W)
            assert [_pairs(s) for s in G.elements] == [v for v, _ in want], (name, sorted(W))
        assert check_sheaf_axioms(D)["minimal_covers"] == len(D.opens()) - 1, name
        assert D.section_group(frozenset(D.points)).as_ggroup().carrier.order > 0, name


def test_stalk_rejects_missing_points():
    with pytest.raises(SheafError, match="no point 9"):
        _s5_scheme().stalk(9)
    empty = AffineScheme(spectrum(identity_object(symmetric(3), "S3"), "t1"))
    assert empty.points == ()
    with pytest.raises(SheafError, match="no point 0"):
        empty.stalk(0)


def test_glued_minimal_open_rejects_missing_points():
    D = glue(_s5_scheme(), _s5_scheme(), frozenset({0}), frozenset({0}))
    assert D.minimal_open(("L", 0)) <= frozenset(D.points)
    for missing in [("L", 99), ("R", 0), 0]:
        with pytest.raises(SheafError, match=re.escape(f"no point {missing!r}")):
            D.minimal_open(missing)


def test_sheaf_axioms_on_catalog_examples():
    for obj, variant in [
        (identity_object(S5, "S5"), "t2"),
        (identity_object(A5, "A5"), "t1"),
        (identity_object(cyclic(4), "Z4"), "t2"),
    ]:
        report = check_sheaf_axioms(AffineScheme(spectrum(obj, variant)))
        assert report["minimal_covers"] > 0


def test_sheaf_axioms_catch_wrong_section_groups():
    """Z6 under t2 has opens {0}, {1} and the whole space, one pair cover."""
    def scheme_with(U, rows_of):
        X = AffineScheme(spectrum(identity_object(cyclic(6), "Z6"), "t2"))
        assert check_sheaf_axioms(X) == {"pair_covers": 1, "minimal_covers": 3}
        X._sections[U] = SectionGroup(X, U, rows_of(X.section_group(U).rows))
        return X

    missing = scheme_with(frozenset({0, 1}), lambda rows: rows[1:])
    with pytest.raises(SheafError, match=re.escape("gluing axiom fails on [0, 1] = [0] | [1]")):
        check_sheaf_axioms(missing)
    doubled = scheme_with(frozenset({0}), lambda rows: rows.repeat(2, axis=0))
    with pytest.raises(SheafError, match="identity axiom fails on the minimal-open cover"):
        check_sheaf_axioms(doubled)


def test_disjoint_components_product_sections():
    obj = identity_object(direct_product(A5, A5), "A5xA5")
    X = AffineScheme(spectrum(obj, "t1"))
    assert len(X.section_group(frozenset(X.points))) == 3600


def test_global_sections_vs_quotient_hypothesis():
    rep = global_sections_vs_quotient(spectrum(identity_object(S5, "S5"), "t2"))
    assert rep["hypothesis"] and rep["isomorphic"]
    rep = global_sections_vs_quotient(
        spectrum(identity_object(direct_product(A5, A5), "A5xA5"), "t1")
    )
    assert not rep["hypothesis"]


def test_restrictions_isomorphisms_irreducible():
    assert restrictions_are_isomorphisms(spectrum(identity_object(A5, "A5"), "t1"))
    with pytest.raises(SheafError):
        restrictions_are_isomorphisms(
            spectrum(identity_object(direct_product(A5, A5), "A5xA5"), "t1")
        )


def test_noetherian_sections_iso():
    for obj, variant in [
        (identity_object(S5, "S5"), "t2"),
        (identity_object(direct_product(A5, A5), "A5xA5"), "t1"),
    ]:
        rep = noetherian_sections(spectrum(obj, variant))
        assert rep["isomorphic_to_sections"], rep


def test_point_vanishing_ideal_is_prime_elementwise():
    X = _s5_scheme()
    G = X.section_group(frozenset(X.points))
    I = point_vanishing_ideal(G, 1)
    from groupspec.spectrum import is_prime

    assert is_prime(I.object, I, "t2", "elementwise")


def test_induced_morphism_quotient_s5():
    obj = identity_object(S5, "S5")
    a5 = next(N for N in normal_subgroups(S5) if len(N) == 60)
    qobj, q = quotient_object(obj, a5)
    m = induced_morphism(GMorphism(obj, qobj, q.projection), "t2")
    # the single prime of Spec(S5/A5) pulls back to A5, the closed point
    assert m.point_map == {0: 1}


def test_induced_morphism_z4_to_z2():
    Z4 = cyclic(4)
    obj = identity_object(Z4, "Z4")
    two = next(N for N in normal_subgroups(Z4) if len(N) == 2)
    qobj, q = quotient_object(obj, two)
    m = induced_morphism(GMorphism(obj, qobj, q.projection), "t2")
    assert m.point_map == {0: 1}


def test_induced_identity_is_identity():
    obj = identity_object(S5, "S5")
    m = induced_morphism(GMorphism(obj, obj, Homomorphism.identity(S5)), "t2")
    assert m.point_map == {p: p for p in m.point_map}


def test_embed_quotient_flags():
    obj = identity_object(S5, "S5")
    a5 = next(N for N in normal_subgroups(S5) if len(N) == 60)
    m, iso = embed_quotient(obj, Ideal(obj, a5), "t2")
    assert not iso  # A5 is not the radical of Spec2(S5)
    trivial = next(N for N in normal_subgroups(S5) if len(N) == 1)
    m, iso = embed_quotient(obj, Ideal(obj, trivial), "t2")
    assert iso
    prod = identity_object(direct_product(A5, A5), "A5xA5")
    triv2 = next(N for N in normal_subgroups(prod.carrier) if len(N) == 1)
    m, iso = embed_quotient(prod, Ideal(prod, triv2), "t1")
    assert iso  # here the radical is trivial


def test_glue_doubled_point():
    X1 = _s5_scheme()
    X2 = _s5_scheme()
    U = frozenset({0})
    D = glue(X1, X2, U, U)
    assert len(D.points) == 3
    assert len(D.section_group(frozenset(D.points))) == 120
    assert check_sheaf_axioms(D)["minimal_covers"] > 0


def test_glue_whole_gives_single_copy():
    X1 = _s5_scheme()
    X2 = _s5_scheme()
    whole = frozenset(X1.points)
    D = glue(X1, X2, whole, whole)
    assert len(D.points) == 2
    assert len(D.section_group(frozenset(D.points))) == 120


def test_glue_empty_gives_disjoint_union():
    X = AffineScheme(spectrum(identity_object(A5, "A5"), "t1"))
    D = glue(X, X, frozenset(), frozenset())
    assert len(D.points) == 2
    assert len(D.section_group(frozenset(D.points))) == 3600


def test_scheme_hom_correspondence_affine_and_glued():
    obj = identity_object(S5, "S5")
    X = _s5_scheme()
    rep = scheme_hom_correspondence(X, obj, "t2")
    assert rep["hom_count"] == 1 and rep["all_identity"]
    D = glue(_s5_scheme(), _s5_scheme(), frozenset({0}), frozenset({0}))
    rep = scheme_hom_correspondence(D, obj, "t2")
    assert rep["hom_count"] == 1 and rep["all_identity"]
    # the unique morphism collapses the doubled closed point
    pm = rep["Psi"](0).point_map
    assert pm[("L", 1)] == pm[("R", 1)]


def _glue_rejections():
    """One input per check of glue, with the message it must raise."""
    S = _s5_scheme()
    Z3 = cyclic(3)
    t, c = S5.labels.index("(1 2)"), S5.labels.index("(1 2 3)")
    over_z2 = GGroup(Z2, S5, Homomorphism(Z2, S5, [S5.id, t]))
    over_z3 = GGroup(Z3, S5, Homomorphism(Z3, S5, [S5.id, c, int(S5.mul[c, c])]))
    # S4 acting on itself by conjugation by (3 4): same carrier, primes and base
    S4 = symmetric(4)
    u = S4.labels.index("(3 4)")
    by_34 = GGroup(S4, S4, Homomorphism(S4, S4, [int(S4.mul[S4.mul[u, g], u]) for g in range(24)]))
    none = frozenset()
    return [
        (S, S, {1}, {1}, "gluing opens must be open"),
        (glue(S, S, {0}, {0}), S, none, none, "identity gluing needs two affine schemes"),
        (S, S, {0}, {0, 1}, "identity gluing needs equal spectra and equal opens"),
        (S, AffineScheme(spectrum(identity_object(S5, "S5"), "t1")), none, none,
         "identity gluing needs equal spectra and equal opens"),
        (S, AffineScheme(spectrum(identity_object(A5, "A5"), "t2")), none, none,
         "identity gluing needs equal spectra and equal opens"),
        (AffineScheme(spectrum(over_z2, "t2")), AffineScheme(spectrum(over_z3, "t2")), none, none,
         "gluing schemes over different bases"),
        (AffineScheme(spectrum(identity_object(S4, "S4"), "t2")), AffineScheme(spectrum(by_34, "t2")),
         {0}, {0}, "identity gluing needs equal structure maps"),
    ]


def test_glue_rejects_each_bad_input():
    for X1, X2, U1, U2, message in _glue_rejections():
        with pytest.raises(SheafError, match=f"^{message}$"):
            glue(X1, X2, U1, U2)


# -- morphisms against the per-section oracle ---------------------------------


def _assert_pullbacks_match(m, push):
    """m.pullback(s) has the oracle's row for every section over every open."""
    for U in m.target.opens():
        for s in m.target.section_group(U).elements:
            assert m.pullback(s).values == naive_pullback(m.target, m.point_map, push, s), sorted(U)


def _oracle_error(f, variant, prime_def):
    """The message the per-section oracle raises on f's induced morphism, on
    fresh schemes, or None when it passes."""
    X = AffineScheme(spectrum(f.target, variant, prime_def))
    Y = AffineScheme(spectrum(f.source, variant, prime_def))
    try:
        pm = naive_induced_point_map(f, Y.spectrum, X.spectrum)
        naive_morphism_check(X, Y, pm, naive_induced_push(f, X))
    except SheafError as e:
        return str(e)
    return None


def _check_induced(f, variant, prime_def, build=None):
    """build() (induced_morphism by default) succeeds exactly where the oracle
    does, with the oracle's pullbacks, and raises its message elsewhere."""
    build = build or (lambda: induced_morphism(f, variant, prime_def))
    want = _oracle_error(f, variant, prime_def)
    if want is not None:
        with pytest.raises(SheafError, match=f"^{re.escape(want)}$"):
            build()
        return None
    out = build()
    m = out[0] if isinstance(out, tuple) else out
    _assert_pullbacks_match(m, naive_induced_push(f, m.source))
    return m


@pytest.mark.parametrize("variant", ["t1", "t2"])
@pytest.mark.parametrize("prime_def", ["elementwise", "quotient"])
def test_identity_morphisms_match_oracle(variant, prime_def):
    for name, obj in small_catalog():
        f = GMorphism(obj, obj, Homomorphism.identity(obj.carrier))
        m = _check_induced(f, variant, prime_def)
        if m is not None:
            assert m.source is m.target, name
            assert m.point_map == {p: p for p in m.source.points}, name


@pytest.mark.parametrize("variant", ["t1", "t2"])
@pytest.mark.parametrize("prime_def", ["elementwise", "quotient"])
def test_embed_quotient_matches_oracle(variant, prime_def):
    for name, obj in small_catalog():
        for N in normal_subgroups(obj.carrier)[:-1]:
            qobj, q = quotient_object(obj, N)
            f = GMorphism(obj, qobj, q.projection)
            _check_induced(
                f, variant, prime_def,
                lambda: embed_quotient(obj, Ideal(obj, N), variant, prime_def),
            )


def test_z4_to_z2_matches_oracle():
    obj = identity_object(cyclic(4), "Z4")
    two = next(N for N in normal_subgroups(obj.carrier) if len(N) == 2)
    qobj, q = quotient_object(obj, two)
    m = _check_induced(GMorphism(obj, qobj, q.projection), "t2", "elementwise")
    assert m.point_map == {0: 1}


def _thm5_1_cases():
    """The three scheme_hom_correspondence cases of the thm5.1 suite."""
    s5 = identity_object(S5, "S5")
    X = affine_scheme(spectrum(s5, "t2"))
    gen = X.minimal_open(0)
    z2 = identity_object(Z2, "Z2")
    return [(X, s5), (glue(X, X, gen, gen), s5), (affine_scheme(spectrum(z2, "t2")), z2)]


def test_psi_morphisms_match_oracle():
    for X, obj in _thm5_1_cases():
        rep = scheme_hom_correspondence(X, obj, "t2")
        assert rep["hom_count"] >= 1 and rep["all_identity"]
        rad = whole_radical(spectrum(obj, "t2"))
        proj = (lambda h: h) if rad.is_trivial() else quotient(obj.carrier, rad).projection
        GX = X.section_group(frozenset(X.points))
        for vi, v in enumerate(rep["homs"]):
            m = rep["Psi"](vi)

            def push(p, h, v=v):
                return GX.elements[v(proj(h))].value_at(p)

            naive_morphism_check(m.source, m.target, m.point_map, push)
            _assert_pullbacks_match(m, push)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_restriction_squares_commute_for_any_coset_maps(data):
    """Pulling back then restricting equals restricting then pulling back,
    whatever coset maps a morphism carries: why verify checks no squares."""
    name, obj = data.draw(st.sampled_from(small_catalog()))
    m = induced_morphism(GMorphism(obj, obj, Homomorphism.identity(obj.carrier)), "t2")
    maps = {
        p: np.array(data.draw(st.lists(
            st.integers(0, m.source.point_quotient(p).table.order - 1),
            min_size=m.target.point_quotient(q).table.order,
            max_size=m.target.point_quotient(q).table.order,
        )), dtype=np.int64)
        for p, q in m.point_map.items()
    }
    f = SchemeMorphism(m.source, m.target, m.point_map, maps)
    opens = m.target.opens()
    for U in opens:
        rows = m.target.section_group(U).rows
        pulled = f._pull(rows, U)
        W = sorted(f.preimage(U))
        for V in opens:
            if V < U:
                down = f._pull(rows[:, [sorted(U).index(q) for q in sorted(V)]], V)
                up = pulled[:, [W.index(p) for p in sorted(f.preimage(V))]]
                assert np.array_equal(down, up), (name, sorted(U), sorted(V))


def test_one_spectrum_and_one_scheme_per_object():
    for name, obj in small_catalog():
        for variant in ("t1", "t2"):
            for prime_def in ("elementwise", "quotient"):
                sp = spectrum(obj, variant, prime_def)
                assert spectrum(obj, variant, prime_def) is sp, name
                assert affine_scheme(sp) is affine_scheme(sp), name
    assert AffineScheme(sp) is not affine_scheme(sp)  # direct construction still works


# -- the row array and its key index ----------------------------------------


def _schemes_program(seed: int) -> str:
    """The benchmark's seeded `schemes` DSL program."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("groupspec_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_input("schemes", seed)


def _program_section_groups(interp):
    """Every section group the program's schemes built."""
    schemes = [affine_scheme(v) for v in interp.env.values() if isinstance(v, Spectrum)]
    schemes += [v for v in interp.env.values() if isinstance(v, GluedScheme)]
    return [G for X in schemes for G in list(X._sections.values())]


def _check_locate_against_dict(G):
    """locate and index_of on the group's rows and on each row with one
    column moved to another coset, against a dict of row tuples."""
    where = {row: i for i, row in enumerate(map(tuple, G.rows.tolist()))}
    assert G.locate(G.rows).tolist() == list(range(len(G)))
    probes = [G.rows]
    for c, p in enumerate(sorted(G.open_set)):
        moved = G.rows.copy()
        moved[:, c] = (moved[:, c] + 1) % G.scheme.point_quotient(p).table.order
        probes.append(moved)
    rows = np.concatenate(probes)
    want = [where.get(row, -1) for row in map(tuple, rows.tolist())]
    assert G.locate(rows).tolist() == want
    for row, i in itertools.islice(zip(map(tuple, rows.tolist()), want), 0, None, 7):
        s = SchemeSection(G.open_set, row)
        if i < 0:
            with pytest.raises(SheafError, match="section does not belong to this group"):
                G.index_of(s)
        else:
            assert G.index_of(s) == i
    # a row of another width is no section
    assert G.locate(np.zeros((2, len(G.open_set) + 1), dtype=np.int64)).tolist() == [-1, -1]


def test_locate_matches_a_dict_of_rows_on_the_schemes_program():
    interp = run_program(_schemes_program(1))
    groups = _program_section_groups(interp)
    assert len(groups) > 50
    for G in groups:
        _check_locate_against_dict(G)


def test_locate_on_the_empty_open():
    for X in [_s5_scheme(), *_glued_examples()]:
        G = X.section_group(frozenset())
        assert G.rows.shape == (1, 0) and len(G) == 1
        assert G.locate(np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]
        assert G.index_of(SchemeSection(frozenset(), ())) == 0
        assert G.locate(np.zeros((1, 1), dtype=np.int64)).tolist() == [-1]
        with pytest.raises(SheafError, match="section does not belong to this group"):
            G.index_of(SchemeSection(frozenset(), (0,)))
        assert G.as_ggroup().carrier.order == 1


def test_element_rows_match_section_from_element():
    schemes = [AffineScheme(spectrum(obj, "t2")) for _, obj in small_catalog()]
    for X in schemes + _glued_examples():
        hs = list(range(X.structure.target.order))
        for U in X.opens():
            rows = X.element_rows(U, hs)
            assert rows.shape == (len(hs), len(U))
            assert [tuple(r) for r in rows.tolist()] == [X.section_from_element(U, h).values for h in hs]
            assert X.element_rows(U, hs[::-1]).tolist() == rows[::-1].tolist()


def test_statements_build_no_section_objects(monkeypatch):
    """sections, morphism, stalk and export work on rows alone: the seed-1
    program runs, with the same transcript, while building a SchemeSection
    raises."""
    text = _schemes_program(1)
    want = run_program(text).outputs

    def refuse(self, *args, **kwargs):
        raise AssertionError("a SchemeSection was built")

    monkeypatch.setattr(SchemeSection, "__init__", refuse)
    kinds = {st.kind for st in parse_program(text).statements}
    assert {"sections", "morphism", "stalk", "export"} <= kinds
    assert run_program(text).outputs == want
