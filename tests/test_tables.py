"""Pointwise Cayley tables of section groups and function groups against
brute-force tables built from the oracles' element lists."""

import numpy as np
import pytest

from groupspec.catalog import small_catalog
from groupspec.fingroup import GroupError, alternating, cyclic, pointwise_table, symmetric
from groupspec.freeprod import WordContext, parse_word
from groupspec.gobject import identity_object
from groupspec.sheaf import (
    SECTION_TABLE_CAP,
    AffineScheme,
    SectionGroup,
    SheafError,
    glue,
)
from groupspec.spectrum import spectrum
from groupspec.variety import FunctionGroup, coordinate_group, variety_of

from oracles import naive_function_table, naive_section_table, per_row_pointwise_table


def _scheme(G, name, variant):
    return AffineScheme(spectrum(identity_object(G, name), variant))


@pytest.mark.parametrize("variant", ["t1", "t2"])
@pytest.mark.parametrize("prime_def", ["elementwise", "quotient"])
def test_section_tables_match_naive_oracle(variant, prime_def):
    for name, obj in small_catalog():
        X = AffineScheme(spectrum(obj, variant, prime_def))
        for U in X.space.opens:
            G = X.section_group(U)
            if len(G) <= SECTION_TABLE_CAP:
                got = G.as_ggroup().carrier.mul.tolist()
                assert got == naive_section_table(X, U), (name, sorted(U))


def test_glued_section_tables_match_naive_oracle():
    S5, A5 = symmetric(5), alternating(5)
    examples = [
        glue(_scheme(S5, "S5", "t2"), _scheme(S5, "S5", "t2"), frozenset({0}), frozenset({0})),
        glue(_scheme(S5, "S5", "t2"), _scheme(S5, "S5", "t2"), frozenset({0, 1}), frozenset({0, 1})),
        glue(_scheme(A5, "A5", "t1"), _scheme(A5, "A5", "t1"), frozenset(), frozenset()),
    ]
    checked = 0
    for D in examples:
        for W in D.space.opens:
            G = D.section_group(W)
            if len(G) <= SECTION_TABLE_CAP:
                got = G.as_ggroup().carrier.mul.tolist()
                assert got == naive_section_table(D, W), sorted(W, key=repr)
                checked += 1
    assert checked > 10


def test_function_group_tables_match_naive_oracle():
    S3, Z4 = symmetric(3), cyclic(4)
    square = parse_word(WordContext(S3, 1), "X1^2")
    commute = parse_word(WordContext(Z4, 2), "X1*X2*X1^-1*X2^-1")
    for V in (variety_of(S3, 1, [square]), variety_of(Z4, 2, [commute])):
        F = coordinate_group(V)
        assert len(F) > 1
        assert F.as_ggroup().carrier.mul.tolist() == naive_function_table(F)


def test_audit_tables_match_the_per_row_builder(monkeypatch):
    """Every section and function table the audits of both catalogs build:
    the same table and dtype as the former builder, which looks up all n
    product rows."""
    from groupspec import checks

    built = {}
    for cls in (SectionGroup, FunctionGroup):

        def keep(self, real=cls.as_ggroup):
            out = real(self)
            built[id(self)] = self
            return out

        monkeypatch.setattr(cls, "as_ggroup", keep)
    for cat in ("small", "large"):
        for suite in checks.SUITES:
            checks.run_suite(suite, cat)
    kinds = {SectionGroup: 0, FunctionGroup: 0}
    for G in built.values():
        if isinstance(G, SectionGroup):
            factors = [G.scheme.point_quotient(p).table for p in sorted(G.open_set)]
        else:
            factors = [G.variety.group] * len(G.variety.points)
        got, want = G.as_ggroup().carrier.mul, per_row_pointwise_table(factors, G.rows)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        kinds[type(G)] += 1
    assert kinds[SectionGroup] > 20 and kinds[FunctionGroup] > 5


def test_products_outside_the_rows_raise():
    Z3 = cyclic(3)
    with pytest.raises(GroupError, match="not a row"):
        pointwise_table([Z3], [(0,), (1,)])
    with pytest.raises(GroupError, match="not a row"):  # no identity
        pointwise_table([Z3], [(1,), (2,)])
    # closed under the first greedy generator (0, 1), not under (1, 0)
    with pytest.raises(GroupError, match="not a row"):
        pointwise_table([Z3, Z3], [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
    assert pointwise_table([], [()]).tolist() == [[0]]
    assert pointwise_table([Z3, Z3], [(0, 0), (1, 2), (2, 1)]).tolist() == [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]
    ]
    X = _scheme(symmetric(5), "S5", "t2")
    whole = frozenset(X.points)
    G = X.section_group(whole)
    table = G.as_ggroup().carrier
    s = next(i for i in range(len(G)) if table.element_order(i) >= 3)
    part = SectionGroup(X, whole, G.rows[[table.id, s]])
    with pytest.raises(SheafError, match="product of sections is not a section"):
        part.as_ggroup()
    F = coordinate_group(variety_of(Z3, 1, []))
    with pytest.raises(GroupError, match="not a row"):
        FunctionGroup(F.variety, F.rows[:2]).as_ggroup()
