"""Differential test against sympy's permutation groups, a second oracle
written independently of groupspec.  Only orders and normality flags are
compared, so the two libraries' product conventions do not matter."""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup  # noqa: E402

from groupspec.fingroup import (  # noqa: E402
    Subgroup,
    alternating,
    commutator_subgroup,
    from_permutations,
    is_simple,
    normal_closure,
    parse_perm_text,
    symmetric,
)


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(g) for g in gens]


def _label(p: Permutation) -> str:
    """Cycle notation as groupspec labels permutations (1-based, e = identity)."""
    return "".join("(" + " ".join(str(k + 1) for k in c) + ")" for c in p.cyclic_form) or "e"


def _permutation(label: str, degree: int) -> Permutation:
    """The permutation of a groupspec label."""
    cycles = [] if label == "e" else label[1:-1].split(")(")
    return Permutation([[int(k) - 1 for k in c.split()] for c in cycles], size=degree)


@given(permutation_generators())
@settings(max_examples=60, deadline=None)
def test_permutation_groups_match_sympy(case):
    degree, gens = case
    H = from_permutations(degree, gens)
    perms = [Permutation(list(g)) for g in gens]
    P = PermutationGroup(perms)
    assert H.order == P.order()
    assert sorted(H.labels) == sorted(_label(p) for p in P.elements)
    whole = Subgroup(H, range(H.order))
    assert len(commutator_subgroup(H, whole, whole)) == P.derived_subgroup().order()
    for g in perms:
        x = H.labels.index(_label(g))
        assert len(normal_closure(H, [x])) == P.normal_closure(g).order()
        assert H.generated_subgroup([x]).is_normal() == PermutationGroup([g]).is_normal(P)
    if len(perms) > 1:
        rest = perms[1:]
        sub = H.generated_subgroup([H.labels.index(_label(g)) for g in rest])
        assert sub.is_normal() == PermutationGroup(rest).is_normal(P)
        assert len(normal_closure(H, sub.members)) == P.normal_closure(PermutationGroup(rest)).order()


@given(permutation_generators(), st.data())
@settings(max_examples=60, deadline=None)
def test_generated_subgroup_orders_match_sympy(case, data):
    degree, gens = case
    H = from_permutations(degree, gens)
    P = PermutationGroup([Permutation(list(g)) for g in gens])
    index = {label: i for i, label in enumerate(H.labels)}
    elements = sorted(P.elements, key=_label)
    drawn = data.draw(st.lists(st.sampled_from(elements), max_size=4))
    sub = H.generated_subgroup(index[_label(p)] for p in drawn)
    want = PermutationGroup(drawn).order() if drawn else 1
    assert len(sub) == want


@pytest.mark.parametrize("build, sympy_group, simple", [
    (lambda: parse_perm_text("perm 7: (1 2 3 4 5 6 7); (1 2)(3 6)"),
     lambda: PermutationGroup([Permutation([1, 2, 3, 4, 5, 6, 0]), Permutation([1, 0, 5, 3, 4, 2, 6])]),
     True),
    (lambda: alternating(7), lambda: AlternatingGroup(7), True),
    (lambda: symmetric(7), lambda: SymmetricGroup(7), None),
], ids=["PSL(2,7)", "A7", "S7"])
def test_degree_seven_groups_match_sympy(build, sympy_group, simple):
    H, P = build(), sympy_group()
    assert H.order == P.order()
    whole = Subgroup(H, range(H.order))
    assert len(commutator_subgroup(H, whole, whole)) == P.derived_subgroup().order()
    if simple is not None:
        # simple: every class but the identity's has the whole group as its
        # normal closure (this sympy has no is_simple)
        reps = [H.labels[int(c[0])] for c in H.conjugacy_classes() if H.id not in c]
        closures = [P.normal_closure(_permutation(label, 7)).order() for label in reps]
        assert is_simple(H) == all(k == P.order() for k in closures) == simple
