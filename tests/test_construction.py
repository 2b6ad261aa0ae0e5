"""Table constructors against the cell-by-cell oracles, and the table cap,
which must refuse an order before anything of its size is built."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupspec import fingroup
from groupspec.catalog import groups
from groupspec.cli import main
from groupspec.fingroup import (
    TABLE_CAP,
    TableCapError,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    parse_cayley_text,
    parse_perm_text,
    quaternion8,
    symmetric,
)

from oracles import (
    naive_cyclic,
    naive_dihedral,
    naive_direct_product,
    naive_perm_closure,
    naive_perm_table,
)


def _same_table(got, want):
    assert np.array_equal(got.mul, want.mul)
    assert got.mul.dtype == want.mul.dtype == np.int16
    assert got.labels == want.labels


def _naive_symmetric(n):
    return naive_perm_table(itertools.permutations(range(n)))


def _naive_alternating(n):
    def even(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    return naive_perm_table(p for p in itertools.permutations(range(n)) if even(p))


def test_symmetric_and_alternating_match_oracle():
    for n in range(0, 7):
        _same_table(symmetric(n), _naive_symmetric(n))
    for n in range(0, 7):
        _same_table(alternating(n), _naive_alternating(n))


def test_cyclic_and_dihedral_match_oracle():
    for n in range(1, 41):
        _same_table(cyclic(n), naive_cyclic(n))
        _same_table(dihedral(n), naive_dihedral(n))


def test_catalog_groups_match_oracle():
    naive = {
        "Z2": lambda: naive_cyclic(2),
        "Z3": lambda: naive_cyclic(3),
        "Z4": lambda: naive_cyclic(4),
        "V4": lambda: naive_direct_product(naive_cyclic(2), naive_cyclic(2)),
        "S3": lambda: _naive_symmetric(3),
        "D4": lambda: naive_dihedral(4),
        "Q8": quaternion8,  # written out by hand, no constructor loop to compare
        "A4": lambda: _naive_alternating(4),
        "S4": lambda: _naive_symmetric(4),
        "A5": lambda: _naive_alternating(5),
        "S5": lambda: _naive_symmetric(5),
        "A5xA5": lambda: naive_direct_product(_naive_alternating(5), _naive_alternating(5)),
    }
    assert set(naive) == set(groups())
    for name, G in groups().items():
        _same_table(G, naive[name]())


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(g) for g in gens]


@given(permutation_generators())
@settings(max_examples=60, deadline=None)
def test_permutation_groups_match_oracle(case):
    degree, gens = case
    _same_table(from_permutations(degree, gens), naive_perm_table(naive_perm_closure(degree, gens)))


def test_long_cycle_matches_oracle():
    # twenty points: a base-20 key of a row would overflow int64
    cycle = tuple(range(1, 20)) + (0,)
    G = parse_perm_text("perm 20: (" + " ".join(str(k) for k in range(1, 21)) + ")")
    _same_table(G, naive_perm_table(naive_perm_closure(20, [cycle])))
    assert G.order == 20 and G.labels[1] == "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20)"


# -- the table cap ---------------------------------------------------------


@pytest.fixture
def no_building(monkeypatch):
    """Make every way of building a big table fail loudly."""

    def boom(*args, **kwargs):
        raise AssertionError("reached a table allocation")

    for name in ("empty", "zeros", "arange", "array"):
        monkeypatch.setattr(fingroup.np, name, boom)
    monkeypatch.setattr(fingroup.itertools, "permutations", boom)


class _Huge:
    """A stand-in group whose table must never be read."""

    def __init__(self, order, name):
        self.order, self.name = order, name

    @property
    def mul(self):
        raise AssertionError("reached the table of a factor")


def test_cap_refuses_before_building(no_building):
    cases = [
        (lambda: symmetric(9), "S9: order 362880 exceeds the table cap"),
        (lambda: alternating(10), "A10: order 1814400 exceeds the table cap"),
        (lambda: cyclic(TABLE_CAP + 1), f"Z{TABLE_CAP + 1}: order {TABLE_CAP + 1} exceeds"),
        (lambda: dihedral(TABLE_CAP), f"order {2 * TABLE_CAP} exceeds the table cap"),
        (lambda: direct_product(_Huge(200, "A"), _Huge(100, "B")), "AxB: order 20000 exceeds"),
        (lambda: parse_cayley_text("order 20000\n0 1\n"), "table: order 20000 exceeds"),
    ]
    for build, message in cases:
        with pytest.raises(TableCapError, match=message):
            build()


def test_cap_stops_the_permutation_search(no_building):
    # S9 from a 9-cycle and a transposition: the search stops past the cap
    with pytest.raises(TableCapError, match="X: order above the table cap"):
        from_permutations(9, [(1, 2, 3, 4, 5, 6, 7, 8, 0), (1, 0, 2, 3, 4, 5, 6, 7, 8)], name="X")


def test_cap_holds_the_largest_catalog_group():
    assert TABLE_CAP >= groups()["A5xA5"].order
    assert TABLE_CAP >= 5040  # S7


@pytest.mark.parametrize("program", [
    "group X = sym(9)\n",
    "group A = cyclic(200)\ngroup B = cyclic(100)\ngroup X = product(A, B)\n",
    "group X = perm 9: (1 2 3 4 5 6 7 8 9); (1 2)\n",
    "group X = table {path}\n",
])
def test_cli_exits_2_on_a_group_over_the_cap(program, tmp_path, capsys, monkeypatch):
    table = tmp_path / "big.txt"
    table.write_text("order 20000\n0 1\n")
    f = tmp_path / "big.gs"
    f.write_text(program.format(path=table))

    def boom(*args, **kwargs):
        raise AssertionError("reached a table allocation")

    monkeypatch.setattr(fingroup.itertools, "permutations", boom)
    monkeypatch.setattr(fingroup, "_perm_group", boom)
    real = fingroup.direct_product
    # the factors' tables must never be read: the cap refuses first
    monkeypatch.setattr("groupspec.dsl.direct_product",
                        lambda A, B: real(_Huge(A.order, A.name), _Huge(B.order, B.name)))
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "the table cap" in err


# -- table memory ----------------------------------------------------------


def test_tables_are_not_copied(monkeypatch):
    from groupspec import sheaf, variety
    from groupspec.fingroup import GroupTable
    from groupspec.gobject import identity_object
    from groupspec.spectrum import spectrum

    mul = cyclic(12).mul.copy()
    assert np.shares_memory(GroupTable(mul, validate=False).mul, mul)
    built = []

    def keep(factors, rows, *find):
        built.append(fingroup.pointwise_table(factors, rows, *find))
        return built[-1]

    monkeypatch.setattr(sheaf, "pointwise_table", keep)
    monkeypatch.setattr(variety, "pointwise_table", keep)
    X = sheaf.AffineScheme(spectrum(identity_object(symmetric(4), "S4"), "t2"))
    tables = [
        X.section_group(frozenset(X.points)).as_ggroup().carrier.mul,
        variety.coordinate_group(variety.variety_of(cyclic(3), 1, [])).as_ggroup().carrier.mul,
    ]
    assert len(built) == 2
    for table, raw in zip(tables, built):
        assert raw.dtype == np.int16
        assert np.shares_memory(table, raw)


def test_function_group_over_the_cap_refuses_before_building(request):
    from groupspec.variety import FunctionGroup, variety_of

    V = variety_of(cyclic(2), 1, [])
    F = FunctionGroup(V, tuple((i % 2,) for i in range(TABLE_CAP + 1)), {})
    request.getfixturevalue("no_building")
    with pytest.raises(TableCapError, match=f"O\\(Z2\\^1\\): order {TABLE_CAP + 1} exceeds"):
        F.as_ggroup()
