"""Character tables: orthogonality, power-map compatibility, realness.

The orthogonality and indicator sums are recomputed inside the test with
plain cyclotomic arithmetic, so the package's own check functions are not
trusted as the oracle.  Complex conjugation, which the library's cyclotomic
integers do not offer, is the test-side `complex_conjugate`.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetadim.characters as characters
import thetadim.conjugacy as conjugacy
from catalogs import NON_SPHERICAL, RANDOM_PRODUCTS_500, ROUTE_500, SPHERICAL
from oracles import (
    check_column_orthogonality,
    check_degree_sum,
    check_row_orthogonality,
    complex_conjugate,
    real_char_sum,
)
from thetadim.burnside import burnside_dims
from thetadim.characters import (
    CHAR_TABLE_MAX_CELLS,
    CharacterTable,
    _atoms,
    _finish,
    d2_char_formula,
    real_character_sums,
    table_for,
)
from thetadim.closed_forms import closed_dims, spec_from_expr
from thetadim.conjugacy import (
    d1_class_formula,
    square_root_counts,
    twisted_trace_sums,
    z2_orbit_count,
)
from thetadim.cyclo import from_int
from thetadim.expr import parse_group_expr
from thetadim.normal_form import ResourceLimitError, group_order

TABLE_CATALOG = [
    "Z(1)",
    "Z(2)",
    "Z(5)",
    "Z(8)",
    "Z(12)",
    "Dstar(1)",
    "Dstar(2)",
    "Dstar(3)",
    "Dstar(4)",
    "Dstar(5)",
    "Dprime(0,3)",
    "Dprime(1,3)",
    "Dprime(1,5)",
    "Dprime(2,3)",
    "Tprime(1)",
    "Tprime(2)",
    "Tstar",
    "Ostar",
    "Istar",
    "Z(3) x Dstar(2)",
    "Z(5) x Tstar",
]


@pytest.fixture(scope="module", params=TABLE_CATALOG)
def table(request):
    return table_for(request.param)


def test_shape_and_degrees(table):
    cd = table.class_data
    k = cd.num_classes
    assert len(table.row_names) == k
    assert len(table.values) == k
    assert all(len(row) == k for row in table.values)
    assert sum(d * d for d in table.degrees) == cd.order
    for r, row in enumerate(table.values):
        assert row[0] == from_int(table.degrees[r])
        assert table.degrees[r] >= 1


def test_row_orthogonality_recomputed(table):
    cd = table.class_data
    n = cd.order
    k = cd.num_classes
    for r in range(k):
        for s in range(r, k):
            acc = from_int(0)
            for c in range(k):
                a, b = table.values[r][c], table.values[s][c]
                if a and b:
                    acc = acc + cd.sizes[c] * (a * complex_conjugate(b))
            assert acc == from_int(n if r == s else 0), (r, s)


def test_column_orthogonality_recomputed(table):
    cd = table.class_data
    k = cd.num_classes
    for c in range(k):
        for d in range(c, k):
            acc = from_int(0)
            for r in range(k):
                a, b = table.values[r][c], table.values[r][d]
                if a and b:
                    acc = acc + a * complex_conjugate(b)
            want = cd.order // cd.sizes[c] if c == d else 0
            assert acc == from_int(want), (c, d)


def test_rows_respect_inversion(table):
    # a character at an inverse class is the complex conjugate
    cd = table.class_data
    for row in table.values:
        for c in range(cd.num_classes):
            assert row[cd.inverse_class[c]] == complex_conjugate(row[c])


def test_realness_flags_and_indicator(table):
    # Frobenius-Schur: (1/n) sum |C| chi(C^2) is 1, -1, or 0, and it is
    # nonzero exactly for the rows flagged real
    cd = table.class_data
    for r, row in enumerate(table.values):
        assert table.real_rows[r] == all(v == complex_conjugate(v) for v in row)
        acc = from_int(0)
        for c in range(cd.num_classes):
            acc = acc + cd.sizes[c] * row[cd.square_class[c]]
        indicator, rem = divmod(acc.as_int(), cd.order)
        assert rem == 0 and indicator in (-1, 0, 1), (r, acc)
        assert (indicator != 0) == table.real_rows[r]


def test_real_char_sum_recomputed(table):
    cd = table.class_data
    for c in range(cd.num_classes):
        acc = from_int(0)
        for r, row in enumerate(table.values):
            if table.real_rows[r]:
                acc = acc + row[c]
        assert real_char_sum(table, c) == acc.as_int()


def test_package_checks_accept_valid_tables(table):
    check_degree_sum(table)
    check_row_orthogonality(table)
    check_column_orthogonality(table)


def test_table_for_accepts_parsed_expressions():
    a = table_for("Dstar(3)")
    b = table_for(parse_group_expr("dstar( 3 )"))
    assert a.group_name == b.group_name
    assert a.degrees == b.degrees
    assert all(x == y for ra, rb in zip(a.values, b.values) for x, y in zip(ra, rb))


def test_product_table_is_kronecker():
    t1, t2 = table_for("Z(3)"), table_for("Dstar(2)")
    prod = table_for("Z(3) x Dstar(2)")
    k1, k2 = t1.class_data.num_classes, t2.class_data.num_classes
    assert prod.class_data.num_classes == k1 * k2
    for r1 in range(k1):
        for r2 in range(k2):
            row = prod.values[r1 * k2 + r2]
            for c1 in range(k1):
                for c2 in range(k2):
                    assert row[c1 * k2 + c2] == t1.values[r1][c1] * t2.values[r2][c2]
    assert prod.degrees == [d1 * d2 for d1 in t1.degrees for d2 in t2.degrees]


def test_product_table_multiplies_each_pair_of_distinct_values_once(monkeypatch):
    # a family's values are shared objects, so the product of two tables takes
    # one product per pair of distinct value objects, not one per cell
    from thetadim.cyclo import CycloNumber

    def distinct_values(expr):
        return len({id(v) for row in table_for(expr).values for v in row})

    bound = distinct_values("Z(11)") * distinct_values("Dstar(9)")
    calls = []
    real_mul = CycloNumber.__mul__

    def counting(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(CycloNumber, "__mul__", counting)
    table = table_for("Z(11) x Dstar(9)")
    monkeypatch.undo()
    cells = table.class_data.num_classes ** 2
    assert cells == 17424
    assert len(calls) <= bound < cells
    t1, t2 = table_for("Z(11)"), table_for("Dstar(9)")
    k2 = t2.class_data.num_classes
    for r, row in enumerate(table.values):
        row1, row2 = t1.values[r // k2], t2.values[r % k2]
        assert row == [v1 * v2 for v1 in row1 for v2 in row2]


def test_orthogonality_checks_catch_corruption():
    t = table_for("Dstar(2)")
    # swap two non-identity entries of a nontrivial row: degree sum still
    # holds but orthogonality cannot
    values = [list(row) for row in t.values]
    row = values[-1]
    row[1], row[2] = row[2], row[1]
    if row[1] == row[2]:
        pytest.skip("chosen entries coincide")
    corrupt = CharacterTable(
        group_name=t.group_name,
        class_data=t.class_data,
        row_names=list(t.row_names),
        values=[tuple(r) for r in values],
        degrees=list(t.degrees),
        real_rows=list(t.real_rows),
    )
    check_degree_sum(corrupt)
    with pytest.raises(AssertionError):
        check_row_orthogonality(corrupt)
        check_column_orthogonality(corrupt)


KNOWN_D2 = {
    "Z(12)": 7,
    "Dstar(3)": 9,
    "Dstar(4)": 18,
    "Dprime(1,3)": 14,
    "Tprime(2)": 21,
    "Tstar": 9,
    "Ostar": 34,
    "Istar": 59,
}


@pytest.mark.parametrize("expr,value", sorted(KNOWN_D2.items()))
def test_real_summand_dimension_known_values(expr, value):
    got = d2_char_formula(expr)[1]
    assert isinstance(got, int)
    assert got == value


def test_brauer_check_rejects_a_non_real_row_made_real():
    # Z(5) has one self-inverse class and so one real character; copying the
    # trivial row over a faithful one keeps every degree but adds a real row
    t = table_for("Z(5)")
    values = [list(row) for row in t.values]
    values[1] = list(values[0])
    with pytest.raises(AssertionError, match="self-inverse"):
        _finish(t.group_name, t.class_data, list(t.row_names), values)


# conductors with several odd prime factors, once far slower on the chars route
SLOW_CONDUCTORS = ["Z(1995)", "Dstar(245)", "Dstar(247)", "Dprime(1,55)"]


@pytest.mark.parametrize("expr", SLOW_CONDUCTORS)
def test_chars_route_matches_closed_form_on_slow_conductors(expr):
    cd, d2 = d2_char_formula(expr)
    dim, rem = divmod(d1_class_formula(cd) + d2, 2)
    assert rem == 0
    want_dim, want_ker = closed_dims(spec_from_expr(expr))
    assert (dim, dim - z2_orbit_count(cd)) == (want_dim, want_ker)


@pytest.mark.parametrize("expr", ["Z(100000)", "Z(400) x Z(400)", "Z(3000) x Z(2)"])
def test_cell_budget_is_checked_before_classes_are_computed(monkeypatch, expr):
    def refuse(*args):
        raise AssertionError("computed classes for a table over the cell budget")

    monkeypatch.setattr(characters, "compute_classes", refuse)
    with pytest.raises(ResourceLimitError) as err:
        table_for(expr)
    assert str(CHAR_TABLE_MAX_CELLS) in str(err.value)


def test_cell_budget_admits_z2000_and_still_reports_bad_parameters():
    assert CHAR_TABLE_MAX_CELLS >= 2000 * 2000
    # invalid parameters are still reported as such, however large the table
    with pytest.raises(ValueError):
        table_for("Dprime(30,4)")
    with pytest.raises(ValueError):
        real_character_sums("Dprime(30,4)")


@pytest.mark.parametrize("expr", ["Z(100000)", "Z(400) x Z(400)", "Z(3000) x Z(2)"])
def test_route_keeps_the_cell_budget_and_checks_it_before_classes(monkeypatch, expr):
    """The route's one budget is the class-data order cap, checked before any class.

    These tables are over the cell budget, which `table_for` keeps, while the
    route sums them in integers: its sums give the same twisted trace sums as
    the square-root counts.
    """

    def refuse(*args):
        raise AssertionError("computed classes for a route over the class-data budget")

    n = group_order(expr)
    with monkeypatch.context() as patch:
        patch.setattr(characters, "compute_classes", refuse)
        patch.setattr(conjugacy, "CLASS_DATA_MAX_ORDER", n - 1)
        with pytest.raises(ResourceLimitError, match=f"order {n} exceeds the class-data budget"):
            real_character_sums(expr)
        with pytest.raises(ResourceLimitError, match="cells"):
            table_for(expr)
    cd, sums = real_character_sums(expr)
    assert twisted_trace_sums(cd, sums) == twisted_trace_sums(cd, square_root_counts(cd))


# every family and product shape of the catalogs, the slow conductors, and a
# three-factor product
ROUTE_CATALOG = sorted(
    set(ROUTE_500 + SPHERICAL + NON_SPHERICAL + RANDOM_PRODUCTS_500 + SLOW_CONDUCTORS)
    | {"Z(3) x Dstar(2) x Z(5)"}
)


@pytest.mark.parametrize("expr", ROUTE_CATALOG)
def test_real_character_sums_match_the_full_table(expr):
    table = table_for(expr)
    cd, sums = real_character_sums(expr)
    assert cd == table.class_data
    assert sums == [real_char_sum(table, c) for c in range(cd.num_classes)]


LAYOUT_ATOMS = [
    "Z(1)",
    "Z(2)",
    "Z(5)",
    "Z(12)",
    "Dstar(1)",
    "Dstar(2)",
    "Dstar(3)",
    "Dstar(6)",
    "Dprime(0,3)",
    "Dprime(1,3)",
    "Dprime(1,5)",
    "Dprime(2,5)",
    "Tprime(1)",
    "Tprime(2)",
    "Tprime(3)",
    "Tstar",
    "Ostar",
    "Istar",
]


@pytest.mark.parametrize("expr", LAYOUT_ATOMS)
def test_real_rows_are_the_layout_rows_with_their_frobenius_schur_indicators(expr):
    """A family's integer sums are its full rows summed by their indicators.

    The indicator nu = (1/|G|) sum |C| chi(C^2) is recomputed from each full
    row; the rows of nu = 1 and of nu = -1, summed per class, must give the
    family's S+ and S-, and the rows of nu != 0 its count of real rows.
    """
    [(_, cd, rows, sums)] = _atoms(parse_group_expr(expr))
    k = cd.num_classes
    by_indicator = {1: [from_int(0)] * k, -1: [from_int(0)] * k}
    count = 0
    for values in rows(cd)[1]:
        acc = from_int(0)
        for c in range(k):
            acc = acc + cd.sizes[c] * values[cd.square_class[c]]
        nu, rem = divmod(acc.as_int(), cd.order)
        assert rem == 0 and nu in (-1, 0, 1)
        if nu:
            count += 1
            by_indicator[nu] = [s + v for s, v in zip(by_indicator[nu], values)]
    want = [(p.as_int(), m.as_int()) for p, m in zip(by_indicator[1], by_indicator[-1])]
    assert sums(cd) == (want, count)


@st.composite
def spherical_exprs(draw, max_order: int) -> str:
    """Z(m) times one atom, of order at most max_order, with m prime to what the case needs."""
    atoms = [("Tstar", 24, 6), ("Ostar", 48, 6), ("Istar", 120, 30)]
    atoms += [(f"Tprime({k})", 8 * 3**k, 6) for k in range(1, 12) if 8 * 3**k <= max_order]
    kind = draw(st.sampled_from(["Z", "Dstar", "Dprime", "polyhedral"]))
    if kind == "Z":
        return f"Z({draw(st.integers(1, max_order))})"
    if kind == "Dstar":
        p = draw(st.integers(1, max_order // 4))
        atom, n, prime_to = f"Dstar({p})", 4 * p, 2 * p
    elif kind == "Dprime":
        k = draw(st.integers(0, 4))
        p = 2 * draw(st.integers(1, (max_order // 2 ** (k + 2) - 1) // 2)) + 1
        atom, n, prime_to = f"Dprime({k},{p})", 2 ** (k + 2) * p, 2 * p
    else:
        atom, n, prime_to = draw(st.sampled_from(atoms))
    m = draw(st.integers(1, max_order // n))
    while gcd(m, prime_to) > 1:
        m //= gcd(m, prime_to)
    return atom if m == 1 else f"Z({m}) x {atom}"


def _chars_dims(expr: str) -> tuple[int, int]:
    cd, d2 = d2_char_formula(expr)
    dim, rem = divmod(d1_class_formula(cd) + d2, 2)
    assert rem == 0
    return dim, dim - z2_orbit_count(cd)


@settings(max_examples=25, deadline=10000)
@given(spherical_exprs(10**5))
def test_chars_route_matches_closed_forms_up_to_order_1e5(expr):
    assert _chars_dims(expr) == closed_dims(spec_from_expr(expr))


@settings(max_examples=25, deadline=5000)
@given(spherical_exprs(10**4))
def test_closed_chars_and_class_burnside_agree_up_to_order_1e4(expr):
    want = closed_dims(spec_from_expr(expr))
    assert _chars_dims(expr) == want
    result = burnside_dims(expr, max_order=group_order(expr))
    assert (result.dim_full, result.dim_ker) == want
