"""Multiplication-table constructors: orders, axioms, defining relations."""

import itertools
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import catalogs
import thetadim.coset_enum as coset_enum
import thetadim.family_z as family_z
import thetadim.group_core as group_core
from catalogs import NON_SPHERICAL, RANDOM_PRODUCTS_500, ROUTE_120, ROUTE_500, SPHERICAL
from oracles import (
    check_associativity,
    conjugate,
    direct_product_literal,
    element_order,
    parse_presentation,
    power,
    unbudgeted_table,
    validate_spherical,
)
from thetadim.expr import Atom, parse_group_expr
from thetadim.group_core import (
    TABLE_MAX_ENTRIES,
    FiniteGroup,
    binary_dihedral_group,
    construct_family,
    cyclic_group,
    direct_product,
    dprime_group,
    group_from_expr,
    istar_group,
    ostar_group,
    tprime_group,
    tstar_group,
)
from thetadim.normal_form import (
    NormalForm, ResourceLimitError, atom_group, group_order, product_rule,
)


def model(kind, *params):
    """The model of one atom, through its family's `model`."""
    return atom_group(Atom(kind, params))


AXIOM_CATALOG = [
    "Z(1)",
    "Z(2)",
    "Z(7)",
    "Z(12)",
    "Dstar(1)",
    "Dstar(2)",
    "Dstar(5)",
    "Dprime(0,3)",
    "Dprime(1,5)",
    "Dprime(2,3)",
    "Tprime(1)",
    "Tprime(2)",
    "Tstar",
    "Ostar",
    "Istar",
    "Z(5) x Dstar(4)",
    "Z(2) x Z(2)",
]


@pytest.mark.parametrize("expr", AXIOM_CATALOG)
def test_group_axioms(expr):
    G = group_from_expr(expr)
    n = G.order
    assert all(G.mul(0, i) == i == G.mul(i, 0) for i in range(n))
    for i in range(n):
        j = G.inv(i)
        assert G.mul(i, j) == 0 == G.mul(j, i)
    # rows and columns are permutations (cancellation law)
    for i in range(n):
        assert sorted(G.mul(i, j) for j in range(n)) == list(range(n))
        assert sorted(G.mul(j, i) for j in range(n)) == list(range(n))
    check_associativity(G)


def test_generators_generate():
    for expr in AXIOM_CATALOG:
        G = group_from_expr(expr)
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s in G.generators:
                for y in (G.mul(x, s), G.mul(s, x)):
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        assert len(reached) == G.order, expr


def test_family_orders():
    assert [cyclic_group(n).order for n in (1, 2, 9)] == [1, 2, 9]
    assert [binary_dihedral_group(p).order for p in (1, 2, 7)] == [4, 8, 28]
    assert [dprime_group(k, p).order for k, p in [(0, 3), (1, 3), (2, 5), (3, 7)]] == [
        12, 24, 80, 224,
    ]
    assert [tprime_group(k).order for k in (1, 2, 3)] == [24, 72, 216]
    assert tstar_group().order == 24
    assert ostar_group().order == 48
    assert istar_group().order == 120


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        binary_dihedral_group(0)
    with pytest.raises(ValueError):
        dprime_group(-1, 3)
    with pytest.raises(ValueError):
        dprime_group(1, 4)  # even odd-part
    with pytest.raises(ValueError):
        dprime_group(1, 1)
    with pytest.raises(ValueError):
        tprime_group(0)


def test_cyclic_generator_order():
    for n in (1, 2, 3, 10, 31):
        G = cyclic_group(n)
        if n == 1:
            assert G.generators == []
        else:
            (a,) = G.generators
            assert element_order(G, a) == n


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 10])
def test_binary_dihedral_relations(p):
    G = binary_dihedral_group(p)
    a, x = G.generators
    assert element_order(G, a) == 2 * p
    assert G.mul(x, x) == power(G, a, p)
    assert conjugate(G, x, a) == G.inv(a)
    # x has order 4 and the central involution is a^p
    assert element_order(G, x) == (4 if p > 1 else 4)
    assert power(G, x, 2) == power(G, a, p)


def test_quaternion_group_facts():
    G = binary_dihedral_group(2)
    i, j = G.generators
    k = G.mul(i, j)
    m1 = power(G, i, 2)
    assert m1 != 0 and element_order(G, m1) == 2
    assert power(G, j, 2) == m1 and power(G, k, 2) == m1
    assert G.mul(j, i) == G.mul(m1, k)
    orders = sorted(element_order(G, g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


@pytest.mark.parametrize("k,p", [(0, 3), (0, 9), (1, 3), (1, 7), (2, 5), (3, 3)])
def test_split_metacyclic_relations(k, p):
    G = dprime_group(k, p)
    x, y = G.generators
    assert G.order == 2 ** (k + 2) * p
    assert element_order(G, x) == 2 ** (k + 2)
    assert element_order(G, y) == p
    assert G.mul(x, G.inv(y)) == G.mul(y, x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quaternion_tower_relations(k):
    G = tprime_group(k)
    x, z = G.generators
    y = conjugate(G, z, x)
    assert G.order == 8 * 3**k
    assert element_order(G, z) == 3**k
    assert power(G, x, 2) == power(G, y, 2) == power(G, G.mul(x, y), 2)
    assert element_order(G, x) == 4
    assert conjugate(G, z, y) == G.mul(x, y)


@pytest.mark.parametrize(
    "make,q,order",
    [(tstar_group, 3, 24), (ostar_group, 4, 48), (istar_group, 5, 120)],
)
def test_binary_polyhedral_relations(make, q, order):
    G = make()
    a, b = G.generators
    assert G.order == order
    c = power(G, G.mul(a, b), 2)
    assert c == power(G, a, 3) == power(G, b, q)
    assert c != 0 and element_order(G, c) == 2


def test_binary_polyhedral_element_order_counts():
    # element-order histograms of the three exceptional groups
    def hist(G):
        out = {}
        for g in range(G.order):
            d = element_order(G, g)
            out[d] = out.get(d, 0) + 1
        return out

    assert hist(tstar_group()) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    assert hist(ostar_group()) == {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}
    assert hist(istar_group()) == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}


def test_power_and_element_order_consistency():
    G = group_from_expr("Dprime(1,5)")
    for g in range(G.order):
        d = element_order(G, g)
        assert power(G, g, d) == 0
        assert all(power(G, g, e) != 0 for e in range(1, d))
        assert power(G, g, -1) == G.inv(g)
        assert power(G, g, -3) == G.inv(power(G, g, 3))
        assert G.order % d == 0


def test_direct_product_is_componentwise():
    G1, G2 = cyclic_group(3), binary_dihedral_group(2)
    P = direct_product(G1, G2)
    assert P.order == 24
    n2 = G2.order
    for i1, i2, j1, j2 in itertools.product(range(3), range(n2), range(3), range(n2)):
        assert P.mul(i1 * n2 + i2, j1 * n2 + j2) == G1.mul(i1, j1) * n2 + G2.mul(i2, j2)
    # a table names no element: its rule does
    assert not hasattr(P, "label")
    assert product_rule(G1, G2).label(1) == "(e,a)"
    check_associativity(P)


def test_direct_product_entry_budget():
    with pytest.raises(ResourceLimitError):
        direct_product(cyclic_group(40), cyclic_group(40))
    with pytest.raises(ResourceLimitError):
        direct_product(cyclic_group(7), cyclic_group(143))
    assert direct_product(cyclic_group(10), cyclic_group(100)).order == 1000


# every product in the catalogs, plus two with three atoms
PRODUCTS = list(
    dict.fromkeys(
        e
        for catalog in (ROUTE_500, SPHERICAL, NON_SPHERICAL, RANDOM_PRODUCTS_500)
        for e in catalog
        if " x " in e
    )
) + ["Z(2) x Z(3) x Z(5)", "Z(5) x Z(7) x Dstar(2)"]


def assert_same_group(got: FiniteGroup, want: FiniteGroup) -> None:
    """Every field of the two groups agrees."""
    assert FiniteGroup.__slots__ == ("rows", "inverses", "family_tag", "generators")
    for field in FiniteGroup.__slots__:
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("expr", PRODUCTS)
def test_product_table_matches_the_literal_fill(expr):
    atoms = parse_group_expr(expr).atoms
    expected = reduce(direct_product_literal, map(construct_family, atoms))
    assert_same_group(group_from_expr(expr), expected)


def test_product_fill_agrees_with_the_composed_rule():
    # a product rule on the right, which group_from_expr's left fold never makes
    inner = product_rule(model("Z", 3), model("Dstar", 1))
    rule = product_rule(tstar_group(), inner)
    got = direct_product(tstar_group(), inner)
    n = rule.order
    assert got.rows == [[rule.mul(i, j) for j in range(n)] for i in range(n)]
    assert got.generators == list(rule.generators) and got.family_tag == rule.family_tag
    check_associativity(got)


def test_a_product_builds_exactly_one_table(monkeypatch):
    built = []
    real_init = FiniteGroup.__init__

    def counted(self, rows, *args, **kwargs):
        built.append(len(rows))
        real_init(self, rows, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    assert group_from_expr("Z(2) x Z(3) x Z(5)").order == 30
    assert built == [30]


# counts the coset enumerations of one CLI call in a fresh interpreter
_COUNT_ENUMERATIONS = """
import contextlib, io, sys
import thetadim.cli as cli
import thetadim.coset_enum as coset_enum

real = coset_enum.enumerate_cosets
calls = []


def counted(*args, **kwargs):
    calls.append(args[0])
    return real(*args, **kwargs)


coset_enum.enumerate_cosets = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, len(calls))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "Istar"],
        ["verify", "Z(5) x Tstar"],
        ["classes", "Z(2) x Ostar"],
        ["chartab", "Tstar"],
    ],
)
def test_a_process_enumerates_each_binary_polyhedral_atom_once(argv):
    # the chars route, the shared table and the printed labels each read the atom's rule
    src = str(Path(group_core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_ENUMERATIONS, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["0", "1"]


@pytest.mark.parametrize("kind, k", [("Tstar", 3), ("Ostar", 4), ("Istar", 5)])
def test_polyhedral_relators_are_the_parsed_presentation(monkeypatch, kind, k):
    # the library writes <a,b | (a*b)^2 = a^3 = b^k> as column words itself
    seen = []
    real = coset_enum.group_from_presentation

    def recorded(presentation, expected_order, family_tag):
        seen.append((presentation, expected_order, family_tag))
        return real(presentation, expected_order, family_tag)

    monkeypatch.setattr(coset_enum, "group_from_presentation", recorded)
    monkeypatch.setattr(group_core, "_enumerated", group_core._enumerated.__wrapped__)
    construct_family(Atom(kind))
    parsed = parse_presentation(f"<a,b | (a*b)^2 = a^3 = b^{k}>")
    assert seen == [(parsed, group_order(kind), kind)]


def test_binary_polyhedral_rules_are_shared_and_fixed():
    # one rule per process, so no caller may change what the others read
    first = tstar_group()
    assert tstar_group() is first is atom_group(Atom("Tstar"))
    with pytest.raises(AttributeError):
        first.generators = [0]
    with pytest.raises(TypeError):
        first.generators[0] = 0


def test_tables_are_refused_before_any_product_is_taken(monkeypatch):
    assert TABLE_MAX_ENTRIES == 10**6

    def no_products(i, j):
        raise AssertionError("a product was taken")

    real_model = family_z.model

    def productless_model(atom):
        return real_model(atom)._replace(mul=no_products)

    # the table builders and atom_group both reach the rule through family_z
    monkeypatch.setattr(family_z, "model", productless_model)
    with pytest.raises(AssertionError, match="a product was taken"):
        group_from_expr("Z(5)")
    # a single atom is held to the same budget as a product of the same order
    with pytest.raises(ResourceLimitError) as err:
        group_from_expr("Z(1001)")
    assert str(err.value) == "Z(1001) needs 1002001 table entries, budget is 1000000."
    with pytest.raises(ResourceLimitError) as err:
        group_from_expr("Z(7) x Z(143)")
    assert str(err.value) == (
        "product of orders 7 and 143 needs 1002001 table entries, budget is 1000000."
    )


def test_group_from_expr_accepts_strings_and_folds_products():
    assert group_from_expr("Z(2)xZ(3)xZ(5)").order == 30
    assert group_from_expr("z(5) X TSTAR").family_tag == "Z(5)xTstar"
    assert group_from_expr("Istar").family_tag == "Istar"


def test_table_constructor_rejects_malformed_tables():
    with pytest.raises(ValueError):
        FiniteGroup([], generators=[])  # no elements
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1]], generators=[1])  # not square
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]], generators=[1])  # 0 not an identity
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [1, 1, 1], [2, 2, 2]], generators=[1])  # no inverses


def test_associativity_check_catches_corruption():
    rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    rows[1][2] = 4  # cell not used by identity or inverse checks
    bad = FiniteGroup(rows, generators=[1])
    with pytest.raises(AssertionError):
        check_associativity(bad)


@pytest.mark.parametrize("expr", SPHERICAL)
def test_spherical_catalog_validates(expr):
    ok, reason = validate_spherical(expr)
    assert ok and reason is None


@pytest.mark.parametrize("expr", NON_SPHERICAL)
def test_non_spherical_catalog_rejected_with_reason(expr):
    ok, reason = validate_spherical(expr)
    assert not ok
    assert isinstance(reason, str) and reason


def test_route_catalog_orders_fit_budget():
    for expr in ROUTE_120:
        assert group_from_expr(expr).order <= 120, expr


@pytest.mark.parametrize(
    "expr",
    [
        "Z(1)", "Z(9)", "Dstar(1)", "Dstar(6)", "Dprime(0,3)", "Dprime(2,5)", "Tprime(1)",
        "Tprime(2)", "Tstar", "Ostar", "Istar",
    ],
)
def test_normal_form_rules_match_their_tables(expr):
    (atom,) = parse_group_expr(expr).atoms
    rule = atom_group(atom)
    G = group_from_expr(expr)
    n = G.order
    assert isinstance(rule, NormalForm)
    assert rule.order == n and rule.family_tag == G.family_tag
    assert list(rule.generators) == G.generators
    # inverses are written separately from the product rule
    assert [rule.inv(i) for i in range(n)] == G.inverses
    assert all(rule.mul(i, j) == G.mul(i, j) for i in range(n) for j in range(n))


def test_group_order_needs_no_construction():
    for expr in ROUTE_120:
        assert group_order(expr) == group_from_expr(expr).order, expr
    assert group_order("Z(100000) x Istar") == 12_000_000
    assert group_order(parse_group_expr("Dprime(3,13)")) == 416
    with pytest.raises(ValueError):
        group_order("Dprime(1,4)")
    with pytest.raises(ValueError):
        group_order("Tprime(0)")


SINGLE_ATOMS = sorted(
    {
        expr
        for name, members in vars(catalogs).items()
        if name.isupper()
        for expr in members
        if len(parse_group_expr(expr).atoms) == 1
    },
    key=group_order,
)


@pytest.mark.parametrize("expr", SINGLE_ATOMS + ["Dstar(250)"])
def test_row_composed_atom_tables_match_the_entry_by_entry_fill(expr):
    assert_same_group(group_from_expr(expr), unbudgeted_table(expr))


def test_generators_that_miss_part_of_the_group_are_refused():
    # 2 generates only the even residues of Z(6)
    with pytest.raises(AssertionError, match="reach 3 of 6 elements"):
        group_core._tabulate(model("Z", 6)._replace(generators=[2]))
    with pytest.raises(AssertionError, match="reach 1 of 4 elements"):
        group_core._tabulate(model("Dstar", 1)._replace(generators=[]))
    # a product's rows are filled along its own generators, which take one
    # factor's generators and so miss the same share of the product
    bad = product_rule(model("Z", 3), model("Dstar", 2)._replace(generators=[1]))
    message = r"^Z\(3\)xDstar\(2\): the generators reach 12 of 24 elements$"
    with pytest.raises(AssertionError, match=message):
        group_core._tabulate(bad)


@pytest.mark.parametrize(
    "expr", ["Dstar(6)", "Z(3) x Dprime(1,5)", "Z(5) x Tstar", "Tstar x Z(5)", "Z(2) x Z(3) x Z(5)"]
)
def test_a_table_holds_one_int_object_per_element(expr):
    # every entry is read from row 0, so equal entries are one object
    group = group_from_expr(expr)
    assert len({id(x) for row in group.rows for x in row}) == group.order


def test_a_product_rule_is_called_at_most_once_per_generator_and_element():
    rule = product_rule(product_rule(model("Z", 3), model("Dstar", 2)), tstar_group())
    calls = []

    def counted(i, j):
        calls.append((i, j))
        return rule.mul(i, j)

    group = group_core._tabulate(rule._replace(mul=counted))
    assert group.order == 576
    assert 0 < len(calls) <= len(rule.generators) * rule.order
    assert all(group.rows[i][j] == rule.mul(i, j) for i, j in calls)
