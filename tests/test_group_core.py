"""Multiplication-table constructors: orders, axioms, defining relations."""

import itertools

import pytest

from catalogs import NON_SPHERICAL, ROUTE_120, SPHERICAL
from oracles import conjugate, element_order
from thetadim.expr import parse_group_expr
from thetadim.group_core import (
    FiniteGroup,
    ResourceLimitError,
    atom_group,
    binary_dihedral_group,
    construct_family,
    cyclic_group,
    direct_product,
    dprime_group,
    group_from_expr,
    group_order,
    istar_group,
    ostar_group,
    tprime_group,
    tstar_group,
    validate_spherical,
)

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
    G.check_associativity()


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
    assert G.mul(x, x) == G.power(a, p)
    assert conjugate(G, x, a) == G.inv(a)
    # x has order 4 and the central involution is a^p
    assert element_order(G, x) == (4 if p > 1 else 4)
    assert G.power(x, 2) == G.power(a, p)


def test_quaternion_group_facts():
    G = binary_dihedral_group(2)
    i, j = G.generators
    k = G.mul(i, j)
    m1 = G.power(i, 2)
    assert m1 != 0 and element_order(G, m1) == 2
    assert G.power(j, 2) == m1 and G.power(k, 2) == m1
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
    assert G.power(x, 2) == G.power(y, 2) == G.power(G.mul(x, y), 2)
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
    c = G.power(G.mul(a, b), 2)
    assert c == G.power(a, 3) == G.power(b, q)
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
        assert G.power(g, d) == 0
        assert all(G.power(g, e) != 0 for e in range(1, d))
        assert G.power(g, -1) == G.inv(g)
        assert G.power(g, -3) == G.inv(G.power(g, 3))
        assert G.order % d == 0


def test_direct_product_is_componentwise():
    G1, G2 = cyclic_group(3), binary_dihedral_group(2)
    P = direct_product(G1, G2)
    assert P.order == 24
    n2 = G2.order
    for i1, i2, j1, j2 in itertools.product(range(3), range(n2), range(3), range(n2)):
        assert P.mul(i1 * n2 + i2, j1 * n2 + j2) == G1.mul(i1, j1) * n2 + G2.mul(i2, j2)
    assert P.labels[1] == "(e,a)"
    P.check_associativity()


def test_direct_product_entry_budget():
    with pytest.raises(ResourceLimitError):
        direct_product(cyclic_group(40), cyclic_group(40))
    with pytest.raises(ResourceLimitError):
        direct_product(cyclic_group(3), cyclic_group(5), max_entries=100)
    assert direct_product(cyclic_group(3), cyclic_group(5), max_entries=225).order == 15


def test_group_from_expr_accepts_strings_and_folds_products():
    assert group_from_expr("Z(2)xZ(3)xZ(5)").order == 30
    assert group_from_expr("z(5) X TSTAR").family_tag == "Z(5)xTstar"
    assert group_from_expr("Istar").family_tag == "Istar"


def test_table_constructor_rejects_malformed_tables():
    with pytest.raises(ValueError):
        FiniteGroup(2, [0, 1, 1])  # wrong size
    with pytest.raises(ValueError):
        FiniteGroup(2, [1, 0, 0, 1])  # 0 not an identity
    with pytest.raises(ValueError):
        FiniteGroup(3, [0, 1, 2, 1, 1, 1, 2, 2, 2])  # no inverses


def test_associativity_check_catches_corruption():
    table = [(i + j) % 5 for i in range(5) for j in range(5)]
    table[1 * 5 + 2] = 4  # cell not used by identity or inverse checks
    bad = FiniteGroup(5, table)
    with pytest.raises(AssertionError):
        bad.check_associativity()


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
    "expr", ["Z(1)", "Z(9)", "Dstar(1)", "Dstar(6)", "Dprime(0,3)", "Dprime(2,5)", "Tprime(1)", "Tprime(2)"]
)
def test_normal_form_rules_match_their_tables(expr):
    (atom,) = parse_group_expr(expr).atoms
    rule = atom_group(atom)
    G = group_from_expr(expr)
    n = G.order
    assert rule.order == n and rule.family_tag == G.family_tag
    assert rule.generators == G.generators
    # inverses and labels are written separately from the product rule
    assert [rule.inv(i) for i in range(n)] == G.inverses
    assert [rule.label(i) for i in range(n)] == G.labels
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
