"""Conjugacy class data against brute-force orbit computation."""

from fractions import Fraction

import pytest

from catalogs import ROUTE_120, ROUTE_500
from class_oracles import literal_classes, pair_class_sums, pair_delta3_sum
from oracles import conjugate
from thetadim.burnside import _class_sums
from thetadim.conjugacy import (
    class_data_for,
    compute_classes,
    d1_class_formula,
    delta3_weighted_sum,
    product_class_data,
    z2_orbit_count,
)
from thetadim.expr import parse_group_expr
from thetadim.group_core import atom_group, cyclic_group, direct_product, group_from_expr

ORACLE_CATALOG = [
    "Z(1)",
    "Z(2)",
    "Z(12)",
    "Dstar(2)",
    "Dstar(3)",
    "Dstar(4)",
    "Dprime(0,3)",
    "Dprime(1,5)",
    "Tprime(1)",
    "Tstar",
    "Ostar",
    "Istar",
    "Z(4) x Dstar(3)",
]


def brute_classes(G):
    """Conjugacy classes as a set of frozensets, by element-level orbits."""
    n = G.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = {conjugate(G, x, g) for x in range(n)}
        for y in orbit:
            seen[y] = True
        classes.append(frozenset(orbit))
    return set(classes)


@pytest.mark.parametrize("expr", ORACLE_CATALOG)
def test_class_partition_matches_brute_force(expr):
    G = group_from_expr(expr)
    cd = compute_classes(G)
    got = {}
    for g in range(G.order):
        got.setdefault(cd.class_of[g], set()).add(g)
    assert {frozenset(v) for v in got.values()} == brute_classes(G)


@pytest.mark.parametrize("expr", ORACLE_CATALOG)
def test_class_bookkeeping_is_internally_consistent(expr):
    G = group_from_expr(expr)
    cd = compute_classes(G)
    k = cd.num_classes
    assert cd.order == G.order
    assert len(cd.representatives) == len(cd.sizes) == k
    assert sum(cd.sizes) == G.order
    # representatives are the least member of their class, in increasing order
    assert cd.representatives == sorted(cd.representatives)
    for c, rep in enumerate(cd.representatives):
        assert cd.class_of[rep] == c
        members = [g for g in range(G.order) if cd.class_of[g] == c]
        assert min(members) == rep
        assert len(members) == cd.sizes[c]
    for c, rep in enumerate(cd.representatives):
        assert cd.square_class[c] == cd.class_of[G.mul(rep, rep)]
        assert cd.cube_class[c] == cd.class_of[G.power(rep, 3)]
        assert cd.inverse_class[c] == cd.class_of[G.inv(rep)]
        assert cd.centralizer_size(c) * cd.sizes[c] == G.order
    # power maps are class functions: any member gives the same answer
    for g in range(G.order):
        c = cd.class_of[g]
        assert cd.square_class[c] == cd.class_of[G.mul(g, g)]
        assert cd.cube_class[c] == cd.class_of[G.power(g, 3)]
        assert cd.inverse_class[c] == cd.class_of[G.inv(g)]


@pytest.mark.parametrize(
    "e1,e2",
    [("Z(3)", "Dstar(2)"), ("Z(5)", "Tstar"), ("Z(4)", "Dstar(3)"), ("Z(2)", "Z(2)")],
)
def test_product_class_data_matches_direct_computation(e1, e2):
    G1, G2 = group_from_expr(e1), group_from_expr(e2)
    P = direct_product(G1, G2)
    cd1, cd2 = compute_classes(G1), compute_classes(G2)
    pcd = product_class_data(cd1, cd2)
    direct = compute_classes(P)
    assert pcd.order == P.order
    assert pcd.num_classes == direct.num_classes == cd1.num_classes * cd2.num_classes

    # map product class index -> member set, using the pair numbering
    k2, n2 = cd2.num_classes, G2.order
    members = {}
    for g in range(P.order):
        c = cd1.class_of[g // n2] * k2 + cd2.class_of[g % n2]
        members.setdefault(c, set()).add(g)
    direct_members = {}
    for g in range(P.order):
        direct_members.setdefault(direct.class_of[g], set()).add(g)
    relabel = {}
    for c, ms in members.items():
        assert len(ms) == pcd.sizes[c]
        matches = [d for d, dms in direct_members.items() if dms == ms]
        assert len(matches) == 1
        relabel[c] = matches[0]
    assert sorted(relabel.values()) == list(range(direct.num_classes))
    for c in range(pcd.num_classes):
        assert relabel[pcd.square_class[c]] == direct.square_class[relabel[c]]
        assert relabel[pcd.cube_class[c]] == direct.cube_class[relabel[c]]
        assert relabel[pcd.inverse_class[c]] == direct.inverse_class[relabel[c]]


def test_inversion_orbit_count_against_direct_orbits():
    for expr in ORACLE_CATALOG:
        cd = compute_classes(group_from_expr(expr))
        perm = cd.inverse_class
        seen = set()
        orbits = 0
        for c in range(cd.num_classes):
            if c not in seen:
                orbits += 1
                seen.update({c, perm[c]})
        assert z2_orbit_count(cd) == orbits, expr


def brute_cube_pairs(G):
    """Element pairs with conjugate cubes, each weighted by 1/|class(g^3)|."""
    cd = compute_classes(G)
    counts = {}
    for g in range(G.order):
        c = cd.class_of[G.power(g, 3)]
        counts[c] = counts.get(c, 0) + 1
    return sum(Fraction(v * v, cd.sizes[c]) for c, v in counts.items())


@pytest.mark.parametrize("expr", ORACLE_CATALOG)
def test_cube_class_weighted_sum_counts_element_pairs(expr):
    G = group_from_expr(expr)
    cd = compute_classes(G)
    assert delta3_weighted_sum(cd) == brute_cube_pairs(G)


def test_cube_class_weighted_sum_small_values():
    assert delta3_weighted_sum(compute_classes(cyclic_group(1))) == 1
    assert delta3_weighted_sum(compute_classes(cyclic_group(2))) == 2
    assert delta3_weighted_sum(compute_classes(cyclic_group(3))) == 9
    assert delta3_weighted_sum(compute_classes(group_from_expr("Dstar(3)"))) == 24


def test_first_summand_dimension_small_values():
    # trivial group: the full dimension of the degree-3 invariants is 1
    assert d1_class_formula(compute_classes(cyclic_group(1))) == 1
    assert d1_class_formula(compute_classes(cyclic_group(2))) == 2
    assert d1_class_formula(compute_classes(group_from_expr("Dstar(3)"))) == 13
    value = d1_class_formula(compute_classes(group_from_expr("Tstar")))
    assert isinstance(value, Fraction)
    assert value == 21


def test_route_catalog_class_counts_divide_order():
    for expr in ROUTE_120:
        cd = compute_classes(group_from_expr(expr))
        assert all(cd.order % s == 0 for s in cd.sizes), expr


# every ROUTE_500 member plus larger single families and a product
EQUALITY_CATALOG = list(
    dict.fromkeys(
        ROUTE_500
        + ["Z(1999)", "Dstar(248)", "Tprime(4)", "Dprime(3,13)", "Z(11) x Dstar(9)"]
    )
)


@pytest.mark.parametrize("expr", EQUALITY_CATALOG)
def test_table_free_class_layer_matches_literal_oracles(expr):
    G = group_from_expr(expr)
    literal = literal_classes(G)
    cd = class_data_for(expr)
    # field for field: numbering, sizes, power maps and representative labels
    assert cd == literal
    assert _class_sums(cd) == pair_class_sums(G, literal)
    assert delta3_weighted_sum(cd) == pair_delta3_sum(literal)


@pytest.mark.parametrize("expr", ["Z(12)", "Dstar(5)", "Dprime(1,5)", "Tprime(2)", "Ostar"])
def test_generator_orbits_on_rule_and_table_agree(expr):
    (atom,) = parse_group_expr(expr).atoms
    assert compute_classes(atom_group(atom)) == compute_classes(group_from_expr(expr))
