"""Conjugacy class data against brute-force orbit computation."""

import tracemalloc
from fractions import Fraction

import pytest

from catalogs import NON_SPHERICAL, ROUTE_120, ROUTE_500, SPHERICAL
from class_oracles import (
    cube_matched_sum,
    literal_class_of,
    literal_classes,
    pair_class_sums,
    pair_delta3_sum,
)
from oracles import conjugate, direct_product_literal, power, unbudgeted_table
from thetadim.characters import real_character_sums
from thetadim.commands import _class_label
from thetadim.conjugacy import (
    class_data_for,
    compute_classes,
    d1_class_formula,
    plain_trace_sums,
    product_class_data,
    square_root_counts,
    twisted_trace_sums,
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
    # one representative in each class, each class of its stated size
    got = [frozenset(conjugate(G, x, r) for x in range(G.order)) for r in cd.representatives]
    assert set(got) == brute_classes(G)
    assert len(got) == cd.num_classes
    assert [len(members) for members in got] == cd.sizes


@pytest.mark.parametrize("expr", ORACLE_CATALOG)
def test_class_bookkeeping_is_internally_consistent(expr):
    G = group_from_expr(expr)
    cd = compute_classes(G)
    class_of = literal_class_of(G)
    k = cd.num_classes
    assert cd.order == G.order
    assert all(len(field) == k for field in cd[1:])
    assert sum(cd.sizes) == G.order
    # representatives are the least member of their class, in increasing order
    assert cd.representatives == sorted(cd.representatives)
    for c, rep in enumerate(cd.representatives):
        assert class_of[rep] == c
        members = [g for g in range(G.order) if class_of[g] == c]
        assert min(members) == rep
        assert len(members) == cd.sizes[c]
    for c, rep in enumerate(cd.representatives):
        assert cd.square_class[c] == class_of[G.mul(rep, rep)]
        assert cd.cube_class[c] == class_of[power(G, rep, 3)]
        assert cd.inverse_class[c] == class_of[G.inv(rep)]
        assert (G.order // cd.sizes[c]) * cd.sizes[c] == G.order
    # power maps are class functions: any member gives the same answer
    for g in range(G.order):
        c = class_of[g]
        assert cd.square_class[c] == class_of[G.mul(g, g)]
        assert cd.cube_class[c] == class_of[power(G, g, 3)]
        assert cd.inverse_class[c] == class_of[G.inv(g)]


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
    class_of1, class_of2 = literal_class_of(G1), literal_class_of(G2)
    assert pcd.order == P.order
    assert pcd.num_classes == direct.num_classes == cd1.num_classes * cd2.num_classes

    # map product class index -> member set, using the pair numbering
    k2, n2 = cd2.num_classes, G2.order
    members = {}
    for g in range(P.order):
        c = class_of1[g // n2] * k2 + class_of2[g % n2]
        members.setdefault(c, set()).add(g)
    direct_members = {}
    for g, c in enumerate(literal_class_of(P)):
        direct_members.setdefault(c, set()).add(g)
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
    # the printed names come from the composed rule and read "(l1,l2)"
    literal = direct_product_literal(G1, G2)
    expr = parse_group_expr(f"{e1} x {e2}")
    reps = pcd.representatives
    assert list(map(_class_label(expr), reps)) == [literal.label(r) for r in reps]


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
    class_of = literal_class_of(G)
    counts = {}
    for g in range(G.order):
        c = class_of[power(G, g, 3)]
        counts[c] = counts.get(c, 0) + 1
    return sum(Fraction(v * v, cd.sizes[c]) for c, v in counts.items())


@pytest.mark.parametrize("expr", ORACLE_CATALOG)
def test_cube_class_weighted_sum_counts_element_pairs(expr):
    G = group_from_expr(expr)
    cd = compute_classes(G)
    assert cube_matched_sum(cd) == brute_cube_pairs(G)


def test_cube_class_weighted_sum_small_values():
    assert cube_matched_sum(compute_classes(cyclic_group(1))) == 1
    assert cube_matched_sum(compute_classes(cyclic_group(2))) == 2
    assert cube_matched_sum(compute_classes(cyclic_group(3))) == 9
    assert cube_matched_sum(compute_classes(group_from_expr("Dstar(3)"))) == 24


def test_first_summand_dimension_small_values():
    # trivial group: the full dimension of the degree-3 invariants is 1
    assert d1_class_formula(compute_classes(cyclic_group(1))) == 1
    assert d1_class_formula(compute_classes(cyclic_group(2))) == 2
    assert d1_class_formula(compute_classes(group_from_expr("Dstar(3)"))) == 13
    value = d1_class_formula(compute_classes(group_from_expr("Tstar")))
    assert isinstance(value, int)
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
    G = unbudgeted_table(expr)
    literal = literal_classes(G)
    cd = class_data_for(expr)
    # field for field: numbering, sizes and power maps
    assert cd == literal
    plain = plain_trace_sums(cd)
    twisted = twisted_trace_sums(cd, square_root_counts(cd))
    assert plain + twisted == pair_class_sums(G, literal)
    assert cube_matched_sum(cd) == pair_delta3_sum(literal)


# products whose two factors both have quaternionic characters, so that
# S(C) and the square-root count differ at many classes
QUATERNIONIC_PRODUCTS = ["Ostar x Istar", "Dprime(1,5) x Tstar"]


@pytest.mark.parametrize("expr", sorted(set(SPHERICAL + NON_SPHERICAL)) + QUATERNIONIC_PRODUCTS)
def test_real_character_sums_and_root_counts_give_the_same_twisted_sums(expr):
    """The chars route and class burnside share twisted_trace_sums.

    The route passes S(C), the sum of the real characters at C; burnside
    passes the square-root count, sum nu(chi) chi(C) by Frobenius-Schur.  The
    two differ wherever a quaternionic character is nonzero, but both sums,
    the full and the kernel one, agree.
    """
    cd, sums = real_character_sums(expr)
    roots = square_root_counts(cd)
    assert twisted_trace_sums(cd, sums) == twisted_trace_sums(cd, roots)
    if expr in QUATERNIONIC_PRODUCTS:
        assert sums != roots


@pytest.mark.parametrize("expr", ["Z(12)", "Dstar(5)", "Dprime(1,5)", "Tprime(2)", "Ostar"])
def test_generator_orbits_on_rule_and_table_agree(expr):
    (atom,) = parse_group_expr(expr).atoms
    assert compute_classes(atom_group(atom)) == compute_classes(group_from_expr(expr))


def test_composed_class_data_holds_nothing_per_element():
    # Z(7) x Dstar(2500) has order 70,000 but 7 * 2503 classes: a product is
    # composed per class, with no element-to-class map and no label strings
    tracemalloc.start()
    try:
        cd = class_data_for("Z(7) x Dstar(2500)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cd.num_classes == 7 * 2503
    assert peak < 5_000_000
