"""Decorated-graph canonical forms and the orbit-count dimension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalogs import NON_SPHERICAL, RANDOM_PRODUCTS_500, ROUTE_120, ROUTE_500, SPHERICAL
from thetadim.burnside import burnside_dims, orbit_count_dims
from oracles import (
    diagram_count_per_move,
    normalize,
    orbit_count_literal,
    orbit_count_per_move,
    validate_spherical,
)
from thetadim.closed_forms import closed_dims, spec_from_expr
from thetadim.diagrams import dim_A2
from thetadim.group_core import TABLE_MAX_ENTRIES, FiniteGroup, group_from_expr
from thetadim.normal_form import ResourceLimitError, group_order

WALK_CATALOG = ["Z(2)", "Z(6)", "Dstar(2)", "Dstar(3)", "Dprime(0,3)", "Tstar"]


def triple_moves(G, t, g):
    a, b, c = t
    return [
        (b, a, c),
        (a, c, b),
        (c, b, a),
        (G.inv(a), G.inv(b), G.inv(c)),
        (G.mul(g, a), G.mul(g, b), G.mul(g, c)),
        (G.mul(a, g), G.mul(b, g), G.mul(c, g)),
    ]


@pytest.mark.parametrize("expr", WALK_CATALOG)
def test_normalize_constant_on_random_orbit_walks(expr):
    G = group_from_expr(expr)
    rng = random.Random(G.order * 7 + 1)
    for _ in range(25):
        start = tuple(rng.randrange(G.order) for _ in range(3))
        canon = normalize(start, G)
        assert canon[0] == 0
        assert normalize(canon, G) == canon
        t = start
        for _ in range(20):
            t = rng.choice(triple_moves(G, t, rng.randrange(G.order)))
            assert normalize(t, G) == canon


@pytest.mark.parametrize("expr", WALK_CATALOG)
def test_canonical_form_is_the_orbit_minimum(expr):
    G = group_from_expr(expr)
    rng = random.Random(G.order)
    for _ in range(10):
        start = tuple(rng.randrange(G.order) for _ in range(3))
        canon = normalize(start, G)
        # the canonical form never exceeds any member of a sampled suborbit
        t = start
        for _ in range(40):
            t = rng.choice(triple_moves(G, t, rng.randrange(G.order)))
            assert canon <= t


def test_identity_decoration_is_fixed():
    G = group_from_expr("Dstar(3)")
    assert normalize((0, 0, 0), G) == (0, 0, 0)


def brute_orbit_count(G):
    """Union-find over all triples under the full relation set."""
    n = G.order
    parent = list(range(n**3))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    gens = G.generators or [0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                code = (a * n + b) * n + c
                nbrs = [(b, a, c), (a, c, b), (G.inv(a), G.inv(b), G.inv(c))]
                for g in gens:
                    nbrs.append((G.mul(g, a), G.mul(g, b), G.mul(g, c)))
                    nbrs.append((G.mul(a, g), G.mul(b, g), G.mul(c, g)))
                for x, y, z in nbrs:
                    union(code, (x * n + y) * n + z)
    return len({find(x) for x in range(n**3)})


@pytest.mark.parametrize("expr", ["Z(1)", "Z(2)", "Z(4)", "Z(6)", "Dstar(2)", "Dstar(3)", "Z(2) x Z(2)", "Tprime(1)"])
def test_dimension_matches_brute_force_triple_orbits(expr):
    G = group_from_expr(expr)
    assert dim_A2(G) == brute_orbit_count(G)


CANONICAL_CATALOG = [
    "Z(1)", "Z(7)", "Dstar(2)", "Dstar(3)", "Z(2) x Z(2)", "Dprime(0,3)", "Tstar", "Dstar(6)"
]


@pytest.mark.parametrize("expr", CANONICAL_CATALOG)
def test_dimension_counts_distinct_canonical_forms(expr):
    G = group_from_expr(expr)
    n = G.order
    forms = {normalize((0, u, v), G) for u in range(n) for v in range(n)}
    assert dim_A2(G) == len(forms)


# every spherical catalog group whose table is within the entries budget
CLOSED_CATALOG = sorted(
    {
        e
        for e in ROUTE_500 + SPHERICAL + NON_SPHERICAL + RANDOM_PRODUCTS_500
        if group_order(e) ** 2 <= TABLE_MAX_ENTRIES and validate_spherical(e)[0]
    },
    key=lambda e: (group_order(e), e),
)


@pytest.mark.parametrize("expr", CLOSED_CATALOG)
def test_dimension_matches_closed_form_on_the_catalog(expr):
    assert dim_A2(group_from_expr(expr)) == closed_dims(spec_from_expr(expr))[0]


def test_dimension_agrees_with_averaging_route():
    for expr in ["Z(12)", "Dstar(5)", "Dprime(1,3)", "Tstar", "Ostar", "Istar"]:
        G = group_from_expr(expr)
        assert dim_A2(G) == burnside_dims(G).dim_full, expr


def test_known_dimension_values():
    assert dim_A2(group_from_expr("Z(3)")) == 3
    assert dim_A2(group_from_expr("Tstar")) == 15
    assert dim_A2(group_from_expr("Istar")) == 65


def test_diagram_budget():
    # the walk takes a table, so the table's entries budget is its budget
    assert dim_A2(group_from_expr("Z(121)")) == 1281
    with pytest.raises(ResourceLimitError, match="Z\\(1001\\) needs 1002001 table entries"):
        group_from_expr("Z(1001)")


def test_route_catalog_fits_diagram_budget():
    # the diagram walk's budget is its table's entries budget
    for expr in ROUTE_120 + ROUTE_500:
        assert group_order(expr) ** 2 <= TABLE_MAX_ENTRIES


@pytest.mark.parametrize("expr", [e for e in ROUTE_120 if group_order(e) <= 48])
def test_extra_central_generators_change_neither_walk(expr):
    G = group_from_expr(expr)
    n = G.order
    center = [z for z in range(n) if all(G.mul(z, g) == G.mul(g, z) for g in range(n))]
    # the identity, every central element, and each given generator twice
    padded = FiniteGroup(G.rows, G.family_tag, generators=[0] + center + G.generators * 2)
    want = dim_A2(G)
    assert orbit_count_dims(G) == want
    assert dim_A2(padded) == orbit_count_dims(padded) == want
    assert diagram_count_per_move(padded) == orbit_count_per_move(padded) == want


@pytest.mark.parametrize("expr", ROUTE_120)
def test_diagram_walk_matches_the_per_move_walk(expr):
    # the per-move walk applies the three transpositions as moves instead of
    # marking all six orderings of a triple at once
    G = group_from_expr(expr)
    assert dim_A2(G) == diagram_count_per_move(G)


@settings(max_examples=25, deadline=2000)
@given(
    st.sampled_from([e for e in ROUTE_120 if group_order(e) <= 48]),
    st.lists(st.integers(min_value=0, max_value=47), max_size=3),
)
def test_diagram_walk_with_extra_generators_matches_literal_closure(expr, extra):
    G = group_from_expr(expr)
    G.generators = list(G.generators) + [x % G.order for x in extra]
    assert dim_A2(G) == orbit_count_literal(G)


def test_diagram_count_grows_when_generators_miss_the_group():
    # the walk relies on conjugation by the generators reaching all of
    # Inn(G), so a generator left out must show; Tstar is non-abelian
    G = group_from_expr("Tstar")
    assert dim_A2(G) == 15
    for kept in list(G.generators):
        G.generators = [kept]
        assert dim_A2(G) > 15
