"""Fixed-point averaging over the pair action and its literal oracles."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalogs import NON_SPHERICAL, RANDOM_PRODUCTS_500, ROUTE_120, ROUTE_500, SPHERICAL
from oracles import (
    orbit_count_literal,
    orbit_count_per_move,
    plain_action,
    sym3_trace,
    twisted_action,
)
from thetadim.characters import table_for
from thetadim.cli import EXIT_RESOURCE, main
from thetadim.closed_forms import closed_dims, spec_from_expr
import thetadim.burnside as burnside
from thetadim.burnside import burnside_dims, orbit_count_dims
from thetadim import conjugacy
from thetadim.conjugacy import class_data_for, compute_classes, z2_orbit_count
from thetadim.diagrams import dim_A2
from thetadim.expr import parse_group_expr
from thetadim.group_core import (
    TABLE_MAX_ENTRIES,
    FiniteGroup,
    cyclic_group,
    group_from_expr,
)
from thetadim.normal_form import ResourceLimitError, group_order


def test_action_permutations_are_literal():
    G = group_from_expr("Dstar(3)")
    for g, h in itertools.product(range(G.order), repeat=2):
        p = plain_action(G, g, h)
        t = twisted_action(G, g, h)
        for x in range(G.order):
            assert p.perm[x] == G.mul(G.mul(g, x), G.inv(h))
            assert t.perm[x] == G.mul(G.mul(h, G.inv(x)), G.inv(g))
        assert (p.kind, p.g, p.h) == ("plain", g, h)
        assert (t.kind, t.g, t.h) == ("twisted", g, h)


def test_actions_are_bijections():
    G = group_from_expr("Tprime(1)")
    rng = random.Random(3)
    for _ in range(20):
        g, h = rng.randrange(G.order), rng.randrange(G.order)
        for a in (plain_action(G, g, h), twisted_action(G, g, h)):
            assert sorted(a.perm) == list(range(G.order))


def test_twisted_square_and_cube_composition():
    G = group_from_expr("Dprime(0,3)")
    rng = random.Random(11)
    for _ in range(30):
        g, h = rng.randrange(G.order), rng.randrange(G.order)
        tw = twisted_action(G, g, h)
        sq = plain_action(G, G.mul(h, g), G.mul(g, h))
        cu = twisted_action(G, G.mul(G.mul(g, h), g), G.mul(G.mul(h, g), h))
        twice = [tw.perm[tw.perm[x]] for x in range(G.order)]
        thrice = [tw.perm[twice[x]] for x in range(G.order)]
        assert twice == list(sq.perm)
        assert thrice == list(cu.perm)


def test_twisted_fixed_points_count_square_roots():
    G = group_from_expr("Tstar")
    rng = random.Random(5)
    for _ in range(30):
        g, h = rng.randrange(G.order), rng.randrange(G.order)
        tw = twisted_action(G, g, h)
        fixed = sum(1 for x in range(G.order) if tw.perm[x] == x)
        literal = sum(1 for x in range(G.order) if G.mul(G.mul(x, g), x) == h)
        assert fixed == literal


def multiset_oracle(perm):
    """Count size-3 multisets over 0..n-1 fixed setwise by perm."""
    n = len(perm)
    count = 0
    for c in itertools.combinations_with_replacement(range(n), 3):
        image = tuple(sorted(perm[x] for x in c))
        if image == c:
            count += 1
    return count


def test_symmetric_cube_trace_tiny_cases():
    G = cyclic_group(2)
    assert sym3_trace(plain_action(G, 0, 0)) == 4
    assert sym3_trace(plain_action(G, 1, 0)) == 0
    assert sym3_trace(twisted_action(G, 0, 0)) == 4


@pytest.mark.parametrize("expr", ["Z(4)", "Dstar(2)", "Dstar(3)", "Tprime(1)"])
def test_symmetric_cube_trace_counts_fixed_multisets(expr):
    G = group_from_expr(expr)
    rng = random.Random(G.order)
    pairs = [(0, 0), (0, 1), (1, 0)] + [
        (rng.randrange(G.order), rng.randrange(G.order)) for _ in range(12)
    ]
    for g, h in pairs:
        for a in (plain_action(G, g, h), twisted_action(G, g, h)):
            got = sym3_trace(a)
            assert got == multiset_oracle(a.perm), (expr, a.kind, g, h)
            assert got.denominator == 1 and got >= 0


def averaging_oracle(G):
    """Average the two fixed-multiset counts over every group pair."""
    n = G.order
    d1 = Fraction(0)
    d2 = Fraction(0)
    for g in range(n):
        for h in range(n):
            d1 += multiset_oracle(plain_action(G, g, h).perm)
            d2 += multiset_oracle(twisted_action(G, g, h).perm)
    return d1 / n**2, d2 / n**2


@pytest.mark.parametrize("expr", ["Z(1)", "Z(6)", "Dstar(2)", "Dprime(0,3)"])
def test_dimensions_match_literal_averaging(expr):
    G = group_from_expr(expr)
    want_d1, want_d2 = averaging_oracle(G)
    r = burnside_dims(G)
    assert (r.d1, r.d2) == (want_d1, want_d2)
    assert r.dim_full == (r.d1 + r.d2) / 2


MODE_CATALOG = ["Z(12)", "Dstar(2)", "Dstar(5)", "Dprime(1,3)", "Tprime(1)", "Tstar", "Ostar"]


@pytest.mark.parametrize("expr", MODE_CATALOG)
def test_naive_and_class_modes_agree(expr):
    # a table is counted pair by pair, its expression reduced by classes
    a = burnside_dims(group_from_expr(expr))
    b = burnside_dims(expr)
    assert a.mode == "naive" and b.mode == "class"
    for field in ("order", "d1", "d2", "dim_full", "dim_ker", "num_classes"):
        assert getattr(a, field) == getattr(b, field), (expr, field)


# every catalog group of order <= 300
NAIVE_CATALOG = sorted(
    {
        e
        for e in ROUTE_500 + SPHERICAL + NON_SPHERICAL + RANDOM_PRODUCTS_500
        if group_order(e) <= 300
    },
    key=lambda e: (group_order(e), e),
)


@pytest.mark.parametrize("expr", NAIVE_CATALOG)
def test_naive_and_class_modes_agree_on_the_catalog(expr):
    G = group_from_expr(expr)
    a = burnside_dims(G)
    b = burnside_dims(expr)
    assert (a.dim_full, a.dim_ker, a.num_classes) == (b.dim_full, b.dim_ker, b.num_classes)
    assert a.num_classes == compute_classes(G).num_classes


def test_naive_mode_counts_classes_from_its_own_table(monkeypatch):
    def no_classes(group):
        raise AssertionError("naive mode looked up class data")

    G = group_from_expr("Dprime(3,3)")
    monkeypatch.setattr(conjugacy, "compute_classes", no_classes)
    monkeypatch.setattr(burnside, "atom_classes", no_classes)
    assert burnside_dims(G).num_classes == 48


def test_naive_mode_refuses_a_table_whose_centralizers_do_not_add_up():
    # a Latin square with identity 0 and two-sided inverses that is not
    # associative: its pl[u][u] sum to 20, not a multiple of 6
    rows = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 4, 5, 3, 2],
        [2, 4, 1, 0, 5, 3],
        [3, 5, 0, 1, 2, 4],
        [4, 3, 5, 2, 1, 0],
        [5, 2, 3, 4, 0, 1],
    ]
    loop = FiniteGroup(rows, generators=[1])
    with pytest.raises(AssertionError, match="centralizer sizes"):
        burnside_dims(loop)


def test_the_argument_picks_the_mode():
    # at every order: a table is counted pair by pair, an expression or its
    # string reduced by classes
    for expr in ("Z(4)", "Dstar(100)", "Z(1000)"):
        assert burnside_dims(group_from_expr(expr)).mode == "naive", expr
        assert burnside_dims(expr).mode == "class", expr
        assert burnside_dims(parse_group_expr(expr)).mode == "class", expr


def test_results_are_nonnegative_integers():
    for expr in MODE_CATALOG:
        r = burnside_dims(expr)
        for field in ("d1", "d2", "dim_full", "dim_ker"):
            v = getattr(r, field)
            assert v.denominator == 1 and v >= 0, (expr, field)
        assert r.dim_ker <= r.dim_full


def test_kernel_deficit_is_the_inversion_orbit_count():
    for expr in MODE_CATALOG:
        r = burnside_dims(expr)
        cd = compute_classes(group_from_expr(expr))
        assert r.dim_full - r.dim_ker == z2_orbit_count(cd), expr


@pytest.mark.parametrize("expr", ["Z(30)", "Dstar(7)", "Tprime(1)", "Z(2) x Z(2)"])
def test_orbit_enumeration_agrees_with_averaging(expr):
    assert orbit_count_dims(group_from_expr(expr)) == burnside_dims(expr).dim_full


def test_pair_budget():
    # the library has no order cap: an expression is held to the class-data cap
    assert burnside_dims("Z(2025)").order == 2025
    with pytest.raises(ResourceLimitError, match="class-data budget 10000000"):
        burnside_dims("Z(10000001)")


def test_orbit_budget():
    # the walk takes a table, so the table's entries budget is its budget
    assert orbit_count_dims(group_from_expr("Z(151)")) == burnside_dims("Z(151)").dim_full
    with pytest.raises(ResourceLimitError, match="Z\\(1001\\) needs 1002001 table entries"):
        group_from_expr("Z(1001)")


# one to three generators; the literal closure takes about 0.5 s at order 120
ORBIT_ORACLE_CATALOG = [
    e for e in ROUTE_120 if group_order(e) <= 60 or e in ("Istar", "Z(5) x Tstar")
]


@pytest.mark.parametrize("expr", ORBIT_ORACLE_CATALOG)
def test_orbit_walk_matches_literal_closure(expr):
    # the literal closure walks both translations by every generator and
    # starts a search at every sorted triple in turn
    G = group_from_expr(expr)
    assert orbit_count_dims(G) == orbit_count_literal(G)


@pytest.mark.parametrize("expr", ROUTE_120)
def test_orbit_walk_matches_the_per_move_walk(expr):
    # the per-move walk applies inversion as a move instead of marking each
    # pair with its inverse pair
    G = group_from_expr(expr)
    assert orbit_count_dims(G) == orbit_count_per_move(G)


def test_orbit_catalog_covers_one_to_three_generators():
    counts = {len(group_from_expr(e).generators) for e in ORBIT_ORACLE_CATALOG}
    assert {1, 2, 3} <= counts


@pytest.mark.parametrize("expr", [e for e in ROUTE_120 if group_order(e) <= 24])
def test_orbit_count_depends_only_on_the_generated_group(expr):
    G = group_from_expr(expr)
    expected = orbit_count_dims(G)
    G.generators = list(range(1, G.order))
    assert orbit_count_dims(G) == expected


def test_orbit_count_grows_when_generators_miss_the_group():
    # a move left out of the walk would go unnoticed without this check;
    # the generators act by conjugation, so the group must be non-abelian
    G = group_from_expr("Tstar")
    assert orbit_count_dims(G) == 15
    for kept in list(G.generators):
        G.generators = [kept]
        assert orbit_count_dims(G) > 15


@pytest.mark.parametrize("generators", [[], [1], [2, 1], [1, 2, 3]])
def test_orbit_count_of_an_abelian_group_ignores_the_generators(generators):
    # conjugation is trivial, so re-centring and inversion reach every orbit
    G = group_from_expr("Z(2) x Z(2)")
    G.generators = generators
    assert orbit_count_dims(G) == 5


@settings(max_examples=25, deadline=2000)
@given(
    st.sampled_from([e for e in ROUTE_120 if group_order(e) <= 48]),
    st.lists(st.integers(min_value=0, max_value=47), max_size=3),
)
def test_orbit_walk_with_extra_generators_matches_literal_closure(expr, extra):
    G = group_from_expr(expr)
    G.generators = list(G.generators) + [x % G.order for x in extra]
    assert orbit_count_dims(G) == orbit_count_literal(G)


def test_budget_error_suggests_cheaper_route():
    # past the class-data cap the chars route refuses too, so only the closed
    # form is named, where it applies
    cases = [
        ("Z(10000001)", "order 10000001 exceeds the class-data budget 10000000"
         "; use the closed-form route instead"),
        # the closed form does not apply to a group that is not spherical, and
        # the budget holds each atom
        ("Z(2)xZ(20000000)", "order 20000000 exceeds the class-data budget 10000000"),
    ]
    for expr, message in cases:
        with pytest.raises(ResourceLimitError) as err:
            burnside_dims(expr)
        assert str(err.value) == message, expr


def _refuse_tables_above(monkeypatch, max_order):
    real_init = FiniteGroup.__init__

    def guarded(self, rows, *args, **kwargs):
        if len(rows) > max_order:
            raise AssertionError(f"built a multiplication table of order {len(rows)}")
        real_init(self, rows, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", guarded)


@pytest.mark.parametrize(
    "expr",
    ["Z(2000)", "Dstar(250)", "Dprime(2,27)", "Tprime(4)", "Z(7) x Istar", "Z(13) x Istar"],
)
def test_class_level_routes_build_no_big_tables(monkeypatch, expr):
    # no atom builds a table, a binary polyhedral one included
    _refuse_tables_above(monkeypatch, 0)
    result = burnside_dims(expr)
    assert (result.dim_full, result.dim_ker) == closed_dims(spec_from_expr(expr))
    assert result.num_classes == class_data_for(expr).num_classes
    assert table_for(expr).class_data == class_data_for(expr)


def test_budgets_are_checked_before_anything_is_built(monkeypatch, capsys):
    # the class-data cap in the library, and the entries budget of the table
    # that the command line builds for the walks
    _refuse_tables_above(monkeypatch, 0)

    def refuse(group):
        raise AssertionError(f"computed the classes of order {group.order}")

    monkeypatch.setattr(conjugacy, "compute_classes", refuse)
    with pytest.raises(ResourceLimitError):
        burnside_dims("Z(10000001)")
    for method, expr in (
        ("orbits", "Dstar(251)"),
        ("orbits", "Z(3) x Dstar(84)"),
        ("diagrams", "Dprime(2,67)"),
        ("diagrams", "Z(100000)"),
    ):
        assert main(["compute", "--method", method, expr]) == EXIT_RESOURCE, expr
        assert "budget is 1000000." in capsys.readouterr().err
    # invalid parameters are still reported as such, whatever the order
    with pytest.raises(ValueError):
        burnside_dims("Dprime(30,4)")


# the command-line route that runs each walk
_WALK_ROUTES = {orbit_count_dims: "orbits", dim_A2: "diagrams"}


@pytest.mark.parametrize("walk", list(_WALK_ROUTES))
@pytest.mark.parametrize("expr", ["Z(9) x Istar", "Z(21) x Ostar", "Tstar x Ostar"])
def test_walks_past_the_entries_budget_build_only_a_polyhedral_atom(
    monkeypatch, capsys, walk, expr
):
    # a binary polyhedral atom is its coset action's rule, so the product's
    # table is refused before any table is built, and the walk never runs
    assert group_order(expr) ** 2 > TABLE_MAX_ENTRIES
    _refuse_tables_above(monkeypatch, 0)

    def never(group):
        raise AssertionError(f"walked a table of order {group.order}")

    monkeypatch.setattr(sys.modules[walk.__module__], walk.__name__, never)
    assert main(["compute", "--method", _WALK_ROUTES[walk], expr]) == EXIT_RESOURCE
    assert "budget is 1000000." in capsys.readouterr().err


def test_orbit_walk_visited_set_is_held_to_the_entries_budget(monkeypatch, capsys):
    # the n(n+1)/2 states of the identity slice are fewer than the n^2 table
    # entries, so the table's entries budget is the walk's budget too
    assert 1001 * 1002 // 2 <= TABLE_MAX_ENTRIES < 1001 * 1001
    _refuse_tables_above(monkeypatch, 0)
    argv = ["compute", "--method", "orbits", "Z(1001)", "--max-order", "10000"]
    assert main(argv) == EXIT_RESOURCE
    assert "1002001 table entries" in capsys.readouterr().err
