"""Fixed-point averaging over the pair action and its literal oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from catalogs import ROUTE_120
from oracles import plain_action, sym3_trace, twisted_action
from thetadim.characters import table_for
from thetadim.closed_forms import closed_dims, spec_from_expr
from thetadim.burnside import (
    DEFAULT_ORBIT_MAX_ORDER,
    DEFAULT_PAIR_MAX_ORDER,
    ResourceLimitError,
    burnside_dims,
    orbit_count_dims,
)
from thetadim.conjugacy import class_data_for, compute_classes, z2_orbit_count
from thetadim.diagrams import dim_A2
from thetadim.group_core import FiniteGroup, cyclic_group, group_from_expr


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
    assert r.dim_ker == (r.ker_d1 + r.ker_d2) / 2


MODE_CATALOG = ["Z(12)", "Dstar(2)", "Dstar(5)", "Dprime(1,3)", "Tprime(1)", "Tstar", "Ostar"]


@pytest.mark.parametrize("expr", MODE_CATALOG)
def test_naive_and_class_modes_agree(expr):
    a = burnside_dims(expr, mode="naive")
    b = burnside_dims(expr, mode="class")
    assert a.mode == "naive" and b.mode == "class"
    for field in ("order", "d1", "d2", "dim_full", "dim_ker", "ker_d1", "ker_d2"):
        assert getattr(a, field) == getattr(b, field), (expr, field)


def test_auto_mode_picks_naive_only_for_small_groups():
    assert burnside_dims("Dstar(2)").mode == "naive"
    assert burnside_dims("Dstar(100)").mode == "class"


def test_results_are_nonnegative_integers():
    for expr in MODE_CATALOG:
        r = burnside_dims(expr)
        for field in ("d1", "d2", "dim_full", "dim_ker", "ker_d1", "ker_d2"):
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
    assert orbit_count_dims(expr) == burnside_dims(expr).dim_full


def test_pair_budget():
    with pytest.raises(ResourceLimitError) as err:
        burnside_dims("Z(2025)")
    assert "2000" in str(err.value)
    assert DEFAULT_PAIR_MAX_ORDER == 2000
    # explicit budget raises earlier ...
    with pytest.raises(ResourceLimitError):
        burnside_dims("Z(150)", max_order=100)
    # ... or lifts the default
    assert burnside_dims("Z(2025)", max_order=2500).order == 2025


def test_orbit_budget():
    with pytest.raises(ResourceLimitError):
        orbit_count_dims("Z(151)")
    assert DEFAULT_ORBIT_MAX_ORDER == 150
    assert orbit_count_dims("Z(151)", max_order=151) == burnside_dims("Z(151)").dim_full


def test_budget_error_suggests_cheaper_route():
    with pytest.raises(ResourceLimitError) as err:
        burnside_dims("Z(5000)")
    message = str(err.value).lower()
    assert "character" in message or "closed" in message


def _refuse_tables_above(monkeypatch, max_order):
    real_init = FiniteGroup.__init__

    def guarded(self, order, *args, **kwargs):
        if order > max_order:
            raise AssertionError(f"built a multiplication table of order {order}")
        real_init(self, order, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", guarded)


@pytest.mark.parametrize(
    "expr",
    ["Z(2000)", "Dstar(250)", "Dprime(2,27)", "Tprime(4)", "Z(7) x Istar", "Z(13) x Istar"],
)
def test_class_level_routes_build_no_big_tables(monkeypatch, expr):
    # only the binary polyhedral atoms (order <= 120) may build a table
    _refuse_tables_above(monkeypatch, 120)
    result = burnside_dims(expr, mode="class")
    assert (result.dim_full, result.dim_ker) == closed_dims(spec_from_expr(expr))
    assert result.num_classes == class_data_for(expr).num_classes
    assert table_for(expr).class_data == class_data_for(expr)


def test_budgets_are_checked_before_anything_is_built(monkeypatch):
    _refuse_tables_above(monkeypatch, 0)
    for refused in (
        lambda: burnside_dims("Z(100000)"),
        lambda: burnside_dims("Z(7) x Istar", max_order=100),
        lambda: orbit_count_dims("Z(2) x Istar"),
        lambda: dim_A2("Z(3) x Ostar"),
        lambda: dim_A2("Z(100000)"),
    ):
        with pytest.raises(ResourceLimitError):
            refused()
    # invalid parameters are still reported as such, whatever the order
    with pytest.raises(ValueError):
        burnside_dims("Dprime(30,4)")
