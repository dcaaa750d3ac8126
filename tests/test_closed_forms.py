"""Closed-form dimension polynomials against counting oracles."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalogs import NON_SPHERICAL, SPHERICAL
from class_oracles import cube_matched_sum
from oracles import (
    closed_delta3,
    closed_family_d1,
    closed_family_d2,
    fraction_closed_dims,
    fraction_closed_z2_orbit,
    fraction_p3,
)
from thetadim.burnside import burnside_dims
from thetadim.characters import d2_char_formula
from thetadim.closed_forms import (
    SphericalMatchError,
    SphericalSpec,
    closed_class_count,
    closed_dims,
    closed_order,
    closed_z2_orbit,
    p2,
    p3,
    spec_from_expr,
)
from thetadim.conjugacy import (
    compute_classes,
    d1_class_formula,
    z2_orbit_count,
)
from thetadim.expr import Atom, GroupExpr
from thetadim.group_core import group_from_expr


def partitions_with_parts_at_most(n, largest):
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, largest + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_partition_counters_match_brute_force():
    for n in range(0, 121):
        assert p3(n) == partitions_with_parts_at_most(n, 3), n
        assert p2(n) == partitions_with_parts_at_most(n, 2), n
    for n in (-1, -2, -10):
        assert p3(n) == 0


def test_spec_from_expr_case_mapping():
    assert spec_from_expr("Z(12)") == SphericalSpec("a", n=12)
    assert spec_from_expr("Z(3)xZ(4)") == SphericalSpec("a", n=12)
    assert spec_from_expr("Dstar(6)") == SphericalSpec("b", p=6)
    assert spec_from_expr("Z(5) x Dstar(4)") == SphericalSpec("b", m=5, p=4)
    assert spec_from_expr("Dprime(2,9)") == SphericalSpec("c", k=2, p=9)
    assert spec_from_expr("Tstar") == SphericalSpec("d")
    assert spec_from_expr("Z(5)xTstar") == SphericalSpec("d", m=5)
    assert spec_from_expr("Tprime(2)") == SphericalSpec("e", k=2)
    assert spec_from_expr("Ostar") == SphericalSpec("f")
    assert spec_from_expr("Istar") == SphericalSpec("g")
    # the k=1 tower group is the same group as the tetrahedral case
    assert spec_from_expr("Tprime(1)") == SphericalSpec("d")
    # factor order does not matter
    assert spec_from_expr("Tstar x Z(5)") == spec_from_expr("Z(5) x Tstar")


@pytest.mark.parametrize("expr", NON_SPHERICAL + ["Tstar x Ostar"])
def test_spec_from_expr_rejects_non_spherical(expr):
    with pytest.raises(SphericalMatchError):
        spec_from_expr(expr)


def test_spec_constraint_validation():
    for bad in [
        lambda: SphericalSpec("a", n=0),
        lambda: SphericalSpec("b", m=2, p=3),
        lambda: SphericalSpec("b", p=0),
        lambda: SphericalSpec("c", k=-1, p=3),
        lambda: SphericalSpec("c", k=1, p=4),
        lambda: SphericalSpec("d", m=3),
        lambda: SphericalSpec("e", k=1),
        lambda: SphericalSpec("e", k=2, m=2),
        lambda: SphericalSpec("f", m=9),
        lambda: SphericalSpec("g", m=6),
        lambda: SphericalSpec("q"),
    ]:
        with pytest.raises((SphericalMatchError, ValueError)):
            bad()


def test_spec_record_keeps_field_order_and_defaults_and_checks_every_build():
    spec = SphericalSpec("d")
    assert SphericalSpec._fields == ("case", "m", "n", "p", "k")
    assert (spec.m, spec.n, spec.p, spec.k) == (1, 0, 0, 0)
    assert spec == SphericalSpec("d", 1, 0, 0, 0)
    assert spec._replace(m=5) == SphericalSpec("d", m=5)
    with pytest.raises(SphericalMatchError):
        spec._replace(m=3)
    with pytest.raises(SphericalMatchError):
        SphericalSpec._make(("d", 3, 0, 0, 0))


@pytest.mark.parametrize("expr", SPHERICAL)
def test_order_and_class_count_formulas(expr):
    spec = spec_from_expr(expr)
    G = group_from_expr(expr)
    assert closed_order(spec) == G.order
    assert closed_class_count(spec) == compute_classes(G).num_classes


@pytest.mark.parametrize("expr", [e for e in SPHERICAL if group_from_expr(e).order <= 500])
def test_closed_dims_match_averaging(expr):
    spec = spec_from_expr(expr)
    dim, ker = closed_dims(spec)
    assert isinstance(dim, int) and isinstance(ker, int)
    r = burnside_dims(expr)
    assert (dim, ker) == (r.dim_full, r.dim_ker)
    assert dim - ker == closed_z2_orbit(spec)
    assert closed_z2_orbit(spec) == z2_orbit_count(compute_classes(group_from_expr(expr)))


FAMILY_ATOMS = (
    [Atom("Z", (n,)) for n in (1, 2, 3, 12, 27, 30)]
    + [Atom("Dstar", (p,)) for p in (1, 2, 3, 6, 9, 10)]
    + [Atom("Dprime", (k, p)) for k in (0, 1, 2) for p in (3, 5, 9)]
    + [Atom("Tprime", (k,)) for k in (2, 3)]
)


@pytest.mark.parametrize("atom", FAMILY_ATOMS, ids=str)
def test_family_polynomials_match_class_and_character_data(atom):
    expr = f"{atom.kind}({','.join(map(str, atom.params))})" if atom.params else atom.kind
    cd = compute_classes(group_from_expr(expr))
    assert closed_delta3(atom) == cube_matched_sum(cd)
    assert closed_family_d1(atom) == d1_class_formula(cd)
    assert closed_family_d2(atom) == d2_char_formula(expr)[1]


def test_tower_polynomials_require_level_two():
    # the k=1 tower group falls outside the family polynomials; its cube-pair
    # sum is 168 while the k>=2 pattern would predict 216
    for fn in (closed_delta3, closed_family_d1, closed_family_d2):
        with pytest.raises(ValueError):
            fn(Atom("Tprime", (1,)))
    cd = compute_classes(group_from_expr("Tprime(1)"))
    assert cube_matched_sum(cd) == 168


def spherical_spec_grid():
    specs = []
    for n in list(range(1, 60)) + [120, 199, 200]:
        specs.append(SphericalSpec("a", n=n))
    for p in list(range(1, 26)) + [50]:
        for m in (1, 3, 7, 49):
            if gcd(m, 2 * p) == 1:
                specs.append(SphericalSpec("b", m=m, p=p))
    for k in range(0, 10):
        for p in (3, 5, 15, 49):
            for m in (1, 5, 11):
                if gcd(m, 2 * p) == 1:
                    specs.append(SphericalSpec("c", m=m, p=p, k=k))
    for case in ("d", "f", "g"):
        for m in (1, 7, 11, 13, 23, 49):
            if case != "g" or gcd(m, 30) == 1:
                specs.append(SphericalSpec(case, m=m))
    for k in range(2, 10):
        for m in (1, 5, 25, 49):
            specs.append(SphericalSpec("e", m=m, k=k))
    return specs


def test_closed_dims_integrality_across_grid():
    for spec in spherical_spec_grid():
        dim, ker = closed_dims(spec)
        assert isinstance(dim, int) and isinstance(ker, int), spec
        assert 0 <= ker <= dim, spec
        assert dim - ker == closed_z2_orbit(spec), spec


def test_divisibility_branches_against_averaging():
    # both residue branches of every case, kept within the averaging budget
    branch_cases = [
        "Z(9)",  # 3 | n
        "Z(10)",  # 3 does not divide n
        "Dstar(6)",  # 3 | p
        "Dstar(4)",  # 3 does not divide p
        "Z(7) x Dstar(6)",
        "Z(5) x Dstar(7)",
        "Dprime(1,9)",  # 3 | p
        "Dprime(1,5)",  # 3 does not divide p
        "Z(7) x Dprime(0,3)",
        "Z(5)xTstar",  # m = 1 handled above; 3 never divides m here
        "Z(7)xTprime(2)",
        "Z(5) x Ostar",
        "Z(7) x Istar",
    ]
    for expr in branch_cases:
        spec = spec_from_expr(expr)
        assert closed_order(spec) <= 2000
        r = burnside_dims(expr)
        assert closed_dims(spec) == (r.dim_full, r.dim_ker), expr


def test_family_polynomial_values_are_fractions_with_unit_denominator():
    for atom in FAMILY_ATOMS:
        assert isinstance(closed_family_d1(atom), Fraction)
        assert closed_family_d1(atom).denominator == 1
        assert closed_family_d2(atom).denominator == 1
        assert closed_delta3(atom) >= 1


def test_odd_binary_dihedral_case_is_the_metacyclic_case_at_k_0():
    # for odd p, Dstar(p) is Dprime(0,p) (take a = y x^2), so case (b) takes
    # the values of case (c) at k = 0, and the groups agree under averaging
    for p in range(3, 400, 2):
        for m in range(1, 60):
            if gcd(m, 2 * p) == 1:
                b = SphericalSpec("b", m=m, p=p)
                c = SphericalSpec("c", m=m, k=0, p=p)
                assert closed_dims(b) == closed_dims(c), (m, p)
                assert closed_z2_orbit(b) == closed_z2_orbit(c), (m, p)
    for m, p in [(1, 1), (3, 1), (1, 9), (5, 9), (7, 15)]:
        r = burnside_dims(f"Z({m}) x Dstar({p})")
        assert closed_dims(SphericalSpec("b", m=m, p=p)) == (r.dim_full, r.dim_ker)
        if p > 1:
            r = burnside_dims(f"Z({m}) x Dprime(0,{p})")
            assert closed_dims(SphericalSpec("b", m=m, p=p)) == (r.dim_full, r.dim_ker)
    assert closed_dims(spec_from_expr("Dstar(9)")) == closed_dims(spec_from_expr("Dprime(0,9)")) == (47, 36)


def _accepted_specs(max_m: int, max_p: int, max_k: int):
    """Every spec spec_from_expr accepts for Z(m) times one atom (or none),
    with m <= max_m, p <= max_p and k <= max_k."""
    atoms = [None, Atom("Tstar"), Atom("Ostar"), Atom("Istar")]
    atoms += [Atom("Dstar", (p,)) for p in range(1, max_p + 1)]
    atoms += [Atom("Dprime", (k, p)) for k in range(max_k + 1) for p in range(3, max_p + 1, 2)]
    atoms += [Atom("Tprime", (k,)) for k in range(1, max_k + 1)]
    for m in range(1, max_m + 1):
        for atom in atoms:
            expr = GroupExpr((Atom("Z", (m,)),) + ((atom,) if atom else ()))
            try:
                yield spec_from_expr(expr)
            except SphericalMatchError:
                continue


def _assert_integer_forms_match_fractions(spec):
    assert closed_dims(spec) == fraction_closed_dims(spec), spec
    assert closed_z2_orbit(spec) == fraction_closed_z2_orbit(spec), spec


def test_integer_closed_forms_match_the_fraction_forms_on_every_small_spec():
    cases = set()
    for spec in _accepted_specs(max_m=60, max_p=200, max_k=4):
        cases.add(spec.case)
        _assert_integer_forms_match_fractions(spec)
    assert cases == set("abcdefg")
    for n in range(-3, 400):
        assert p3(n) == fraction_p3(n), n


@st.composite
def _large_specs(draw):
    case = draw(st.sampled_from("abcdefg"))
    m = draw(st.integers(1, 10**9))
    fields = {"a": {"n": m}, "d": {"m": m}, "f": {"m": m}, "g": {"m": m}}.get(case)
    if case in "bc":
        p = draw(st.integers(1, 10**9))
        fields = {"m": m, "p": p} if case == "b" else {"m": m, "p": p | 1, "k": draw(st.integers(0, 40))}
    elif case == "e":
        fields = {"m": m, "k": draw(st.integers(2, 40))}
    try:
        return SphericalSpec(case, **fields)
    except SphericalMatchError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_large_specs())
def test_integer_closed_forms_match_the_fraction_forms_on_large_specs(spec):
    _assert_integer_forms_match_fractions(spec)
