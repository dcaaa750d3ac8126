"""End-to-end acceptance checks: frozen values, route agreement, time budgets.

Every number asserted here is written out literally, so a regression in any
computation route fails against a fixed target rather than against another
routine that might drift with it.  The timed tests run first (tests execute
in definition order) so their budgets are measured from cold caches; the
untimed structural tests reuse the cached groups and tables afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from math import gcd

from catalogs import ROUTE_120, ROUTE_500
from class_oracles import cube_matched_sum
from oracles import (
    check_column_orthogonality,
    check_degree_sum,
    check_row_orthogonality,
    presentation_for_family,
)
from thetadim.burnside import burnside_dims, orbit_count_dims
from thetadim.characters import CharacterTable, d2_char_formula, table_for
from thetadim.cli import main
from thetadim.closed_forms import SphericalSpec, closed_dims, closed_z2_orbit, spec_from_expr
from thetadim.conjugacy import (
    compute_classes,
    d1_class_formula,
    product_class_data,
    z2_orbit_count,
)
from thetadim.coset_enum import enumerate_cosets
from thetadim.cyclo import from_int, zeta
from thetadim.diagrams import dim_A2
from thetadim.expr import Atom, parse_group_expr
from thetadim.group_core import construct_family, group_from_expr


@lru_cache(maxsize=None)
def _group(expr: str):
    return group_from_expr(expr)


@lru_cache(maxsize=None)
def _classes(expr: str):
    return compute_classes(_group(expr))


@lru_cache(maxsize=None)
def _table(expr: str) -> CharacterTable:
    return table_for(expr)


@lru_cache(maxsize=None)
def _burnside(expr: str):
    return burnside_dims(_group(expr))


def _p3_brute(n: int) -> int:
    """Partitions of n into at most three parts, counted one by one."""
    if n < 0:
        return 0
    return sum(
        1 for a in range(n + 1) for b in range(a + 1) if 0 <= n - a - b <= b
    )


# ---------------------------------------------------------------------------
# binary polyhedral constants, every route, under five seconds per group
# ---------------------------------------------------------------------------

POLYHEDRAL_CONSTANTS = {
    "Tstar": (15, 10),
    "Ostar": (35, 27),
    "Istar": (65, 56),
}


def test_binary_polyhedral_constants_all_routes():
    for expr, (dim, ker) in POLYHEDRAL_CONSTANTS.items():
        start = time.perf_counter()

        assert closed_dims(spec_from_expr(expr)) == (dim, ker)

        cd = _classes(expr)
        z2 = z2_orbit_count(cd)
        char_dim = (d1_class_formula(cd) + d2_char_formula(expr)[1]) / 2
        assert char_dim == dim
        assert dim - z2 == ker

        res = _burnside(expr)
        assert (res.dim_full, res.dim_ker) == (dim, ker)

        group = _group(expr)
        assert orbit_count_dims(group) == dim
        assert dim_A2(group) == dim

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{expr} took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# binary dihedral 4p table, p = 1..15, under ten seconds
# ---------------------------------------------------------------------------

BINARY_DIHEDRAL_TABLE = {
    1: (4, 1),
    2: (9, 4),
    3: (11, 6),
    4: (18, 11),
    5: (20, 13),
    6: (30, 21),
    7: (32, 23),
    8: (44, 33),
    9: (47, 36),
    10: (61, 48),
    11: (64, 51),
    12: (81, 66),
    13: (84, 69),
    14: (103, 86),
    15: (107, 90),
}


def test_binary_dihedral_table(capsys):
    start = time.perf_counter()
    assert main(["table", "d4p", "--max-p", "15"]) == 0
    elapsed = time.perf_counter() - start

    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,dim_Cpi,dim_ker_eps,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 16))
    for r in rows:
        assert (int(r[1]), int(r[2])) == BINARY_DIHEDRAL_TABLE[int(r[0])]
        assert r[3] == "closed+burnside"
    assert elapsed < 10.0, f"table took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# order 8*3^k tower table, k = 1..9 closed with fixed-point confirmation
# on the small members, under sixty seconds
# ---------------------------------------------------------------------------

TOWER_TABLE = {
    1: (15, 10),
    2: (78, 66),
    3: (570, 537),
    4: (4782, 4686),
    5: (42042, 41757),
    6: (375438, 374586),
    7: (3370170, 3367617),
    8: (30305262, 30297606),
    9: (272668602, 272645637),
}


def test_tower_table(capsys):
    start = time.perf_counter()
    assert main(["table", "t8_3k", "--max-k", "9"]) == 0
    elapsed = time.perf_counter() - start

    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,dim_Cpi,dim_ker_eps,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    for r in rows:
        k = int(r[0])
        assert (int(r[1]), int(r[2])) == TOWER_TABLE[k]
        # class-mode pair counting confirms every member: the largest,
        # k = 9 (order 157464), is far inside the class-data cap of 10^7
        assert r[3] == "closed+burnside"
    assert elapsed < 60.0, f"table took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# cyclic sweep n = 1..60: all routes against a literal partition count,
# under thirty seconds
# ---------------------------------------------------------------------------


def test_cyclic_sweep_all_routes():
    start = time.perf_counter()
    for n in range(1, 61):
        expr = f"Z({n})"
        expected = (_p3_brute(n), _p3_brute(n - 3))
        dim, ker = expected

        assert closed_dims(spec_from_expr(expr)) == expected

        cd = _classes(expr)
        z2 = z2_orbit_count(cd)
        char_dim = (d1_class_formula(cd) + d2_char_formula(expr)[1]) / 2
        assert (char_dim, char_dim - z2) == expected

        res = _burnside(expr)
        assert (res.dim_full, res.dim_ker) == expected

        group = _group(expr)
        assert orbit_count_dims(group) == dim
        assert dim_A2(group) == dim
        assert dim - z2 == ker

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# coset enumeration recovers every family order, under thirty seconds
# ---------------------------------------------------------------------------


def test_presentation_orders():
    start = time.perf_counter()
    cases: list[tuple[Atom, int]] = []
    for n in range(1, 16):
        cases.append((Atom("Z", (n,)), n))
    for p in range(1, 16):
        cases.append((Atom("Dstar", (p,)), 4 * p))
    for k in range(0, 4):
        for p in range(3, 16, 2):
            cases.append((Atom("Dprime", (k, p)), 2 ** (k + 2) * p))
    for k in range(1, 4):
        cases.append((Atom("Tprime", (k,)), 8 * 3**k))
    cases.append((Atom("Tstar"), 24))
    cases.append((Atom("Ostar"), 48))
    cases.append((Atom("Istar"), 120))

    for atom, order in cases:
        assert construct_family(atom).order == order
        table = enumerate_cosets(presentation_for_family(atom))
        assert table.size == order, f"{atom} enumerated to {table.size}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"enumeration took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# cube-class weighted sums against their closed expressions
# ---------------------------------------------------------------------------


def test_cube_class_weighted_sums():
    for n in range(1, 61):
        expected = 3 * n if n % 3 == 0 else n
        assert cube_matched_sum(_classes(f"Z({n})")) == expected

    for p in range(1, 16):
        expected = 8 * p if p % 3 == 0 else 4 * p
        assert cube_matched_sum(_classes(f"Dstar({p})")) == expected

    for k in range(0, 4):
        for p in range(3, 16, 2):
            expected = (2 ** (k + 3) if p % 3 == 0 else 2 ** (k + 2)) * p
            assert cube_matched_sum(_classes(f"Dprime({k},{p})")) == expected

    # the tower expression 8*3^(k+2) starts at k = 2; the k = 1 member (the
    # binary tetrahedral group) has weighted sum 168, not 8*27 = 216
    assert cube_matched_sum(_classes("Tprime(1)")) == 168
    assert cube_matched_sum(_classes("Tstar")) == 168
    for k in (2, 3):
        assert cube_matched_sum(_classes(f"Tprime({k})")) == 8 * 3 ** (k + 2)


# ---------------------------------------------------------------------------
# exact orthogonality of every character table the suite generates
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _verify_cyclic_table(tab: CharacterTable) -> None:
    """Complete orthogonality check for a cyclic table in O(n^2) integer work.

    Rows and classes are both indexed 0..n-1 and the (r, c) entry must be the
    single root of unity zeta_n^(r*c) on singleton classes.  Any two rows (or
    two columns) at index difference d then pair to sum_c zeta_n^(d*c).  As c
    runs over 0..n-1, the exponent d*c mod n visits each multiple of
    g = gcd(d, n) exactly g times, so the pair sum is g times the sum of all
    (n/g)-th roots of unity: n when d = 0, and zero otherwise because the
    full sum of m-th roots vanishes for every m > 1.  Checking the value
    grid, the exponent multiplicities, and the vanishing sums therefore
    covers all n^2 row pairs and all n^2 column pairs exactly.
    """
    cd = tab.class_data
    n = cd.order
    assert cd.num_classes == n
    assert cd.sizes == [1] * n
    assert cd.representatives == list(range(n))
    assert tab.degrees == [1] * n

    roots = [zeta(n, t) for t in range(n)]
    for r in range(n):
        row = tab.values[r]
        for c in range(n):
            assert row[c] == roots[r * c % n]

    for d in range(1, n):
        g = gcd(d, n)
        hits = Counter(d * c % n for c in range(n))
        assert hits == Counter({g * j: g for j in range(n // g)})

    for m in _divisors(n):
        if m > 1:
            total = sum((zeta(m, j) for j in range(m)), from_int(0))
            assert total == from_int(0)

    check_degree_sum(tab)


def _verify_product_table(expr: str) -> None:
    """Exact orthogonality for a two-factor product table via its factors.

    Verifies that the table is literally the Kronecker product of the two
    factor tables (values, class sizes, and order all factor through), then
    verifies each factor.  Row and column orthogonality of the product follow
    exactly: each product pair sum is a double sum that distributes into the
    product of the two factor pair sums.
    """
    atoms = parse_group_expr(expr).atoms
    assert len(atoms) == 2
    left = _table(str(atoms[0]))
    right = _table(str(atoms[1]))
    prod = _table(expr)

    cdl, cdr, cdp = left.class_data, right.class_data, prod.class_data
    k1, k2 = cdl.num_classes, cdr.num_classes
    assert cdp.num_classes == k1 * k2
    assert cdp.order == cdl.order * cdr.order
    for c1 in range(k1):
        for c2 in range(k2):
            assert cdp.sizes[c1 * k2 + c2] == cdl.sizes[c1] * cdr.sizes[c2]

    for r1 in range(k1):
        for r2 in range(k2):
            row = prod.values[r1 * k2 + r2]
            lrow, rrow = left.values[r1], right.values[r2]
            for c1 in range(k1):
                v1 = lrow[c1]
                for c2 in range(k2):
                    assert row[c1 * k2 + c2] == v1 * rrow[c2]

    check_degree_sum(prod)
    _verify_table(str(atoms[0]))
    _verify_table(str(atoms[1]))


def _verify_table(expr: str) -> None:
    tab = _table(expr)
    atoms = parse_group_expr(expr).atoms
    if len(atoms) == 1 and atoms[0].kind == "Z" and tab.class_data.order > 30:
        _verify_cyclic_table(tab)
    elif tab.class_data.num_classes > 64:
        _verify_product_table(expr)
    else:
        check_degree_sum(tab)
        check_row_orthogonality(tab)
        check_column_orthogonality(tab)


def test_character_table_orthogonality():
    # every expression whose table any acceptance test builds: the shared
    # catalog plus the cyclic sweep
    exprs = sorted(set(ROUTE_500) | {f"Z({n})" for n in range(1, 61)})
    for expr in exprs:
        _verify_table(expr)


# ---------------------------------------------------------------------------
# route agreement: class formula and real-character formula against pair
# counting everywhere, orbit and diagram counts on the small catalog
# ---------------------------------------------------------------------------


def test_route_agreement():
    for expr in ROUTE_500:
        res = _burnside(expr)
        assert d1_class_formula(_classes(expr)) == res.d1, expr
        assert d2_char_formula(expr)[1] == res.d2, expr

    for expr in ROUTE_120:
        res = _burnside(expr)
        group = _group(expr)
        assert orbit_count_dims(group) == res.dim_full, expr
        assert dim_A2(group) == res.dim_full, expr


# the walks have no order cap of their own: the table's 10^6-entry budget,
# order 1000, bounds them, so they run on groups of order 500-1000
WALKS_TO_THE_ENTRIES_BUDGET = {
    "Dstar(125)": (500, 5460, 5333),
    "Z(7) x Istar": (840, 1363, 1327),
    "Dprime(2,61)": (976, 11410, 11251),
}


def test_walks_agree_with_the_closed_form_up_to_the_entries_budget():
    for expr, (order, dim, ker) in WALKS_TO_THE_ENTRIES_BUDGET.items():
        assert closed_dims(spec_from_expr(expr)) == (dim, ker), expr
        assert orbit_count_dims(expr) == dim, expr
        assert dim_A2(expr) == dim, expr


def test_verify_runs_every_route_at_order_500(capsys):
    assert main(["verify", "Dstar(125)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:6]] == [
        "closed", "chars", "burnside", "orbits", "diagrams"
    ]
    assert all(line.split()[1] == "dim" for line in lines[1:6])
    assert lines[-1] == "agree: dim 5460, kernel 5333 (5 methods)"


# ---------------------------------------------------------------------------
# inversion-orbit decomposition: full dimension minus kernel dimension
# equals the inversion-orbit count, and the closed orbit count matches a
# direct count for every case shape
# ---------------------------------------------------------------------------


def _z2_direct(m: int, family_expr: str | None) -> int:
    cdm = _classes(f"Z({m})")
    if family_expr is None:
        return z2_orbit_count(cdm)
    return z2_orbit_count(product_class_data(cdm, _classes(family_expr)))


def test_inversion_orbit_decomposition():
    for expr in ROUTE_500:
        res = _burnside(expr)
        assert res.dim_full - res.dim_ker == z2_orbit_count(_classes(expr)), expr

    checks: list[tuple[SphericalSpec, int]] = []
    for n in range(1, 41):
        checks.append((SphericalSpec("a", n=n), _z2_direct(n, None)))
    for p in range(1, 11):
        for m in (m for m in range(1, 21) if gcd(m, 2 * p) == 1):
            checks.append((SphericalSpec("b", m=m, p=p), _z2_direct(m, f"Dstar({p})")))
    for k in range(0, 3):
        for p in (3, 5, 9):
            for m in (m for m in range(1, 21) if gcd(m, 2 * p) == 1):
                checks.append(
                    (SphericalSpec("c", m=m, k=k, p=p), _z2_direct(m, f"Dprime({k},{p})"))
                )
    for m in (m for m in range(1, 21) if gcd(m, 6) == 1):
        checks.append((SphericalSpec("d", m=m), _z2_direct(m, "Tstar")))
        checks.append((SphericalSpec("f", m=m), _z2_direct(m, "Ostar")))
        for k in (2, 3):
            checks.append((SphericalSpec("e", m=m, k=k), _z2_direct(m, f"Tprime({k})")))
    for m in (m for m in range(1, 21) if gcd(m, 30) == 1):
        checks.append((SphericalSpec("g", m=m), _z2_direct(m, "Istar")))

    for spec, direct in checks:
        assert closed_z2_orbit(spec) == direct, spec
