"""Exact irreducible characters for the supported group families.

Each family has one parametric layout: its characters as closed expressions
in roots of unity, each row with its Frobenius-Schur indicator declared (1 or
-1 on a real row, 0 otherwise), and its columns aligned with the conjugacy
classes computed from the family's normal-form rule (or, for the binary
polyhedral groups, their coset-enumerated table) by locating explicit
representative words, so no other atom builds a multiplication table.  Any
failure of that alignment (sizes, power maps, inversion pairing) raises
instead of guessing.  Roots of unity are computed on first use, so a layout
asked for its real rows only computes the roots those rows read.

`table_for` reads every row of the layout and composes product tables as
outer products of the factor tables, in the same factor order as group
construction, so indices agree with the composed class data by construction.
The chars route reads the real rows only: `real_character_sums` sums them per
class, checks them against the class data (realness, Brauer's count of real
characters, and the Frobenius-Schur count of square roots), and composes a
product's sums as S1 (x) S2, since the real irreducibles of G1 x G2 are exactly
the products of a real irreducible of each factor.  No product table is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import prod
from typing import NamedTuple

from .conjugacy import (
    ClassData,
    compute_classes,
    product_class_data,
    square_root_counts,
    twisted_trace_sums,
)
from .cyclo import (
    CycloNumber,
    exact_sum,
    from_int,
    golden_ratio,
    golden_ratio_conjugate,
    sqrt2,
    sqrt_minus_one,
    zeta,
)
from .expr import Atom, GroupExpr, expr_to_string, parse_group_expr
from .group_core import (
    ResourceLimitError,
    binary_dihedral_rule,
    cyclic_rule,
    dprime_rule,
    group_order,
    istar_group,
    ostar_group,
    tprime_rule,
    tstar_group,
)

__all__ = [
    "CHAR_TABLE_MAX_CELLS",
    "CharacterTable",
    "d2_char_formula",
    "real_character_sums",
    "table_for",
]

# a k x k table above this many cells is refused before any row is built;
# Z(2000) needs 4 * 10^6
CHAR_TABLE_MAX_CELLS = 10**7

# one row of a family layout: (name, declared Frobenius-Schur indicator, values
# by class); and a layout: (atom name, class data, rows)
_Row = tuple[str, int, list[CycloNumber]]
_Layout = tuple[str, ClassData, list[_Row]]


class _Memo(dict):
    """fn(key) computed on first lookup, so a layout computes only the values its rows read."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class CharacterTable(NamedTuple):
    group_name: str
    class_data: ClassData
    class_labels: list[str]
    row_names: list[str]
    values: list[list[CycloNumber]]
    degrees: list[int]
    real_rows: list[bool]


def _is_real(values: list[CycloNumber], inverse: list[int]) -> bool:
    # chi(g^-1) = conj(chi(g)), so a row is real iff it is constant on inverse
    # pairs of classes; no conjugate is computed
    return all(v is values[ic] or v == values[ic] for v, ic in zip(values, inverse))


def _brauer_check(name: str, num_real: int, inverse: list[int]) -> None:
    # Brauer's permutation lemma: as many real rows as self-inverse classes
    self_inverse = sum(1 for c, ic in enumerate(inverse) if c == ic)
    if num_real != self_inverse:
        raise AssertionError(
            f"{name}: {num_real} real characters for {self_inverse} self-inverse classes"
        )


def _finish(
    name: str,
    cd: ClassData,
    row_names: list[str],
    values: list[list[CycloNumber]],
) -> CharacterTable:
    k = cd.num_classes
    if len(values) != k:
        raise AssertionError(
            f"{name}: {len(values)} irreducible rows for {k} classes"
        )
    degrees = []
    for row in values:
        if len(row) != k:
            raise AssertionError(f"{name}: ragged character table row")
        degrees.append(row[0].as_int())
        if degrees[-1] < 1:
            raise AssertionError(f"{name}: non-positive character degree")
    if sum(d * d for d in degrees) != cd.order:
        raise AssertionError(f"{name}: degrees are inconsistent with the group order")
    real_rows = [_is_real(row, cd.inverse_class) for row in values]
    _brauer_check(name, sum(real_rows), cd.inverse_class)
    return CharacterTable(
        group_name=name,
        class_data=cd,
        class_labels=cd.labels,
        row_names=row_names,
        values=values,
        degrees=degrees,
        real_rows=real_rows,
    )


def _integer(x: CycloNumber, name: str) -> int:
    if x.coeffs.keys() - {0}:
        raise AssertionError(f"{name}: a real character sum is not an integer: {x}")
    return x.coeffs.get(0, 0)


def _real_sums(name: str, cd: ClassData, rows: list[_Row]) -> list[int]:
    """S(C) = sum of the real rows at each class of one atom, after three checks.

    Every row must be real and declare an indicator of 1 or -1; there must be
    as many rows as self-inverse classes (Brauer); and at every class the
    Frobenius-Schur count sum nu(chi) chi(C) = S+ - S- must equal the number
    of square roots of an element of C (`square_root_counts`).  Irreducible
    characters are linearly independent, so the last identity pins both the
    set of rows and every declared indicator.
    """
    inverse = cd.inverse_class
    for row_name, nu, values in rows:
        if nu not in (1, -1):
            raise AssertionError(f"{name}: real row {row_name} declares indicator {nu}")
        if not _is_real(values, inverse):
            raise AssertionError(f"{name}: row {row_name} is not constant on inverse classes")
    _brauer_check(name, len(rows), inverse)
    roots = square_root_counts(cd)
    plus_rows = [values for _, nu, values in rows if nu > 0]
    minus_rows = [values for _, nu, values in rows if nu < 0]
    sums = []
    for c in range(cd.num_classes):
        plus = _integer(exact_sum(values[c] for values in plus_rows), name)
        minus = _integer(exact_sum(values[c] for values in minus_rows), name)
        if plus - minus != roots[c]:
            raise AssertionError(
                f"{name}: Frobenius-Schur count {plus - minus} at class {cd.labels[c]}, "
                f"but it has {roots[c]} square roots"
            )
        sums.append(plus + minus)
    return sums


def d2_char_formula(expr: GroupExpr | str) -> tuple[ClassData, Fraction]:
    """Class data of `expr` and d2, the invariant dimension of the twisted cube action.

    Takes S = `real_character_sums(expr)` and evaluates, in O(k),
    (1/(6|G|)) * sum over classes |C| * (S^3 + 3*(|G|/|C|)*S + 2*S3)
    where S = S[C] is the real character sum at the class and S3 the sum at
    its cube class: the twisted trace sum of `conjugacy.twisted_trace_sums`
    with S as the first twisted trace.  The class data is returned with d2 so
    that the chars route computes it once.
    """
    cd, sums = real_character_sums(expr)
    n = cd.order
    return cd, Fraction(twisted_trace_sums(cd, sums)[0], 6 * n * n)


# -- family layouts -----------------------------------------------------------


def _cyclic_layout(n: int, real_only: bool) -> _Layout:
    cd = compute_classes(cyclic_rule(n))
    zs = _Memo(partial(zeta, n))
    # V_lam is real iff 2*lam = 0 mod n, and then it is a +-1-valued linear row
    lams = ([0, n // 2] if n % 2 == 0 else [0]) if real_only else range(n)
    rows = [
        (f"V_{lam}", int(2 * lam % n == 0), [zs[lam * r % n] for r in cd.representatives])
        for lam in lams
    ]
    return f"Z({n})", cd, rows


def _binary_dihedral_layout(p: int, real_only: bool) -> _Layout:
    cd = compute_classes(binary_dihedral_rule(p))
    two_p = 2 * p
    k_classes = cd.num_classes
    if k_classes != p + 3:
        raise AssertionError(f"Dstar({p}): expected {p + 3} classes, got {k_classes}")

    col_a = [cd.class_of[k] for k in range(p + 1)]
    col_x = [cd.class_of[two_p], cd.class_of[two_p + 1]]
    seen = set(col_a) | set(col_x)
    if len(seen) != k_classes:
        raise ValueError(f"Dstar({p}): class alignment is ambiguous")
    for k in range(p + 1):
        expected = 1 if k in (0, p) else 2
        if cd.sizes[col_a[k]] != expected:
            raise ValueError(f"Dstar({p}): power-class sizes do not match")
    if cd.sizes[col_x[0]] != p or cd.sizes[col_x[1]] != p:
        raise ValueError(f"Dstar({p}): reflection-class sizes do not match")

    one = from_int(1)
    minus_one = from_int(-1)
    zero = from_int(0)
    zs = _Memo(partial(zeta, two_p))
    cos2 = _Memo(lambda t: zs[t] + zs[-t % two_p])

    def row_from(a_vals, x_even, x_odd):
        row = [zero] * k_classes
        for k in range(p + 1):
            row[col_a[k]] = a_vals(k)
        row[col_x[0]] = x_even
        row[col_x[1]] = x_odd
        return row

    sign_a = lambda k: one if k % 2 == 0 else minus_one
    if p % 2 == 0:
        x_unit = (one, minus_one)
    else:
        i_unit = sqrt_minus_one()
        x_unit = (i_unit, -i_unit)
    linear = [
        ("V1_1", row_from(lambda k: one, one, one)),
        ("V1_2", row_from(lambda k: one, minus_one, minus_one)),
        ("V1_3", row_from(sign_a, x_unit[0], x_unit[1])),
        ("V1_4", row_from(sign_a, x_unit[1], x_unit[0])),
    ]
    # the four linear rows cost O(k) together, so their realness is read off
    # their values; a real linear character is +-1-valued, with indicator 1
    rows = [(name, int(_is_real(values, cd.inverse_class)), values) for name, values in linear]
    if real_only:
        rows = [row for row in rows if row[1]]
    # every 2-dimensional row is real: orthogonal for even lam, quaternionic for odd
    for lam in range(1, p):
        values = row_from(lambda k: cos2[k * lam % two_p], zero, zero)
        rows.append((f"V2_{lam}", (-1) ** lam, values))
    return f"Dstar({p})", cd, rows


def _dprime_layout(k: int, p: int, real_only: bool) -> _Layout:
    cd = compute_classes(dprime_rule(k, p))
    big_n = 2 ** (k + 2)
    half = big_n // 2
    k_classes = cd.num_classes
    if k_classes != 2**k * (p + 3):
        raise AssertionError(f"Dprime({k},{p}): unexpected class count {k_classes}")

    # column index and x-exponent for every printed class
    cols_even_pure = []  # (col, 2m)
    cols_even_mixed = []  # (col, 2m, l)
    cols_odd = []  # (col, 2m+1)
    seen = set()
    for m in range(half):
        c = cd.class_of[(2 * m) * p]
        if cd.sizes[c] != 1:
            raise ValueError(f"Dprime({k},{p}): central class size mismatch")
        cols_even_pure.append((c, 2 * m))
        seen.add(c)
        for l in range(1, (p - 1) // 2 + 1):
            c = cd.class_of[(2 * m) * p + l]
            if cd.sizes[c] != 2:
                raise ValueError(f"Dprime({k},{p}): paired class size mismatch")
            cols_even_mixed.append((c, 2 * m, l))
            seen.add(c)
        c = cd.class_of[(2 * m + 1) * p]
        if cd.sizes[c] != p:
            raise ValueError(f"Dprime({k},{p}): odd-column class size mismatch")
        cols_odd.append((c, 2 * m + 1))
        seen.add(c)
    if len(seen) != k_classes:
        raise ValueError(f"Dprime({k},{p}): class alignment is ambiguous")

    zn = _Memo(partial(zeta, big_n))
    cosp = _Memo(lambda t: zeta(p, t) + zeta(p, -t))
    zero = from_int(0)
    # every degree-2 entry is one of these products, each built once
    two_zn = _Memo(lambda e: 2 * zn[e])
    zn_cosp = _Memo(lambda key: zn[key[0]] * cosp[key[1]])

    # V1_j is real iff 2j = 0 mod big_n; V2_{s,t} iff 4t = 0 mod big_n, and
    # then it is orthogonal for t = 0 and quaternionic for t = big_n/4
    rows = []
    for j in [0, half] if real_only else range(big_n):
        row = [zero] * k_classes
        for c, n_exp in cols_even_pure:
            row[c] = zn[n_exp * j % big_n]
        for c, n_exp, _l in cols_even_mixed:
            row[c] = zn[n_exp * j % big_n]
        for c, n_exp in cols_odd:
            row[c] = zn[n_exp * j % big_n]
        rows.append((f"V1_{j}", int(2 * j % big_n == 0), row))
    for s in range(1, (p - 1) // 2 + 1):
        for t in [0, big_n // 4] if real_only else range(half):
            row = [zero] * k_classes
            for c, n_exp in cols_even_pure:
                row[c] = two_zn[n_exp * t % big_n]
            for c, n_exp, l in cols_even_mixed:
                row[c] = zn_cosp[n_exp * t % big_n, s * l % p]
            nu = 1 if t == 0 else -1 if 4 * t % big_n == 0 else 0
            rows.append((f"V2_{s}_{t}", nu, row))
    return f"Dprime({k},{p})", cd, rows


def _tprime_layout(k: int, real_only: bool) -> _Layout:
    cd = compute_classes(tprime_rule(k))
    three_k = 3**k
    third = 3 ** (k - 1)
    k_classes = cd.num_classes
    if k_classes != 7 * third:
        raise AssertionError(f"Tprime({k}): unexpected class count {k_classes}")

    # (column, z-exponent, family coefficient index) for the seven families
    cols: list[tuple[int, int, int]] = []
    family_sizes = [1, 1, 6, 4, 4, 4, 4]
    seen = set()
    for m in range(third):
        members = [
            (cd.class_of[8 * (3 * m)], 3 * m, 0),
            (cd.class_of[3 + 8 * (3 * m)], 3 * m, 1),
            (cd.class_of[1 + 8 * (3 * m)], 3 * m, 2),
            (cd.class_of[8 * (3 * m + 1)], 3 * m + 1, 3),
            (cd.class_of[1 + 8 * (3 * m + 1)], 3 * m + 1, 4),
            (cd.class_of[8 * (3 * m + 2)], 3 * m + 2, 5),
            (cd.class_of[3 + 8 * (3 * m + 2)], 3 * m + 2, 6),
        ]
        for c, _j, fam in members:
            if cd.sizes[c] != family_sizes[fam]:
                raise ValueError(f"Tprime({k}): class family sizes do not match")
            seen.add(c)
        cols.extend(members)
    if len(seen) != k_classes:
        raise ValueError(f"Tprime({k}): class alignment is ambiguous")

    zs = _Memo(partial(zeta, three_k))
    scaled = _Memo(lambda key: key[0] * zs[key[1]])
    zero = from_int(0)
    # (name prefix, family coefficients or None for the linear rows, number of
    # rows, indicator of the lam = 0 row: the only real one of each kind)
    kinds = [
        ("V1", None, three_k, 1),
        ("V2", [2, -2, 0, -1, 1, -1, 1], three_k, -1),
        ("V3", [3, 3, -1, 0, 0, 0, 0], third, 1),
    ]
    rows = []
    for prefix, coeffs, count, nu in kinds:
        for lam in [0] if real_only else range(count):
            row = [zero] * k_classes
            for c, j, fam in cols:
                e = j * lam % three_k
                if coeffs is None:
                    row[c] = zs[e]
                elif coeffs[fam]:
                    row[c] = scaled[coeffs[fam], e]
            rows.append((f"{prefix}_{lam}", nu if lam == 0 else 0, row))
    return f"Tprime({k})", cd, rows


def _polyhedral_data(kind: str):
    one = from_int(1)
    if kind == "Tstar":
        w = zeta(3)
        w2 = zeta(3, 2)
        return {
            "builder": tstar_group,
            "words": ["", "aa", "ab", "aaa", "aaaa", "aaaaa", "a"],
            "sizes": [1, 4, 6, 1, 4, 4, 4],
            "square": [0, 4, 3, 0, 1, 4, 1],
            "cube": [0, 0, 2, 3, 0, 3, 3],
            "inverse": [0, 4, 2, 3, 1, 6, 5],
            # (name, Frobenius-Schur indicator, values)
            "rows": [
                ("V_1", 1, [1, 1, 1, 1, 1, 1, 1]),
                ("V_2", 0, [1, w2, 1, 1, w, w2, w]),
                ("V_3", 0, [1, w, 1, 1, w2, w, w2]),
                ("V_4", -1, [2, -1, 0, -2, -1, 1, 1]),
                ("V_5", 0, [2, -w, 0, -2, -w2, w, w2]),
                ("V_6", 0, [2, -w2, 0, -2, -w, w2, w]),
                ("V_7", 1, [3, 0, -1, 3, 0, 0, 0]),
            ],
        }
    if kind == "Ostar":
        r = sqrt2()
        return {
            "builder": ostar_group,
            "words": ["", "ab", "aa", "bb", "aaa", "b", "a", "aab"],
            "sizes": [1, 12, 8, 6, 1, 6, 8, 6],
            "square": [0, 4, 2, 4, 0, 3, 2, 3],
            "cube": [0, 1, 0, 3, 4, 7, 4, 5],
            "inverse": [0, 1, 2, 3, 4, 5, 6, 7],
            "rows": [
                ("A_1", 1, [1, 1, 1, 1, 1, 1, 1, 1]),
                ("A_2", 1, [1, -1, 1, 1, 1, -1, 1, -1]),
                ("A_3", 1, [2, 0, -1, 2, 2, 0, -1, 0]),
                ("A_4", -1, [2, 0, -1, 0, -2, -r, 1, r]),
                ("A_5", -1, [2, 0, -1, 0, -2, r, 1, -r]),
                ("A_6", 1, [3, 1, 0, -1, 3, -1, 0, -1]),
                ("A_7", 1, [3, -1, 0, -1, 3, 1, 0, 1]),
                ("A_8", -1, [4, 0, 1, 0, -4, 0, -1, 0]),
            ],
        }
    if kind == "Istar":
        g = golden_ratio()
        h = golden_ratio_conjugate()
        return {
            "builder": istar_group,
            "words": [
                "",
                "aaa",
                "aabbaabba",
                "abaab",
                "a",
                "aabbaabb",
                "aabb",
                "aabba",
                "b",
            ],
            "sizes": [1, 1, 30, 20, 20, 12, 12, 12, 12],
            "square": [0, 0, 1, 3, 3, 6, 5, 6, 5],
            "cube": [0, 1, 2, 0, 1, 6, 5, 8, 7],
            "inverse": [0, 1, 2, 3, 4, 5, 6, 7, 8],
            "rows": [
                ("A_1", 1, [1, 1, 1, 1, 1, 1, 1, 1, 1]),
                ("A_2", -1, [2, -2, 0, -1, 1, -h, -g, h, g]),
                ("A_3", -1, [2, -2, 0, -1, 1, -g, -h, g, h]),
                ("A_4", 1, [3, 3, -1, 0, 0, g, h, g, h]),
                ("A_5", 1, [3, 3, -1, 0, 0, h, g, h, g]),
                ("A_6", 1, [4, 4, 0, 1, 1, -1, -1, -1, -1]),
                ("A_7", -1, [4, -4, 0, 1, -1, -1, -1, 1, 1]),
                ("A_8", 1, [5, 5, 1, -1, -1, 0, 0, 0, 0]),
                ("A_9", -1, [6, -6, 0, 0, 0, 1, 1, -1, -1]),
            ],
        }
    raise ValueError(f"unknown polyhedral family {kind!r}")


def _polyhedral_layout(kind: str, real_only: bool) -> _Layout:
    data = _polyhedral_data(kind)
    group = data["builder"]()
    cd = compute_classes(group)
    a, b = group.generators[0], group.generators[1]

    cols = []
    for word in data["words"]:
        el = 0
        for ch in word:
            el = group.mul(el, a if ch == "a" else b)
        cols.append(cd.class_of[el])
    k_classes = cd.num_classes
    if len(set(cols)) != len(cols) or len(cols) != k_classes:
        raise ValueError(f"{kind}: class alignment is ambiguous")
    for i, c in enumerate(cols):
        if cd.sizes[c] != data["sizes"][i]:
            raise ValueError(f"{kind}: class sizes do not match the table layout")
        if cd.square_class[c] != cols[data["square"][i]]:
            raise ValueError(f"{kind}: square classes do not match the table layout")
        if cd.cube_class[c] != cols[data["cube"][i]]:
            raise ValueError(f"{kind}: cube classes do not match the table layout")
        if cd.inverse_class[c] != cols[data["inverse"][i]]:
            raise ValueError(f"{kind}: inverse classes do not match the table layout")

    rows = []
    for name, nu, printed in data["rows"]:
        if real_only and not nu:
            continue
        row = [None] * k_classes
        for i, v in enumerate(printed):
            if not isinstance(v, CycloNumber):
                v = from_int(v)
            row[cols[i]] = v
        rows.append((name, nu, row))
    return kind, cd, rows


def _atom_layout(atom: Atom, real_only: bool) -> _Layout:
    kind, params = atom.kind, atom.params
    if kind == "Z":
        return _cyclic_layout(params[0], real_only)
    if kind == "Dstar":
        return _binary_dihedral_layout(params[0], real_only)
    if kind == "Dprime":
        return _dprime_layout(params[0], params[1], real_only)
    if kind == "Tprime":
        return _tprime_layout(params[0], real_only)
    if kind in ("Tstar", "Ostar", "Istar"):
        return _polyhedral_layout(kind, real_only)
    raise ValueError(f"unknown family {kind!r}")


def _product_table(t1: CharacterTable, t2: CharacterTable) -> CharacterTable:
    cd = product_class_data(t1.class_data, t2.class_data)
    k2 = t2.class_data.num_classes
    names = [f"{n1}(x){n2}" for n1 in t1.row_names for n2 in t2.row_names]
    values = []
    for row1 in t1.values:
        for row2 in t2.values:
            values.append([row1[c1] * row2[c2] for c1 in range(len(row1)) for c2 in range(k2)])
    return _finish(f"{t1.group_name}x{t2.group_name}", cd, names, values)


def _atom_class_count(atom: Atom) -> int:
    """Number of conjugacy classes of one atom, in closed form."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        return params[0]
    if kind == "Dstar":
        return params[0] + 3
    if kind == "Dprime":
        return 2 ** params[0] * (params[1] + 3)
    if kind == "Tprime":
        return 7 * 3 ** (params[0] - 1)
    return {"Tstar": 7, "Ostar": 8, "Istar": 9}[kind]


def _check_cells(expr: GroupExpr) -> int:
    """The class count k of `expr`, once k x k is known to be within the cell budget.

    k comes from the closed-form class count, so nothing is computed before a
    refusal; invalid parameters raise ValueError before the budget check.
    """
    group_order(expr)
    k = prod(_atom_class_count(atom) for atom in expr.atoms)
    if k * k > CHAR_TABLE_MAX_CELLS:
        raise ResourceLimitError(
            f"character table of {expr_to_string(expr)} needs {k * k} cells, "
            f"budget is {CHAR_TABLE_MAX_CELLS}"
        )
    return k


def _check_class_count(name: str, cd: ClassData, k: int) -> None:
    if cd.num_classes != k:
        raise AssertionError(f"{name}: {cd.num_classes} classes, expected {k}")


def table_for(expr: GroupExpr | str) -> CharacterTable:
    """Character table for a group expression, aligned with its class data.

    The k x k cell count is checked against CHAR_TABLE_MAX_CELLS from the
    closed-form class count, before any class or row is computed.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    k = _check_cells(expr)
    table = None
    for atom in expr.atoms:
        name, cd, rows = _atom_layout(atom, real_only=False)
        atom_table = _finish(name, cd, [r[0] for r in rows], [r[2] for r in rows])
        table = atom_table if table is None else _product_table(table, atom_table)
    _check_class_count(table.group_name, table.class_data, k)
    return table


def real_character_sums(expr: GroupExpr | str) -> tuple[ClassData, list[int]]:
    """Class data of `expr` and S(C), the sum of its real irreducible characters per class.

    Only the real rows of each atom are built and checked (`_real_sums`); a
    product's sums are the outer product of its atoms' sums, on the numbering
    of `product_class_data`.  The cell budget is the one `table_for` applies.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    k = _check_cells(expr)
    cd = sums = None
    for atom in expr.atoms:
        name, atom_cd, rows = _atom_layout(atom, real_only=True)
        atom_sums = _real_sums(name, atom_cd, rows)
        if cd is None:
            cd, sums = atom_cd, atom_sums
        else:
            cd = product_class_data(cd, atom_cd)
            sums = [s1 * s2 for s1 in sums for s2 in atom_sums]
    _check_class_count(expr_to_string(expr), cd, k)
    return cd, sums
