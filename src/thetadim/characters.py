"""Exact irreducible character tables for the supported group families.

Tables are parametric: each family lays out its characters from closed
expressions in roots of unity, then aligns the columns with the conjugacy
classes computed from the family's normal-form rule (or, for the binary
polyhedral groups, their coset-enumerated table) by locating explicit
representative words, so no other atom builds a multiplication table.  Any
failure of that alignment (sizes, power maps, inversion pairing) raises
instead of guessing.  Product tables are outer products of the factor
tables, in the same factor order as group construction, so indices agree with
the composed class data by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .conjugacy import ClassData, compute_classes, product_class_data
from .cyclo import (
    CycloNumber,
    exact_sum,
    from_rational,
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
    "table_for",
]

# a k x k table above this many cells is refused before any row is built;
# Z(2000) needs 4 * 10^6
CHAR_TABLE_MAX_CELLS = 10**7


@dataclass
class CharacterTable:
    group_name: str
    class_data: ClassData
    class_labels: list[str]
    row_names: list[str]
    values: list[list[CycloNumber]]
    degrees: list[int]
    real_rows: list[bool]


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
    # chi(g^-1) = conj(chi(g)), so a row is real iff it is constant on inverse
    # pairs of classes; no conjugate is computed
    inverse = cd.inverse_class
    real_rows = [
        all(row[c] is row[inverse[c]] or row[c] == row[inverse[c]] for c in range(k))
        for row in values
    ]
    # Brauer's permutation lemma: as many real rows as self-inverse classes
    num_real = sum(real_rows)
    self_inverse = sum(1 for c in range(k) if inverse[c] == c)
    if num_real != self_inverse:
        raise AssertionError(
            f"{name}: {num_real} real characters for {self_inverse} self-inverse classes"
        )
    return CharacterTable(
        group_name=name,
        class_data=cd,
        class_labels=cd.labels,
        row_names=row_names,
        values=values,
        degrees=degrees,
        real_rows=real_rows,
    )


def d2_char_formula(table: CharacterTable) -> Fraction:
    """Invariant dimension of the twisted cube action, from real character sums.

    Evaluates (1/(6|G|)) * sum over classes |C| * (S^3 + 3*(|G|/|C|)*S + 2*S3)
    where S is the real character sum at the class and S3 at its cube class.
    """
    cd = table.class_data
    n = cd.order
    real = [row for row, is_real in zip(table.values, table.real_rows) if is_real]
    s_vals = [exact_sum(row[c] for row in real).as_int() for c in range(cd.num_classes)]
    total = 0
    for c in range(cd.num_classes):
        size = cd.sizes[c]
        s = s_vals[c]
        total += size * (s**3 + 3 * (n // size) * s + 2 * s_vals[cd.cube_class[c]])
    return Fraction(total, 6 * n)


# -- family tables ------------------------------------------------------------


def _zeta_cache(n: int) -> list[CycloNumber]:
    return [zeta(n, t) for t in range(n)]


def _cyclic_table(n: int) -> CharacterTable:
    cd = compute_classes(cyclic_rule(n))
    zs = _zeta_cache(n)
    values = [[zs[(lam * cd.representatives[c]) % n] for c in range(n)] for lam in range(n)]
    names = [f"V_{lam}" for lam in range(n)]
    return _finish(f"Z({n})", cd, names, values)


def _binary_dihedral_table(p: int) -> CharacterTable:
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

    one = from_rational(1)
    minus_one = from_rational(-1)
    zero = from_rational(0)
    zs = _zeta_cache(two_p)
    cos2 = [zs[t] + zs[-t % two_p] for t in range(two_p)]

    def row_from(a_vals, x_even, x_odd):
        row = [zero] * k_classes
        for k in range(p + 1):
            row[col_a[k]] = a_vals(k)
        row[col_x[0]] = x_even
        row[col_x[1]] = x_odd
        return row

    values = [
        row_from(lambda k: one, one, one),
        row_from(lambda k: one, minus_one, minus_one),
    ]
    sign_a = lambda k: one if k % 2 == 0 else minus_one
    if p % 2 == 0:
        values.append(row_from(sign_a, one, minus_one))
        values.append(row_from(sign_a, minus_one, one))
    else:
        i_unit = sqrt_minus_one()
        values.append(row_from(sign_a, i_unit, -i_unit))
        values.append(row_from(sign_a, -i_unit, i_unit))
    for lam in range(1, p):
        values.append(
            row_from(
                lambda k, lam=lam: cos2[(k * lam) % two_p],
                zero,
                zero,
            )
        )
    names = ["V1_1", "V1_2", "V1_3", "V1_4"] + [f"V2_{lam}" for lam in range(1, p)]
    return _finish(f"Dstar({p})", cd, names, values)


def _dprime_table(k: int, p: int) -> CharacterTable:
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

    zn = _zeta_cache(big_n)
    cosp = [zeta(p, t) + zeta(p, -t) for t in range(p)]
    zero = from_rational(0)
    # every degree-2 entry is one of these |G| + big_n products, built once
    two_zn = [2 * z for z in zn]
    zn_cosp = [[z * c for c in cosp] for z in zn]

    values = []
    names = []
    for j in range(big_n):
        row = [zero] * k_classes
        for c, n_exp in cols_even_pure:
            row[c] = zn[(n_exp * j) % big_n]
        for c, n_exp, _l in cols_even_mixed:
            row[c] = zn[(n_exp * j) % big_n]
        for c, n_exp in cols_odd:
            row[c] = zn[(n_exp * j) % big_n]
        values.append(row)
        names.append(f"V1_{j}")
    for s in range(1, (p - 1) // 2 + 1):
        for t in range(half):
            row = [zero] * k_classes
            for c, n_exp in cols_even_pure:
                row[c] = two_zn[(n_exp * t) % big_n]
            for c, n_exp, l in cols_even_mixed:
                row[c] = zn_cosp[(n_exp * t) % big_n][(s * l) % p]
            values.append(row)
            names.append(f"V2_{s}_{t}")
    return _finish(f"Dprime({k},{p})", cd, names, values)


def _tprime_table(k: int) -> CharacterTable:
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

    zs = _zeta_cache(three_k)
    zero = from_rational(0)
    v2_coeff = [2, -2, 0, -1, 1, -1, 1]
    v3_coeff = [3, 3, -1, 0, 0, 0, 0]
    scaled = {coeff: [coeff * z for z in zs] for coeff in (-2, -1, 1, 2, 3)}

    values = []
    names = []
    for lam in range(three_k):
        row = [zero] * k_classes
        for c, j, _fam in cols:
            row[c] = zs[(j * lam) % three_k]
        values.append(row)
        names.append(f"V1_{lam}")
    for lam in range(three_k):
        row = [zero] * k_classes
        for c, j, fam in cols:
            coeff = v2_coeff[fam]
            row[c] = scaled[coeff][(j * lam) % three_k] if coeff else zero
        values.append(row)
        names.append(f"V2_{lam}")
    for lam in range(third):
        row = [zero] * k_classes
        for c, j, fam in cols:
            coeff = v3_coeff[fam]
            row[c] = scaled[coeff][(j * lam) % three_k] if coeff else zero
        values.append(row)
        names.append(f"V3_{lam}")
    return _finish(f"Tprime({k})", cd, names, values)


def _polyhedral_data(kind: str):
    one = from_rational(1)
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
            "rows": [
                ("V_1", [1, 1, 1, 1, 1, 1, 1]),
                ("V_2", [1, w2, 1, 1, w, w2, w]),
                ("V_3", [1, w, 1, 1, w2, w, w2]),
                ("V_4", [2, -1, 0, -2, -1, 1, 1]),
                ("V_5", [2, -w, 0, -2, -w2, w, w2]),
                ("V_6", [2, -w2, 0, -2, -w, w2, w]),
                ("V_7", [3, 0, -1, 3, 0, 0, 0]),
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
                ("A_1", [1, 1, 1, 1, 1, 1, 1, 1]),
                ("A_2", [1, -1, 1, 1, 1, -1, 1, -1]),
                ("A_3", [2, 0, -1, 2, 2, 0, -1, 0]),
                ("A_4", [2, 0, -1, 0, -2, -r, 1, r]),
                ("A_5", [2, 0, -1, 0, -2, r, 1, -r]),
                ("A_6", [3, 1, 0, -1, 3, -1, 0, -1]),
                ("A_7", [3, -1, 0, -1, 3, 1, 0, 1]),
                ("A_8", [4, 0, 1, 0, -4, 0, -1, 0]),
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
                ("A_1", [1, 1, 1, 1, 1, 1, 1, 1, 1]),
                ("A_2", [2, -2, 0, -1, 1, -h, -g, h, g]),
                ("A_3", [2, -2, 0, -1, 1, -g, -h, g, h]),
                ("A_4", [3, 3, -1, 0, 0, g, h, g, h]),
                ("A_5", [3, 3, -1, 0, 0, h, g, h, g]),
                ("A_6", [4, 4, 0, 1, 1, -1, -1, -1, -1]),
                ("A_7", [4, -4, 0, 1, -1, -1, -1, 1, 1]),
                ("A_8", [5, 5, 1, -1, -1, 0, 0, 0, 0]),
                ("A_9", [6, -6, 0, 0, 0, 1, 1, -1, -1]),
            ],
        }
    raise ValueError(f"unknown polyhedral family {kind!r}")


def _polyhedral_table(kind: str) -> CharacterTable:
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

    values = []
    names = []
    for name, printed in data["rows"]:
        row = [None] * k_classes
        for i, v in enumerate(printed):
            if not isinstance(v, CycloNumber):
                v = from_rational(v)
            row[cols[i]] = v
        values.append(row)
        names.append(name)
    return _finish(kind, cd, names, values)


def _atom_table(atom: Atom) -> CharacterTable:
    kind, params = atom.kind, atom.params
    if kind == "Z":
        return _cyclic_table(params[0])
    if kind == "Dstar":
        return _binary_dihedral_table(params[0])
    if kind == "Dprime":
        return _dprime_table(params[0], params[1])
    if kind == "Tprime":
        return _tprime_table(params[0])
    if kind in ("Tstar", "Ostar", "Istar"):
        return _polyhedral_table(kind)
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


def table_for(expr: GroupExpr | str) -> CharacterTable:
    """Character table for a group expression, aligned with its class data.

    The k x k cell count is checked against CHAR_TABLE_MAX_CELLS from the
    closed-form class count, before any class or row is computed.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    group_order(expr)  # invalid parameters raise ValueError before the budget check
    k = prod(_atom_class_count(atom) for atom in expr.atoms)
    if k * k > CHAR_TABLE_MAX_CELLS:
        raise ResourceLimitError(
            f"character table of {expr_to_string(expr)} needs {k * k} cells, "
            f"budget is {CHAR_TABLE_MAX_CELLS}"
        )
    table = _atom_table(expr.atoms[0])
    for atom in expr.atoms[1:]:
        table = _product_table(table, _atom_table(atom))
    if table.class_data.num_classes != k:
        raise AssertionError(
            f"{table.group_name}: {table.class_data.num_classes} classes, expected {k}"
        )
    return table
