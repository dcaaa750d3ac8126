"""Exact irreducible characters for the supported group families.

Each family is written once over its normal form: a character's value at a
class is a closed expression in the coordinates of the representative that
`compute_classes` finds for the class on `normal_form.atom_group(atom)`, so
no column is located and no atom but a binary polyhedral one builds a
multiplication table.  A family gives its cyclotomic rows, for `table_for`,
and the integer sums S+ and S- of its real rows of Frobenius-Schur indicator
1 and -1 at every class, with the number of real rows, for the chars route.
The binary polyhedral atoms are coset-enumerated tables with no normal form:
their rows and sums are constants at a list of representative words, used
only once the words' class sizes and power maps agree with the class data;
any failure of that alignment raises instead of guessing.  Only the row
builders import `cyclo`, so the chars route never loads it.

`table_for` composes product tables as outer products of the factor tables, in
the same factor order as group construction, so indices agree with the
composed class data by construction.  `real_character_sums` checks each
atom's sums against its class data (Brauer's count of real characters, the
Frobenius-Schur count of square roots and the norm of the real rows) and
composes a product's S = S+ + S- as S1 (x) S2, since the real irreducibles of
G1 x G2 are exactly the products of a real irreducible of each factor.  No
product table is built.
"""

from __future__ import annotations

from functools import cache, partial
from math import prod
from typing import TYPE_CHECKING, NamedTuple

from .conjugacy import (
    ClassData,
    check_class_data_order,
    compute_classes,
    pair_average,
    product_class_data,
    square_root_counts,
    twisted_trace_sums,
)
from .expr import Atom, GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, atom_group, group_order

if TYPE_CHECKING:
    from .cyclo import CycloNumber

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


class CharacterTable(NamedTuple):
    group_name: str
    class_data: ClassData
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
        row_names=row_names,
        values=values,
        degrees=degrees,
        real_rows=real_rows,
    )


def _real_sums(group, cd: ClassData, pairs: list[tuple[int, int]], count: int) -> list[int]:
    """S(C) = S+ + S- at each class of one atom, from its family's (S+, S-) pairs
    and count of real rows, after three checks.

    There must be as many real rows as self-inverse classes (Brauer); at every
    class the Frobenius-Schur count S+ - S- must equal the number of square
    roots of an element of C (`square_root_counts`); and the real rows are
    orthonormal, so sum |C| S(C)^2 is |G| times their number.  `group` is the
    atom's model, which names the atom and a failing class.
    """
    name = group.family_tag
    _brauer_check(name, count, cd.inverse_class)
    for rep, (plus, minus), roots in zip(cd.representatives, pairs, square_root_counts(cd)):
        if plus - minus != roots:
            raise AssertionError(
                f"{name}: Frobenius-Schur count {plus - minus} at class {group.label(rep)}, "
                f"but it has {roots} square roots"
            )
    total = [plus + minus for plus, minus in pairs]
    norm = sum(size * s * s for size, s in zip(cd.sizes, total))
    if norm != cd.order * count:
        raise AssertionError(f"{name}: the real rows have norm {norm}, not |G| * {count}")
    return total


def d2_char_formula(expr: GroupExpr | str) -> tuple[ClassData, int]:
    """Class data of `expr` and d2, the invariant dimension of the twisted cube action.

    Takes S = `real_character_sums(expr)` and evaluates, in O(k),
    (1/(6|G|)) * sum over classes |C| * (S^3 + 3*(|G|/|C|)*S + 2*S3)
    where S = S[C] is the real character sum at the class and S3 the sum at
    its cube class: the twisted trace sum of `conjugacy.twisted_trace_sums`
    with S as the first twisted trace.  The class data is returned with d2 so
    that the chars route computes it once.
    """
    cd, sums = real_character_sums(expr)
    return cd, pair_average(twisted_trace_sums(cd, sums)[0], cd.order, "d2")


# -- families -----------------------------------------------------------------
#
# Each family gives (rows, sums): `rows(cd)` is the row names and cyclotomic
# rows, `sums(cd)` the pair (S+, S-) at each class, summed over the real rows
# of indicator 1 and -1, with the number of real rows.  Both read each class at
# its representative's normal-form coordinates.  Only `rows` imports `cyclo`.


def _cyclic(n: int):
    # g^r has index r and V_lam(g^r) = z_n^(lam r); the real rows are V_0 = 1
    # and, for even n, V_(n/2) = (-1)^r, both of indicator 1
    def rows(cd):
        from .cyclo import zeta

        zs = cache(partial(zeta, n))
        reps = cd.representatives
        values = [[zs(lam * r % n) for r in reps] for lam in range(n)]
        return [f"V_{lam}" for lam in range(n)], values

    def sums(cd):
        return [(1 + (n % 2 == 0) * (-1) ** r, 0) for r in cd.representatives], 2 - n % 2

    return rows, sums


def _binary_dihedral(p: int):
    # a^k x^l has index k + 2p*l.  With u = 1 for even p and i for odd p, the
    # linear rows are 1, (-1)^l, (-1)^k u^l and (-1)^k (-u)^l; V2_lam, for
    # lam = 1..p-1, is z^(k lam) + z^(-k lam) (z = z_2p) at l = 0 and 0 at
    # l = 1, of indicator (-1)^lam
    two_p = 2 * p

    def rows(cd):
        from .cyclo import from_int, sqrt_minus_one, zeta

        signs = (from_int(1), from_int(-1))
        if p % 2:
            i = sqrt_minus_one()
            units = (i, -i)
        else:
            units = signs
        zero = from_int(0)
        zs = cache(partial(zeta, two_p))
        cos2 = cache(lambda t: zs(t) + zs(-t % two_p))
        kl = [(r % two_p, r // two_p) for r in cd.representatives]
        values = [
            [signs[0] for _ in kl],
            [signs[l] for _, l in kl],
            [(signs, units)[l][k % 2] for k, l in kl],
            [(signs, units)[l][(k + l) % 2] for k, l in kl],
        ]
        values += [[zero if l else cos2(k * lam % two_p) for k, l in kl] for lam in range(1, p)]
        return ["V1_1", "V1_2", "V1_3", "V1_4"] + [f"V2_{lam}" for lam in range(1, p)], values

    def sums(cd):
        # at a^k, sum over lam = 1..p-1 of z^(k lam) + z^(-k lam) is
        # t = 2p[2p | k] - 1 - (-1)^k by the orthogonality of the characters of
        # Z/2p, and with the sign (-1)^lam it is t' = t at k + p; the linear
        # rows are real for even p, and at l = 1 they cancel in pairs
        def at(r):
            if r >= two_p:
                return 0, 0
            t = two_p * (r % two_p == 0) - 1 - (-1) ** r
            t_alt = two_p * ((r + p) % two_p == 0) - 1 - (-1) ** (r + p)
            return 2 + 2 * (p % 2 == 0) * (-1) ** r + (t + t_alt) // 2, (t - t_alt) // 2

        return [at(r) for r in cd.representatives], p + 1 + 2 * (p % 2 == 0)

    return rows, sums


def _dprime(k: int, p: int):
    # x^a y^b has index a*p + b, with x of order N = 2^(k+2).  V1_j is z_N^(aj);
    # V2_s_t (s = 1..(p-1)/2, t < N/2) is 0 at odd a, 2 z_N^(at) at b = 0 and
    # z_N^(at) (z_p^(sb) + z_p^(-sb)) otherwise.  The real rows are V1_0,
    # V1_(N/2) and V2_s_0 of indicator 1, and V2_s_(N/4) of indicator -1
    big_n = 2 ** (k + 2)

    def rows(cd):
        from .cyclo import from_int, zeta

        zn = cache(partial(zeta, big_n))
        cosp = cache(lambda t: zeta(p, t) + zeta(p, -t))
        # every degree-2 entry is one of these products, each built once
        two_zn = cache(lambda e: 2 * zn(e))
        zn_cosp = cache(lambda e, t: zn(e) * cosp(t))
        zero = from_int(0)
        def v2(s, t, a, b):
            if a % 2:
                return zero
            return zn_cosp(a * t % big_n, s * b % p) if b else two_zn(a * t % big_n)

        ab = [divmod(r, p) for r in cd.representatives]
        names = [f"V1_{j}" for j in range(big_n)]
        values = [[zn(a * j % big_n) for a, _ in ab] for j in range(big_n)]
        for s in range(1, (p - 1) // 2 + 1):
            for t in range(big_n // 2):
                names.append(f"V2_{s}_{t}")
                values.append([v2(s, t, a, b) for a, b in ab])
        return names, values

    def sums(cd):
        # at x^(2m) y^b the cosines sum to c = p - 1 at b = 0 and to -1
        # otherwise, and z_N^(2m N/4) = (-1)^m; at odd a every real row cancels
        def at(r):
            a, b = divmod(r, p)
            if a % 2:
                return 0, 0
            c = -1 if b else p - 1
            return 2 + c, (-1) ** (a // 2) * c

        return [at(r) for r in cd.representatives], p + 1

    return rows, sums


# Tprime(k) has seven class families.  The representative w*z^l of a class (w
# a quaternion unit index) is in family _TPRIME_FAMILY[l % 3, w], of class size
# _TPRIME_SIZES[f], where V1_lam, V2_lam and V3_lam take z^(l lam) times 1,
# _TPRIME_V2[f] and _TPRIME_V3[f]; the lam = 0 row of each kind is the only
# real one, of indicator 1, -1 and 1
_TPRIME_FAMILY = {(0, 0): 0, (0, 3): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4, (2, 0): 5, (2, 3): 6}
_TPRIME_SIZES = [1, 1, 6, 4, 4, 4, 4]
_TPRIME_V2 = [2, -2, 0, -1, 1, -1, 1]
_TPRIME_V3 = [3, 3, -1, 0, 0, 0, 0]


def _tprime(k: int):
    # (unit w)*z^l has index w + 8l, and z has order 3^k
    three_k = 3**k

    def families(cd) -> list[tuple[int, int]]:
        """(l, family) at each class representative, once the class sizes agree."""
        out = []
        for r, size in zip(cd.representatives, cd.sizes):
            l, w = divmod(r, 8)
            f = _TPRIME_FAMILY.get((l % 3, w))
            if f is None or size != _TPRIME_SIZES[f]:
                raise AssertionError(f"Tprime({k}): class family sizes do not match")
            out.append((l, f))
        return out

    def rows(cd):
        from .cyclo import from_int, zeta

        zs = cache(partial(zeta, three_k))
        scaled = cache(lambda coeff, e: coeff * zs(e))
        zero = from_int(0)
        lf = families(cd)
        names, values = [], []
        kinds = [
            ("V1", [1] * 7, three_k),
            ("V2", _TPRIME_V2, three_k),
            ("V3", _TPRIME_V3, three_k // 3),
        ]
        for prefix, coeffs, count in kinds:
            for lam in range(count):
                names.append(f"{prefix}_{lam}")
                values.append(
                    [scaled(coeffs[f], l * lam % three_k) if coeffs[f] else zero for l, f in lf]
                )
        return names, values

    def sums(cd):
        return [(1 + _TPRIME_V3[f], _TPRIME_V2[f]) for _, f in families(cd)], 3

    return rows, sums


# each binary polyhedral atom at its representative words in the generators a
# and b: the class sizes, the words of the square, cube and inverse classes
# (as indices), and S+ and S- with the number of real rows
_POLYHEDRAL = {
    "Tstar": {
        "words": ["", "aa", "ab", "aaa", "aaaa", "aaaaa", "a"],
        "sizes": [1, 4, 6, 1, 4, 4, 4],
        "square": [0, 4, 3, 0, 1, 4, 1],
        "cube": [0, 0, 2, 3, 0, 3, 3],
        "inverse": [0, 4, 2, 3, 1, 6, 5],
        "plus": [4, 1, 0, 4, 1, 1, 1],
        "minus": [2, -1, 0, -2, -1, 1, 1],
        "real": 3,
    },
    "Ostar": {
        "words": ["", "ab", "aa", "bb", "aaa", "b", "a", "aab"],
        "sizes": [1, 12, 8, 6, 1, 6, 8, 6],
        "square": [0, 4, 2, 4, 0, 3, 2, 3],
        "cube": [0, 1, 0, 3, 4, 7, 4, 5],
        "inverse": [0, 1, 2, 3, 4, 5, 6, 7],
        "plus": [10, 0, 1, 2, 10, 0, 1, 0],
        "minus": [8, 0, -1, 0, -8, 0, 1, 0],
        "real": 8,
    },
    "Istar": {
        "words": ["", "aaa", "aabbaabba", "abaab", "a", "aabbaabb", "aabb", "aabba", "b"],
        "sizes": [1, 1, 30, 20, 20, 12, 12, 12, 12],
        "square": [0, 0, 1, 3, 3, 6, 5, 6, 5],
        "cube": [0, 1, 2, 0, 1, 6, 5, 8, 7],
        "inverse": [0, 1, 2, 3, 4, 5, 6, 7, 8],
        "plus": [16, 16, 0, 1, 1, 1, 1, 1, 1],
        "minus": [14, -14, 0, -1, 1, -1, -1, 1, 1],
        "real": 9,
    },
}


def _polyhedral_rows(kind: str) -> list[tuple[str, list]]:
    """The named rows of a binary polyhedral atom, valued at its words."""
    from .cyclo import golden_ratio, golden_ratio_conjugate, sqrt2, zeta

    if kind == "Tstar":
        w = zeta(3)
        w2 = zeta(3, 2)
        return [
            ("V_1", [1, 1, 1, 1, 1, 1, 1]),
            ("V_2", [1, w2, 1, 1, w, w2, w]),
            ("V_3", [1, w, 1, 1, w2, w, w2]),
            ("V_4", [2, -1, 0, -2, -1, 1, 1]),
            ("V_5", [2, -w, 0, -2, -w2, w, w2]),
            ("V_6", [2, -w2, 0, -2, -w, w2, w]),
            ("V_7", [3, 0, -1, 3, 0, 0, 0]),
        ]
    if kind == "Ostar":
        r = sqrt2()
        return [
            ("A_1", [1, 1, 1, 1, 1, 1, 1, 1]),
            ("A_2", [1, -1, 1, 1, 1, -1, 1, -1]),
            ("A_3", [2, 0, -1, 2, 2, 0, -1, 0]),
            ("A_4", [2, 0, -1, 0, -2, -r, 1, r]),
            ("A_5", [2, 0, -1, 0, -2, r, 1, -r]),
            ("A_6", [3, 1, 0, -1, 3, -1, 0, -1]),
            ("A_7", [3, -1, 0, -1, 3, 1, 0, 1]),
            ("A_8", [4, 0, 1, 0, -4, 0, -1, 0]),
        ]
    g = golden_ratio()
    h = golden_ratio_conjugate()
    return [
        ("A_1", [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        ("A_2", [2, -2, 0, -1, 1, -h, -g, h, g]),
        ("A_3", [2, -2, 0, -1, 1, -g, -h, g, h]),
        ("A_4", [3, 3, -1, 0, 0, g, h, g, h]),
        ("A_5", [3, 3, -1, 0, 0, h, g, h, g]),
        ("A_6", [4, 4, 0, 1, 1, -1, -1, -1, -1]),
        ("A_7", [4, -4, 0, 1, -1, -1, -1, 1, 1]),
        ("A_8", [5, 5, 1, -1, -1, 0, 0, 0, 0]),
        ("A_9", [6, -6, 0, 0, 0, 1, 1, -1, -1]),
    ]


def _polyhedral(kind: str, group):
    # a coset-enumerated table has no normal form: its classes are located by
    # the words, and the layout is used only once every class agrees with it
    data = _POLYHEDRAL[kind]

    def word_of(cd) -> list[int]:
        """The index of each class's word, once sizes and power maps agree.

        A word's class is the one whose representative, its smallest member,
        is the smallest conjugate of the word's element.
        """
        a, b = group.generators[0], group.generators[1]
        mul, inv = group.mul, group.inv
        class_at = {r: c for c, r in enumerate(cd.representatives)}
        cols = []
        for word in data["words"]:
            el = 0
            for ch in word:
                el = mul(el, a if ch == "a" else b)
            smallest = min(mul(mul(x, el), inv(x)) for x in range(group.order))
            cols.append(class_at.get(smallest, -1))
        if sorted(cols) != list(range(cd.num_classes)):
            raise AssertionError(f"{kind}: class alignment is ambiguous")
        for i, c in enumerate(cols):
            if cd.sizes[c] != data["sizes"][i]:
                raise AssertionError(f"{kind}: class sizes do not match the table layout")
            for power in ("square", "cube", "inverse"):
                if getattr(cd, f"{power}_class")[c] != cols[data[power][i]]:
                    raise AssertionError(f"{kind}: {power} classes do not match the table layout")
        return sorted(range(len(cols)), key=cols.__getitem__)

    def rows(cd):
        from .cyclo import CycloNumber, from_int

        words = word_of(cd)
        named = _polyhedral_rows(kind)
        cells = [[row[i] for i in words] for _, row in named]
        values = [[v if isinstance(v, CycloNumber) else from_int(v) for v in row] for row in cells]
        return [name for name, _ in named], values

    def sums(cd):
        return [(data["plus"][i], data["minus"][i]) for i in word_of(cd)], data["real"]

    return rows, sums


def _atoms(expr: GroupExpr):
    """(group, class data, rows, sums) of each atom of `expr`, in factor order.

    `group` is `atom_group(atom)`, the classes are those `compute_classes`
    finds on it, and rows and sums are its family's functions of them.
    """
    for atom in expr.atoms:
        group = atom_group(atom)
        if atom.kind in _POLYHEDRAL:
            family = _polyhedral(atom.kind, group)
        else:
            families = {"Z": _cyclic, "Dstar": _binary_dihedral, "Dprime": _dprime, "Tprime": _tprime}
            family = families[atom.kind](*atom.params)
        yield (group, compute_classes(group), *family)


def _product_table(t1: CharacterTable, t2: CharacterTable) -> CharacterTable:
    cd = product_class_data(t1.class_data, t2.class_data)
    names = [f"{n1}(x){n2}" for n1 in t1.row_names for n2 in t2.row_names]
    # a family's values are shared objects from its `cache`d constructors, so a
    # product is keyed by its factors' ids, which no other object can take while
    # both tables hold them
    products: dict[tuple[int, int], CycloNumber] = {}
    values = []
    for row1 in t1.values:
        for row2 in t2.values:
            row = []
            for v1 in row1:
                for v2 in row2:
                    key = (id(v1), id(v2))
                    v = products.get(key)
                    if v is None:
                        v = products[key] = v1 * v2
                    row.append(v)
            values.append(row)
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


def _class_count(expr: GroupExpr) -> int:
    return prod(map(_atom_class_count, expr.atoms))


def _check_cells(expr: GroupExpr) -> int:
    """The class count k of `expr`, once k x k is known to be within the cell budget.

    k comes from the closed-form class count, so nothing is computed before a
    refusal; invalid parameters raise ValueError before the budget check.
    """
    group_order(expr)
    k = _class_count(expr)
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
    for group, cd, rows, _ in _atoms(expr):
        atom_table = _finish(group.family_tag, cd, *rows(cd))
        table = atom_table if table is None else _product_table(table, atom_table)
    _check_class_count(table.group_name, table.class_data, k)
    return table


def real_character_sums(expr: GroupExpr | str) -> tuple[ClassData, list[int]]:
    """Class data of `expr` and S(C), the sum of its real irreducible characters per class.

    Each atom's sums come from its family in integers and are checked by
    `_real_sums`; a product's sums are the outer product of its atoms' sums,
    on the numbering of `product_class_data`.  The order is held to the
    class-data budget before any class is computed; no row is built.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    check_class_data_order(expr)
    cd = sums = None
    for group, atom_cd, _, atom_sums in _atoms(expr):
        atom_total = _real_sums(group, atom_cd, *atom_sums(atom_cd))
        if cd is None:
            cd, sums = atom_cd, atom_total
        else:
            cd = product_class_data(cd, atom_cd)
            sums = [s1 * s2 for s1 in sums for s2 in atom_total]
    _check_class_count(expr_to_string(expr), cd, _class_count(expr))
    return cd, sums
