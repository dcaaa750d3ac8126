"""Exact irreducible characters of group expressions, composed from their atoms.

Each family's characters live in its own module (`normal_form.family`):
`rows_and_sums(atom, group)` gives two functions of the atom's class data,
its cyclotomic rows, for `table_for`, and the integer sums S+ and S- of its
real rows of Frobenius-Schur indicator 1 and -1 at every class, with the
number of real rows, for the chars route.  A family reads each class at the
normal-form coordinates of the representative that `compute_classes` finds
on `normal_form.atom_group(atom)`, or, for a binary polyhedral atom, at
representative words whose class sizes and power maps are checked first, so
no column is located and no atom but a binary polyhedral one builds a
multiplication table.  Only the row builders import `cyclo`, so the chars
route never loads it.  This module holds what no family owns.

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

from collections import namedtuple
from math import prod
from typing import TYPE_CHECKING

from .conjugacy import (
    ClassData,
    check_class_data_order,
    compute_classes,
    pair_average,
    product_class_data,
    square_root_counts,
    twisted_trace_sums,
)
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, atom_group, family, group_order

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


class CharacterTable(
    namedtuple(
        "CharacterTable", "group_name class_data row_names values degrees real_rows"
    )
):
    """A character table aligned with its class data.

    Fields: group_name (str), class_data (ClassData), row_names (list[str]),
    values (list[list[CycloNumber]], one row per irreducible character and
    one entry per class), degrees (list[int]) and real_rows (list[bool]).
    """

    __slots__ = ()


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


def _atoms(expr: GroupExpr):
    """(group, class data, rows, sums) of each atom of `expr`, in factor order.

    `group` is `atom_group(atom)`, the classes are those `compute_classes`
    finds on it, and rows and sums are its family's functions of them.
    """
    for atom in expr.atoms:
        group = atom_group(atom)
        yield (group, compute_classes(group), *family(atom.kind).rows_and_sums(atom, group))


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


def _class_count(expr: GroupExpr) -> int:
    return prod(family(atom.kind).class_count(atom) for atom in expr.atoms)


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
