"""Exact irreducible characters of group expressions, composed from their atoms.

Each family's characters live in its own module (`normal_form.family`):
`character_rows(atom, group, cd)` gives the atom's named cyclotomic rows at
its classes, for `table_for`, and `real_sums(atom, group, cd)` the integer
sums S+ and S- of its real rows of Frobenius-Schur indicator 1 and -1 at
every class, with the number of real rows, for the chars route; both read
the atoms, rules and class data that `conjugacy.atom_classes` yields.  A
family reads each class at the normal-form coordinates of the representative
that `compute_classes` finds on the atom's rule, or, for a binary polyhedral
atom, at representative words whose class sizes and power maps are checked
first, so no column is located and no atom builds a multiplication table.
Only `character_rows` imports `cyclo`, so the chars route never loads it.
This module holds what no family owns.

`table_for` folds the atom tables into outer products, in the same factor
order as group construction, so indices agree with the composed class data
by construction.  Each table, an atom's or a product's, is checked as it is
made (`_finish`): its rows are square, its degrees positive integers whose
squares sum to |G|, and it has as many real rows as self-inverse classes;
what the checks read is not kept.  `real_character_sums` checks each atom's
sums S = S+ + S- against its class data (Brauer's count of real characters,
the Frobenius-Schur count of square roots and the norm of the real rows).
The chars route composes nothing: `d2_char_formula` takes each atom's S as
the first twisted trace of its moment vector (`conjugacy.moments`), and the
product of the vectors is the product's, since the real irreducibles of
G1 x G2 are exactly the products of a real irreducible of each factor.
No product table or class data is built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import prod

from .conjugacy import (
    ClassData,
    atom_classes,
    moment_dims,
    moments,
    product_class_data,
    square_root_counts,
)
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, family, group_order, int_text

TYPE_CHECKING = False
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


class CharacterTable(namedtuple("CharacterTable", "group_name class_data row_names values")):
    """A character table aligned with its class data.

    Fields: group_name (str), class_data (ClassData), row_names (list[str])
    and values (list[list[CycloNumber]], one row per irreducible character
    and one entry per class).
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
    square_sum = 0
    for r, row in enumerate(values):
        if len(row) != k:
            raise AssertionError(f"{name}: ragged character table row")
        try:
            degree = row[0].as_int()
        except ValueError:
            raise AssertionError(
                f"{name}: row {row_names[r]} has degree {row[0]}, not an integer"
            ) from None
        if degree < 1:
            raise AssertionError(f"{name}: non-positive character degree")
        square_sum += degree * degree
    if square_sum != cd.order:
        raise AssertionError(f"{name}: degrees are inconsistent with the group order")
    inverse = cd.inverse_class
    _brauer_check(name, sum(_is_real(row, inverse) for row in values), inverse)
    return CharacterTable(name, cd, row_names, values)


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


def d2_char_formula(expr: GroupExpr | str) -> tuple[int, int, int, int, int, int, int]:
    """(order, k, d1, d2, dim, kernel dim, z2) of `expr` by the chars route.

    Each atom's real character sums S (`real_character_sums`) are the first
    twisted trace of its moment vector, and `moment_dims` evaluates their
    product: d2 is (1/(6|G|)) * sum over classes |C| * (S^3 + 3*(|G|/|C|)*S + 2*S3),
    with S = S[C] and S3 the sum at its cube class.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    vectors = [moments(cd, sums) for cd, sums in real_character_sums(expr)]
    return moment_dims(vectors, expr_to_string(expr))


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


def _check_cells(expr: GroupExpr) -> None:
    """Refuse a table of `expr` past the cell budget.

    k comes from the closed-form class count, so nothing is computed before a
    refusal; invalid parameters raise ValueError before the budget check.
    """
    group_order(expr)
    k = prod(family(atom.kind).class_count(atom) for atom in expr.atoms)
    if k * k > CHAR_TABLE_MAX_CELLS:
        raise ResourceLimitError(
            f"character table of {expr_to_string(expr)} needs {int_text(k * k)} cells, "
            f"budget is {CHAR_TABLE_MAX_CELLS}"
        )


def table_for(expr: GroupExpr | str) -> CharacterTable:
    """Character table for a group expression, aligned with its class data.

    The k x k cell count is checked against CHAR_TABLE_MAX_CELLS from the
    closed-form class count, before any class or row is computed.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    _check_cells(expr)
    return reduce(
        _product_table,
        (
            _finish(group.family_tag, cd, *family(atom.kind).character_rows(atom, group, cd))
            for atom, group, cd in atom_classes(expr)
        ),
    )


def real_character_sums(expr: GroupExpr | str):
    """(class data, S) of each atom of `expr` in factor order, S(C) the sum of
    its real irreducible characters at each class, built as it is read.

    The sums come from the atom's family in integers and are checked by
    `_real_sums`; no row is built, and no product is composed: a product's S
    is the outer product of its atoms'.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    for atom, group, cd in atom_classes(expr):
        yield cd, _real_sums(group, cd, *family(atom.kind).real_sums(atom, group, cd))
