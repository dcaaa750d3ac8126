"""Finite groups as the rows of their multiplication tables: the table layer.

Elements are integers 0..order-1 and 0 is always the identity.  A table is
its rows, `rows[i][j]` the product of i and j, and the routes that walk a
table read them.  The layer is split in two.  `normal_form` holds what
class-level work needs: `NormalForm`, `product_rule`, `atom_group`,
`group_order`, `ResourceLimitError` and the kind -> module table of the
family modules (`family_z`, `family_dstar`, `family_dprime`, `family_tprime`,
`family_polyhedral`), which hold each family's rule; it does not import this
module.  This module holds `FiniteGroup`, `construct_family`,
`direct_product`, `group_from_expr` and the `*_group` builders, each of which
returns its atom's rule.  The normal-form builders look their family's rule
up through `atom_group` when they run, so a process compiles only the
families its expression names.

The three binary polyhedral groups (order at most 120) are the coset action
of <a,b | (ab)^2 = a^3 = b^k>, k = 3, 4, 5, which `coset_enum` turns into a
rule; `_enumerated` writes the relators as words of generator columns, reads
the order from `normal_form` and keeps the rule for the process.

Only the walks build tables.  `group_from_expr` tabulates an expression once,
through `construct_family` for one atom and `direct_product` for a product,
and `_tabulate` fills every table from its rule by one walk along the rule's
generators; only this module constructs a `FiniteGroup`.  `_tabulate`
refuses a table of more than TABLE_MAX_ENTRIES entries before taking any
product; no order cap lifts this.  The orbit and diagram walks mark their
visited pairs in n^2 bytes, as many as the table they walk has entries, so
the budget bounds them too.
"""

from __future__ import annotations

from functools import cache, reduce

from .expr import Atom, GroupExpr, parse_group_expr
from .normal_form import (
    _POLYHEDRAL_ORDERS, NormalForm, ResourceLimitError, atom_group, int_text, product_rule,
)

__all__ = [
    "FiniteGroup",
    "TABLE_MAX_ENTRIES",
    "binary_dihedral_group",
    "construct_family",
    "cyclic_group",
    "direct_product",
    "dprime_group",
    "group_from_expr",
    "istar_group",
    "ostar_group",
    "tprime_group",
    "tstar_group",
]


# every multiplication table, a single atom's included, stays within this many
# entries; so does the orbit walk's visited set, which is no larger than its table
TABLE_MAX_ENTRIES = 10**6


class FiniteGroup:
    """A finite group given by the rows of its multiplication table.

    `rows[i][j]` is the product of i and j, and the order is len(rows).
    Element 0 must be a two-sided identity; inverses are computed and checked
    at construction time.  `generators` must generate the group: the orbit
    and diagram walks move along them.  Rows may be shared between groups, so
    nothing writes them.  A table names no element: the rule it was filled
    from does (`NormalForm.label`).
    """

    __slots__ = ("rows", "inverses", "family_tag", "generators")

    def __init__(self, rows, family_tag: str = "", *, generators) -> None:
        n = len(rows)
        if n < 1:
            raise ValueError("a group has at least one element")
        if any(len(row) != n for row in rows):
            raise ValueError(f"the table of {n} rows is not square")
        identity = list(range(n))
        if rows[0] != identity or [row[0] for row in rows] != identity:
            raise ValueError("element 0 is not a two-sided identity")
        inv = []
        for i, row in enumerate(rows):
            try:
                j = row.index(0)
            except ValueError:
                j = -1
            if j < 0 or rows[j][i] != 0:
                raise ValueError(f"element {i} has no two-sided inverse")
            inv.append(j)
        self.rows = rows
        self.inverses = inv
        self.family_tag = family_tag
        self.generators = list(generators)

    @property
    def order(self) -> int:
        return len(self.rows)

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]


def _tabulate(rule: NormalForm, name: str = "") -> FiniteGroup:
    """The multiplication table a rule defines: an atom's or a product's.

    A table of more than TABLE_MAX_ENTRIES entries is refused before any
    product is taken; `name` describes the group in the refusal (default: its
    tag).  The rows are filled along a breadth-first search over the rule's
    generators, row(p*s) = row(p) o row(s) since (p*s)*j = p*(s*j): the rule
    gives the |S| generator rows, and each further row is composed from a
    reached row and a generator row, instead of n^2 rule calls.  Every entry
    is read from row 0, so the table holds one int object per element.
    Generators that do not reach every element are refused: the table would
    be partial.  Element numbering is the rule's own.
    """
    n, mul = rule.order, rule.mul
    if n * n > TABLE_MAX_ENTRIES:
        raise ResourceLimitError(
            f"{name or rule.family_tag} needs {int_text(n * n)} table entries, "
            f"budget is {TABLE_MAX_ENTRIES}."
        )
    gen_rows = [(s, [mul(s, j) for j in range(n)]) for s in rule.generators]
    rows: list = [list(range(n))] + [None] * (n - 1)
    reached = [0]
    for p in reached:  # grows while it is read: a breadth-first queue
        row_p = rows[p]
        for s, row_s in gen_rows:
            q = row_p[s]
            if rows[q] is None:
                rows[q] = [row_p[x] for x in row_s]
                reached.append(q)
    if len(reached) != n:
        raise AssertionError(
            f"{rule.family_tag}: the generators reach {len(reached)} of {n} elements"
        )
    return FiniteGroup(rows, rule.family_tag, generators=rule.generators)


def cyclic_group(n: int) -> NormalForm:
    return atom_group(Atom("Z", (n,)))


def binary_dihedral_group(p: int) -> NormalForm:
    return atom_group(Atom("Dstar", (p,)))


def dprime_group(k: int, p: int) -> NormalForm:
    return atom_group(Atom("Dprime", (k, p)))


def tprime_group(k: int) -> NormalForm:
    return atom_group(Atom("Tprime", (k,)))


@cache
def _enumerated(tag: str, b_order: int) -> NormalForm:
    """The coset action of <a,b | (ab)^2 = a^3 = b^k>, k = b_order, as a rule,
    enumerated once per process; its generators are a tuple, so no caller
    that shares the rule can change them."""
    from .coset_enum import Presentation, group_from_presentation

    # (ab)^2 a^-3 and a^3 b^-k, in the columns a, a^-1, b, b^-1 = 0, 1, 2, 3
    relators = ((0, 2, 0, 2, 1, 1, 1), (0, 0, 0) + (3,) * b_order)
    presentation = Presentation(("a", "b"), relators)
    return group_from_presentation(presentation, _POLYHEDRAL_ORDERS[tag], tag)


def tstar_group() -> NormalForm:
    return _enumerated("Tstar", 3)


def ostar_group() -> NormalForm:
    return _enumerated("Ostar", 4)


def istar_group() -> NormalForm:
    return _enumerated("Istar", 5)


def construct_family(atom: Atom) -> FiniteGroup:
    """The multiplication table of one expression atom, the one place a single
    atom is tabulated: its kind's builder gives the rule."""
    # the builders are read when called, so that a rebound builder is seen
    builders = {
        "Z": cyclic_group, "Dstar": binary_dihedral_group, "Dprime": dprime_group,
        "Tstar": tstar_group, "Tprime": tprime_group, "Ostar": ostar_group, "Istar": istar_group,
    }
    if atom.kind not in builders:
        raise ValueError(f"unknown family {atom.kind!r}")
    return _tabulate(builders[atom.kind](*atom.params))


def direct_product(g1: NormalForm, g2: NormalForm) -> FiniteGroup:
    """The multiplication table of `product_rule(g1, g2)`."""
    name = f"product of orders {g1.order} and {g2.order}"
    return _tabulate(product_rule(g1, g2), name)


def group_from_expr(expr: GroupExpr | str) -> FiniteGroup:
    """The multiplication table of an expression, the only table it builds.

    A product folds its atoms' rules and tabulates the result once, so no
    factor `FiniteGroup` is built.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    *head, last = expr.atoms
    if not head:
        return construct_family(last)
    return direct_product(reduce(product_rule, map(atom_group, head)), atom_group(last))
