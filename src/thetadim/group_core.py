"""Finite groups as the rows of their multiplication tables: the table layer.

Elements are integers 0..order-1 and 0 is always the identity.  A table is
its rows, `rows[i][j]` the product of i and j: every builder hands
`FiniteGroup` rows, and the routes that walk a table read them.  The layer is
split in two.  `normal_form` holds what class-level work needs: `NormalForm`,
`product_rule`, `atom_group`, `group_order`, `ResourceLimitError` and the
kind -> module table of the family modules (`family_z`, `family_dstar`,
`family_dprime`, `family_tprime`, `family_polyhedral`), which hold each
family's rule; it does not import this module.  This module
holds the tables: `FiniteGroup`, the `*_group` builders, `construct_family`,
`direct_product` and `group_from_expr`, and re-exports the normal-form names
it uses.  A builder looks its family's rule up through `atom_group` when it
runs, and no family module is imported here, so a process compiles only the
families its expression names.  Only a route that builds a table, or a
binary polyhedral atom, loads this module.

The three exceptional binary polyhedral groups (order at most 120) are built
solely by coset enumeration from their two-generator presentations.
`_tabulate` is the one place a rule becomes a multiplication table.  It
refuses a table of more than TABLE_MAX_ENTRIES entries before taking any
product, a single atom included; no order cap lifts this.  The
coset-enumerated table (`coset_enum.group_from_coset_table`) checks the same
budget itself.  The orbit and diagram walks mark their visited pairs in n^2
bytes, as many as the table they walk has entries, so the table's budget
bounds them too; they have no other default bound.
"""

from __future__ import annotations

from functools import cache, reduce

from .expr import Atom, GroupExpr, parse_group_expr
from .normal_form import NormalForm, ResourceLimitError, atom_group, product_rule

__all__ = [
    "FiniteGroup",
    "NormalForm",
    "ResourceLimitError",
    "TABLE_MAX_ENTRIES",
    "atom_group",
    "binary_dihedral_group",
    "construct_family",
    "cyclic_group",
    "direct_product",
    "dprime_group",
    "group_from_expr",
    "istar_group",
    "ostar_group",
    "product_rule",
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
    at construction time.  `label(i)` names element i.  `generators` must
    generate the group: the orbit and diagram walks move along them.  Rows
    may be shared between groups, so nothing writes them.
    """

    __slots__ = ("rows", "inverses", "label", "family_tag", "generators")

    def __init__(self, rows, label, family_tag: str = "", *, generators) -> None:
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
        self.label = label
        self.family_tag = family_tag
        self.generators = list(generators)

    @property
    def order(self) -> int:
        return len(self.rows)

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]


def _atom_products(rule: NormalForm) -> list[list[int]]:
    """A single atom's rows, filled along a breadth-first search over its
    generators: row(p*s) = row(p) o row(s), since (p*s)*j = p*(s*j).  The
    rule is called for the |S| generator rows only, and each further row is
    composed from a reached row and a generator row, instead of n^2 rule
    calls.  Generators that do not reach every element are refused: the
    table would be partial.
    """
    n, mul = rule.order, rule.mul
    gen_rows = [(s, [mul(s, j) for j in range(n)]) for s in rule.generators]
    rows: list = [None] * n
    rows[0] = list(range(n))
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
    return rows


def _tabulate(rule: NormalForm, name: str = "") -> FiniteGroup:
    """The multiplication table a rule defines.

    A table of more than TABLE_MAX_ENTRIES entries is refused before any
    product is taken; `name` describes the group in the refusal (default: its
    tag).  A single atom's rows are composed from its generators' rows
    (`_atom_products`), and a product rule's rows are joined block by block
    from its factors' rows, so the composed `mul` is never called per entry.
    Element numbering and labels are the rule's own either way.
    """
    n = rule.order
    if n * n > TABLE_MAX_ENTRIES:
        raise ResourceLimitError(
            f"{name or rule.family_tag} needs {n * n} table entries, "
            f"budget is {TABLE_MAX_ENTRIES}."
        )

    def products(g: NormalForm | FiniteGroup) -> list[list[int]]:
        if isinstance(g, FiniteGroup):
            return g.rows
        if not g.factors:
            return _atom_products(g)
        g1, g2 = g.factors
        rows1, rows2 = products(g1), products(g2)
        n2 = len(rows2)
        # (i1, i2) * (j1, j2) = (i1*j1, i2*j2) has index (i1*j1)*n2 + i2*j2, so
        # row (i1, i2) is n1 blocks, and block j1 is row i2 of g2 shifted by
        # (i1*j1)*n2: shifted[k][i2], built once and joined as a whole.  Shifted
        # indices are read from one list of them all, so the table holds one
        # int object per element, not one per entry
        indices = list(range(len(rows1) * n2))
        shifted = [
            [[offset[x] for x in row] for row in rows2]
            for offset in (indices[k : k + n2] for k in range(0, len(indices), n2))
        ]
        rows = []
        for row1 in rows1:
            blocks = [shifted[k] for k in row1]
            for i2 in range(n2):
                row = []
                for block in blocks:
                    row += block[i2]
                rows.append(row)
        return rows

    return FiniteGroup(
        products(rule), rule.label, rule.family_tag, generators=rule.generators
    )


def cyclic_group(n: int) -> FiniteGroup:
    return _tabulate(atom_group(Atom("Z", (n,))))


def binary_dihedral_group(p: int) -> FiniteGroup:
    return _tabulate(atom_group(Atom("Dstar", (p,))))


def dprime_group(k: int, p: int) -> FiniteGroup:
    return _tabulate(atom_group(Atom("Dprime", (k, p))))


def tprime_group(k: int) -> FiniteGroup:
    return _tabulate(atom_group(Atom("Tprime", (k,))))


@cache
def _enumerated(b_order: int, expected: int, tag: str) -> FiniteGroup:
    """The group of one coset enumeration, run once per process; its rows and
    label are shared by every group built from it, and nothing writes them."""
    from .coset_enum import group_from_presentation

    text = f"<a,b | (a*b)^2 = a^3 = b^{b_order}>"
    return group_from_presentation(text, expected_order=expected, family_tag=tag)


def _polyhedral(b_order: int, expected: int, tag: str) -> FiniteGroup:
    # a fresh group on each call: it shares the cached rows and label, and its
    # generators are its own
    group = _enumerated(b_order, expected, tag)
    return FiniteGroup(group.rows, group.label, tag, generators=group.generators)


def tstar_group() -> FiniteGroup:
    return _polyhedral(3, 24, "Tstar")


def ostar_group() -> FiniteGroup:
    return _polyhedral(4, 48, "Ostar")


def istar_group() -> FiniteGroup:
    return _polyhedral(5, 120, "Istar")


def construct_family(atom: Atom) -> FiniteGroup:
    """Build the group for one expression atom."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        return cyclic_group(params[0])
    if kind == "Dstar":
        return binary_dihedral_group(params[0])
    if kind == "Dprime":
        return dprime_group(params[0], params[1])
    if kind == "Tstar":
        return tstar_group()
    if kind == "Tprime":
        return tprime_group(params[0])
    if kind == "Ostar":
        return ostar_group()
    if kind == "Istar":
        return istar_group()
    raise ValueError(f"unknown family {kind!r}")


def direct_product(
    g1: NormalForm | FiniteGroup, g2: NormalForm | FiniteGroup
) -> FiniteGroup:
    """The multiplication table of `product_rule(g1, g2)`."""
    name = f"product of orders {g1.order} and {g2.order}"
    return _tabulate(product_rule(g1, g2), name)


def group_from_expr(expr: GroupExpr | str) -> FiniteGroup:
    """The multiplication table of an expression, the only table it builds.

    A product folds its atoms' rules and tabulates the result once, so no
    factor `FiniteGroup` is built beyond a binary polyhedral atom's own.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    *head, last = expr.atoms
    if not head:
        return construct_family(last)
    return direct_product(reduce(product_rule, map(atom_group, head)), atom_group(last))
