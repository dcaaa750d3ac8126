"""Finite groups as dense multiplication tables: the table layer.

Elements are integers 0..order-1 and 0 is always the identity.  The layer is
split in two.  `normal_form` holds what class-level work needs: `NormalForm`,
`product_rule`, `atom_group`, `group_order`, `ResourceLimitError` and the
kind -> module table of the family modules (`family_z`, `family_dstar`,
`family_dprime`, `family_tprime`, `family_polyhedral`), which hold each
family's rule; it imports neither `array` nor this module.  This module
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

from array import array
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
    """A finite group given by its full multiplication table.

    `mul_table` is row-major: the product of i and j sits at index i*order+j.
    Element 0 must be a two-sided identity; inverses are computed and checked
    at construction time.  `generators` must generate the group: the orbit
    and diagram walks move along them.
    """

    __slots__ = ("order", "_mul", "inverses", "labels", "family_tag", "generators")

    def __init__(
        self,
        order: int,
        mul_table,
        labels=None,
        family_tag: str = "",
        *,
        generators,
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be positive, got {order}.")
        if len(mul_table) != order * order:
            raise ValueError(
                f"table has {len(mul_table)} entries, expected {order * order}."
            )
        self.order = order
        self._mul = mul_table if isinstance(mul_table, array) else array("i", mul_table)
        mul = self._mul
        identity = array("i", range(order))
        if mul[:order] != identity or mul[::order] != identity:
            raise ValueError("element 0 is not a two-sided identity")
        inv = []
        for i in range(order):
            base = i * order
            try:
                j = mul.index(0, base, base + order) - base
            except ValueError:
                j = -1
            if j < 0 or mul[j * order + i] != 0:
                raise ValueError(f"element {i} has no two-sided inverse")
            inv.append(j)
        self.inverses = inv
        if labels is None:
            labels = [f"g{i}" for i in range(order)]
        else:
            labels = list(labels)
            if len(labels) != order:
                raise ValueError("label count does not match order")
        self.labels = labels
        self.family_tag = family_tag
        self.generators = list(generators)

    def mul(self, i: int, j: int) -> int:
        return self._mul[i * self.order + j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def label(self, i: int) -> str:
        return self.labels[i]


def _atom_products(rule: NormalForm) -> array:
    """A single atom's table, filled row by row along a breadth-first search
    over its generators: row(p*s) = row(p) o row(s), since (p*s)*j = p*(s*j).
    The rule is called for the |S| generator rows only, and each further row
    is composed from a reached row and a generator row, instead of n^2 rule
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
    flat: list[int] = []
    for row in rows:
        flat += row
    return array("i", flat)


def _tabulate(rule: NormalForm, name: str = "") -> FiniteGroup:
    """The multiplication table a rule defines.

    A table of more than TABLE_MAX_ENTRIES entries is refused before any
    product is taken; `name` describes the group in the refusal (default: its
    tag).  A single atom's rows are composed from its generators' rows
    (`_atom_products`), and a product rule's rows are filled from its
    factors' products, each taken once, so the composed `mul` is never called
    per entry.  Element numbering and labels are the rule's own either way.
    """
    n = rule.order
    if n * n > TABLE_MAX_ENTRIES:
        raise ResourceLimitError(
            f"{name or rule.family_tag} needs {n * n} table entries, "
            f"budget is {TABLE_MAX_ENTRIES}."
        )

    def products(g: NormalForm | FiniteGroup) -> array:
        if isinstance(g, FiniteGroup):
            return g._mul
        if not g.factors:
            return _atom_products(g)
        g1, g2 = g.factors
        n1, n2 = g1.order, g2.order
        t1, t2 = products(g1), products(g2)
        # (i1, i2) * (j1, j2) = (i1*j1, i2*j2) has index (i1*j1)*n2 + i2*j2, so
        # each row is n1 blocks, and block j1 is row i2 of g2's table shifted
        # by (i1*j1)*n2: shifted[k][i2], built once and copied as a whole
        shifted = [
            [array("i", [k * n2 + x for x in t2[i2 * n2 : (i2 + 1) * n2]]) for i2 in range(n2)]
            for k in range(n1)
        ]
        table = array("i")
        for i1 in range(n1):
            blocks = [shifted[k] for k in t1[i1 * n1 : (i1 + 1) * n1]]
            for i2 in range(n2):
                for block in blocks:
                    table += block[i2]
        return table

    return FiniteGroup(
        n,
        products(rule),
        labels=[rule.label(i) for i in range(n)],
        family_tag=rule.family_tag,
        generators=rule.generators,
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
def _enumerated(b_order: int, expected: int, tag: str) -> tuple[array, list[str], list[int]]:
    """The table, labels and generators of one coset enumeration, run once per
    process; the table is shared by every group built from it and never written."""
    from .coset_enum import group_from_presentation

    text = f"<a,b | (a*b)^2 = a^3 = b^{b_order}>"
    group = group_from_presentation(text, expected_order=expected, family_tag=tag)
    return group._mul, group.labels, group.generators


def _polyhedral(b_order: int, expected: int, tag: str) -> FiniteGroup:
    # a fresh group on each call: its generators and labels are its own
    table, labels, generators = _enumerated(b_order, expected, tag)
    return FiniteGroup(expected, table, labels, tag, generators=generators)


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
