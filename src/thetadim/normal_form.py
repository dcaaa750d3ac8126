"""Groups as normal-form product rules: the class-level model of a group expression.

The cyclic, binary dihedral, split metacyclic and twisted quaternion-tower
families each have a `NormalForm` product rule on their element indices:
elements are integers 0..order-1, 0 is the identity, and `mul`, `inv` and
`label` are plain functions of indices, so class-level work costs O(order)
products.  `product_rule` composes two groups of either kind, a rule or a
multiplication table, so an expression's atoms fold into one rule.
`atom_group` gives each atom its cheapest exact model: its rule, or, for the
three binary polyhedral atoms, which have no normal form, their
coset-enumerated table.  `group_order` reads an expression's order off its
atoms without building anything.

Everything specific to one family lives in that family's module, named for
its kind in `_FAMILY_MODULES`: `family_z`, `family_dstar`, `family_dprime`,
`family_tprime` and `family_polyhedral`.  Each holds the family's model
(`model(atom)`, its rule or table), its characters (`rows_and_sums(atom,
group)`) and its closed-form class count (`class_count(atom)`), so the
coordinates a rule gives its elements are read in the same module that
writes them.  `family(kind)` imports a family's module when it is first
used, so a process compiles only the families its expression names.

At run time this module does not import `group_core`, so a
process that works on class data alone compiles no table code.
`group_core` turns a rule into a table (`_tabulate`), and `atom_group`
reaches it only for a binary polyhedral atom.  `ResourceLimitError`, the one
budget error of every layer, is defined here for the same reason.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .expr import Atom, GroupExpr, parse_group_expr

if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = [
    "NormalForm",
    "ResourceLimitError",
    "atom_group",
    "family",
    "group_order",
    "product_rule",
]


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size budget."""


class NormalForm(
    namedtuple(
        "NormalForm", "order mul inv label generators family_tag factors", defaults=((),)
    )
):
    """A group given by a product rule on normal-form element indices.

    Elements are 0..order-1 with 0 the identity, numbered exactly as in the
    multiplication table the rule fills (`_tabulate`).  `mul`, `inv` and
    `label` are plain functions of element indices, so class-level work costs
    O(order) products instead of the order^2 entries of a table.

    Fields: order (int), mul ((int, int) -> int), inv (int -> int), label
    (int -> str), generators (list[int]), family_tag (str), and factors,
    (g1, g2) for a rule made by product_rule, whose table is filled from
    theirs, else ().
    """

    __slots__ = ()


def product_rule(g1: NormalForm | FiniteGroup, g2: NormalForm | FiniteGroup) -> NormalForm:
    """g1 x g2 as a rule on either kind of factor: (i1, i2) has index i1*|g2| + i2."""
    n2 = g2.order
    mul1, mul2, inv1, inv2 = g1.mul, g2.mul, g1.inv, g2.inv

    def mul(i: int, j: int) -> int:
        i1, i2 = divmod(i, n2)
        j1, j2 = divmod(j, n2)
        return mul1(i1, j1) * n2 + mul2(i2, j2)

    def inv(i: int) -> int:
        i1, i2 = divmod(i, n2)
        return inv1(i1) * n2 + inv2(i2)

    def label(i: int) -> str:
        i1, i2 = divmod(i, n2)
        return f"({g1.label(i1)},{g2.label(i2)})"

    return NormalForm(
        g1.order * n2,
        mul,
        inv,
        label,
        [i1 * n2 for i1 in g1.generators] + list(g2.generators),
        f"{g1.family_tag or '?'}x{g2.family_tag or '?'}",
        (g1, g2),
    )


# the module that holds each kind's rule, characters and class count
_FAMILY_MODULES = {
    "Z": "family_z",
    "Dstar": "family_dstar",
    "Dprime": "family_dprime",
    "Tprime": "family_tprime",
    "Tstar": "family_polyhedral",
    "Ostar": "family_polyhedral",
    "Istar": "family_polyhedral",
}
_POLYHEDRAL_ORDERS = {"Tstar": 24, "Ostar": 48, "Istar": 120}


def family(kind: str):
    """The module of family `kind`, imported on first use.  The import goes
    through `__import__`, as an import statement's does, so that
    `python -X importtime` lists it."""
    name = _FAMILY_MODULES.get(kind)
    if name is None:
        raise ValueError(f"unknown family {kind!r}")
    module = f"{__package__}.{name}"
    __import__(module)
    return sys.modules[module]


def atom_group(atom: Atom) -> NormalForm | FiniteGroup:
    """The cheapest exact model of one atom, for class-level work.

    Normal-form families give their product rule and build no table; the
    binary polyhedral atoms give their coset-enumerated table, the only
    case that loads the table layer.
    """
    return family(atom.kind).model(atom)


def group_order(group: NormalForm | FiniteGroup | GroupExpr | str) -> int:
    """Order of a group, or of the group an expression names, without building it.

    Invalid family parameters raise the same ValueError as construction.
    """
    if isinstance(group, str):
        group = parse_group_expr(group)
    if not isinstance(group, GroupExpr):
        return group.order
    order = 1
    for atom in group.atoms:
        if atom.kind in _POLYHEDRAL_ORDERS:
            order *= _POLYHEDRAL_ORDERS[atom.kind]
        else:
            order *= family(atom.kind).model(atom).order
    return order
