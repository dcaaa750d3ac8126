"""Groups as normal-form product rules: the class-level model of a group expression.

Every atom has a `NormalForm` product rule on its element indices: elements
are integers 0..order-1, 0 is the identity, and `mul`, `inv` and `label` are
plain functions of indices, so class-level work costs O(order) products.
The cyclic, binary dihedral, split metacyclic and twisted quaternion-tower
families compute a product in closed form; the three binary polyhedral atoms
have no closed normal form, and their rule is the coset action that
`coset_enum` finds once per process.  `atom_group` gives each atom its rule,
`product_rule` composes two rules, so an expression's atoms fold into one,
and `group_order` reads an expression's order off its atoms without building
anything.

Everything specific to one family lives in that family's module, which its
kind's row of `expr.ATOMS` names: `family_z`, `family_dstar`, `family_dprime`,
`family_tprime` and `family_polyhedral`.  Each holds the family's model
(`model(atom)`, its rule), its characters (`character_rows(atom, group, cd)`
and `real_sums(atom, group, cd)`) and its closed-form class count
(`class_count(atom)`), so the coordinates a rule gives its elements are read
in the same module that writes them.
`family(kind)` imports a family's module when it is first used, through
`load`, which the command line shares, so a process compiles only the
families its expression names.

At run time this module does not import `group_core`, which turns rules into
tables, so a process that works on normal-form atoms alone compiles no table
code; `atom_group` reaches it only for a binary polyhedral atom, whose rule
it caches, and builds no table.  The one budget error of every layer,
`ResourceLimitError`, is defined here for that reason, as are `int_text` and
`power`, which name numbers past the digits `str` writes, and
`check_printable`, the one refusal of an answer past them.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .expr import ATOMS, Atom, GroupExpr, parse_group_expr

__all__ = [
    "NormalForm",
    "ResourceLimitError",
    "atom_group",
    "check_printable",
    "family",
    "group_order",
    "int_text",
    "load",
    "power",
    "product_rule",
]


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size budget."""


def _digit_limit() -> int:
    """The most decimal digits `str` writes: the interpreter's limit
    (sys.get_int_max_str_digits), or CPython's default 4300 where it sets
    none (a limit of 0, or Python before 3.10.7), so a bound always stands."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300


def int_text(n: int) -> str:
    """`n` in decimal, or "10^L or more" past the L digits of `_digit_limit`.
    Below 2^(3L) = 8^L, n has at most L digits, and 10^L is not computed."""
    limit = _digit_limit()
    if n.bit_length() > 3 * limit and n >= 10**limit:
        return f"10^{limit} or more"
    return str(n)


def check_printable(n: int) -> None:
    """Refuse an answer `n`, or one that `n` bounds, past the digits `str` writes."""
    if not (text := int_text(n)).isdigit():
        raise ResourceLimitError(f"the answer is {text}, too long to print")


def power(base: int, exponent: int) -> int:
    """base ** exponent, base 2 or 3, or 10^L (L as in int_text) once exponent
    >= 4L, where the power is at least 16^L.  Both exceed every budget, which
    has at most L digits, and int_text writes both alike, so no exponent-sized
    power is taken to refuse; a rule of such an order never multiplies."""
    limit = _digit_limit()
    return 10**limit if exponent >= 4 * limit else base**exponent


class NormalForm(namedtuple("NormalForm", "order mul inv label generators family_tag")):
    """A group given by a product rule on normal-form element indices.

    Elements are 0..order-1 with 0 the identity, numbered exactly as in the
    table that `_tabulate` fills from the rule, an atom's or a product's,
    along its generators.  `mul`, `inv` and `label` are plain functions of
    element indices, so class-level work costs O(order) products instead of
    the order^2 entries of a table.  `label` is the one name of an element.

    Fields: order (int), mul ((int, int) -> int), inv (int -> int), label
    (int -> str), generators (a sequence of ints that generate the group),
    family_tag.
    """

    __slots__ = ()


def product_rule(g1: NormalForm, g2: NormalForm) -> NormalForm:
    """g1 x g2 as a rule: (i1, i2) has index i1*|g2| + i2."""
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
    )


_POLYHEDRAL_ORDERS = {"Tstar": 24, "Ostar": 48, "Istar": 120}


def load(name: str):
    """thetadim's submodule `name`, imported on first use.  The import goes
    through `__import__`, as an import statement's does, so that
    `python -X importtime` lists it."""
    module = f"{__package__}.{name}"
    __import__(module)
    return sys.modules[module]


def family(kind: str):
    """The module of family `kind`, named in `expr.ATOMS`, imported by `load`."""
    if kind not in ATOMS:
        raise ValueError(f"unknown family {kind!r}")
    return load(ATOMS[kind][1])


def atom_group(atom: Atom) -> NormalForm:
    """The product rule of one atom, for class-level work; it builds no table."""
    return family(atom.kind).model(atom)


def group_order(expr: GroupExpr | str) -> int:
    """Order of the group an expression names, without building it.

    Invalid family parameters raise the same ValueError as construction.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    order = 1
    for atom in expr.atoms:
        if atom.kind in _POLYHEDRAL_ORDERS:
            order *= _POLYHEDRAL_ORDERS[atom.kind]
        else:
            order *= family(atom.kind).model(atom).order
    return order
