"""Groups as normal-form product rules: the class-level model of a group expression.

The cyclic, binary dihedral, split metacyclic and twisted quaternion-tower
families are each written once as a `NormalForm` product rule on their
element indices: elements are integers 0..order-1, 0 is the identity, and
`mul`, `inv` and `label` are plain functions of indices, so class-level work
costs O(order) products.  `product_rule` composes two groups of either kind,
a rule or a multiplication table, so an expression's atoms fold into one
rule.  `atom_group` gives each atom its cheapest exact model: its rule, or,
for the three binary polyhedral atoms, which have no normal form, their
coset-enumerated table.  `group_order` reads an expression's order off its
atoms without building anything.

At run time this module imports neither `array` nor `group_core`, so a
process that works on class data alone compiles no table code.
`group_core` turns a rule into a table (`_tabulate`), and `atom_group`
imports it only for a binary polyhedral atom.  `ResourceLimitError`, the one
budget error of every layer, is defined here for the same reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from .expr import Atom, GroupExpr, parse_group_expr

if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = [
    "NormalForm",
    "ResourceLimitError",
    "atom_group",
    "binary_dihedral_rule",
    "cyclic_rule",
    "dprime_rule",
    "group_order",
    "product_rule",
    "tprime_rule",
]


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size budget."""



class NormalForm(NamedTuple):
    """A group given by a product rule on normal-form element indices.

    Elements are 0..order-1 with 0 the identity, numbered exactly as in the
    multiplication table the rule fills (`_tabulate`).  `mul`, `inv` and
    `label` are plain functions of element indices, so class-level work costs
    O(order) products instead of the order^2 entries of a table.
    """

    order: int
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]
    label: Callable[[int], str]
    generators: list[int]
    family_tag: str
    # (g1, g2) for a rule made by product_rule, whose table is filled from theirs
    factors: tuple = ()


def cyclic_rule(n: int) -> NormalForm:
    """Z(n): g^k has index k."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    return NormalForm(
        order=n,
        mul=lambda i, j: (i + j) % n,
        inv=lambda i: -i % n,
        label=lambda k: "e" if k == 0 else ("g" if k == 1 else f"g^{k}"),
        generators=[1] if n > 1 else [],
        family_tag=f"Z({n})",
    )


def binary_dihedral_rule(p: int) -> NormalForm:
    """Order 4p group with a of order 2p, x^2 = a^p, and x a x^-1 = a^-1.

    a^k x^l has index k + 2p*l.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}.")
    two_p = 2 * p

    def mul(i: int, j: int) -> int:
        l1, k1 = divmod(i, two_p)
        l2, k2 = divmod(j, two_p)
        if not l1:
            return (k1 + k2) % two_p + two_p * l2
        if not l2:
            return (k1 - k2) % two_p + two_p
        return (k1 - k2 + p) % two_p

    def inv(i: int) -> int:
        l, k = divmod(i, two_p)
        return (k + p) % two_p + two_p if l else -k % two_p

    def label(i: int) -> str:
        l, k = divmod(i, two_p)
        if l == 0:
            return "e" if k == 0 else ("a" if k == 1 else f"a^{k}")
        return "x" if k == 0 else ("a*x" if k == 1 else f"a^{k}*x")

    return NormalForm(4 * p, mul, inv, label, [1, two_p], f"Dstar({p})")


def dprime_rule(k: int, p: int) -> NormalForm:
    """Order 2^(k+2) * p group with x of 2-power order inverting y of order p.

    x^a y^b has index a*p + b.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}.")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and at least 3, got {p}.")
    big_n = 2 ** (k + 2)

    def mul(i: int, j: int) -> int:
        n1, l1 = divmod(i, p)
        n2, l2 = divmod(j, p)
        if n2 % 2:
            l1 = -l1
        return (n1 + n2) % big_n * p + (l1 + l2) % p

    def inv(i: int) -> int:
        nx, l = divmod(i, p)
        return -nx % big_n * p + (l if nx % 2 else -l) % p

    def label(i: int) -> str:
        nx, l = divmod(i, p)
        xs = "" if nx == 0 else ("x" if nx == 1 else f"x^{nx}")
        ys = "" if l == 0 else ("y" if l == 1 else f"y^{l}")
        return f"{xs}*{ys}" if xs and ys else (xs or ys or "e")

    return NormalForm(big_n * p, mul, inv, label, [p, 1], f"Dprime({k},{p})")


# Unit group of the quaternions, indexed 0..7 in the order
# e, x, y, x^2, x*y, y*x, x^3, y^3, which is 1, i, j, -1, k, -k, -i, -j.
_QUNITS = [(1, 0), (1, 1), (1, 2), (-1, 0), (1, 3), (-1, 3), (-1, 1), (-1, 2)]
_QINDEX = {unit: w for w, unit in enumerate(_QUNITS)}
_QLABELS = ["e", "x", "y", "x^2", "x*y", "y*x", "x^3", "y^3"]

# basis products for axes (1, i, j, k)
_QBASIS = [[None] * 4 for _ in range(4)]
for _a in range(4):
    _QBASIS[0][_a] = (1, _a)
    _QBASIS[_a][0] = (1, _a)
for _a, _b, _c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _QBASIS[_a][_a] = (-1, 0)
    _QBASIS[_a][_b] = (1, _c)
    _QBASIS[_b][_a] = (-1, _c)


def _qmul(u: int, v: int) -> int:
    su, au = _QUNITS[u]
    sv, av = _QUNITS[v]
    sb, ab = _QBASIS[au][av]
    return _QINDEX[(su * sv * sb, ab)]


_QMUL = [[_qmul(u, v) for v in range(8)] for u in range(8)]

_QINV = [row.index(0) for row in _QMUL]

# the order-3 automorphism x -> y -> x*y -> x induced by conjugation by z
_QSIGMA = [0, 2, 4, 3, 1, 6, 7, 5]
_QSIGMA_POWERS = [list(range(8)), _QSIGMA, [_QSIGMA[w] for w in _QSIGMA]]


def tprime_rule(k: int) -> NormalForm:
    """Order 8*3^k group: quaternion units extended by z of order 3^k acting by _QSIGMA.

    (unit w)*z^l has index w + 8*l.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}.")
    three_k = 3**k

    def mul(i: int, j: int) -> int:
        l1, w1 = divmod(i, 8)
        l2, w2 = divmod(j, 8)
        return _QMUL[w1][_QSIGMA_POWERS[l1 % 3][w2]] + 8 * ((l1 + l2) % three_k)

    def inv(i: int) -> int:
        l, w = divmod(i, 8)
        return _QSIGMA_POWERS[-l % 3][_QINV[w]] + 8 * (-l % three_k)

    def label(i: int) -> str:
        l, w = divmod(i, 8)
        if l == 0:
            return _QLABELS[w]
        zs = "z" if l == 1 else f"z^{l}"
        return zs if w == 0 else f"{_QLABELS[w]}*{zs}"

    return NormalForm(8 * three_k, mul, inv, label, [1, 8], f"Tprime({k})")


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



_RULES = {
    "Z": cyclic_rule,
    "Dstar": binary_dihedral_rule,
    "Dprime": dprime_rule,
    "Tprime": tprime_rule,
}
_POLYHEDRAL_ORDERS = {"Tstar": 24, "Ostar": 48, "Istar": 120}


def atom_group(atom: Atom) -> NormalForm | FiniteGroup:
    """The cheapest exact model of one atom, for class-level work.

    Normal-form families give their product rule and build no table; the
    binary polyhedral atoms give their coset-enumerated table, the only
    case that loads the table layer.
    """
    rule = _RULES.get(atom.kind)
    if rule is not None:
        return rule(*atom.params)
    from .group_core import construct_family

    return construct_family(atom)


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
        elif atom.kind in _RULES:
            order *= _RULES[atom.kind](*atom.params).order
        else:
            raise ValueError(f"unknown family {atom.kind!r}")
    return order
