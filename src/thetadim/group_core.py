"""Finite groups: normal-form product rules, dense multiplication tables, products.

Elements are integers 0..order-1 and 0 is always the identity.  The cyclic,
binary dihedral, split metacyclic, and twisted quaternion-tower families are
each written once as a `NormalForm` product rule on their element indices;
class-level computations run on the rule directly.  The three exceptional
binary polyhedral groups (order at most 120) are built solely by coset
enumeration from their two-generator presentations.  `product_rule` composes
two groups of either kind, so an expression's atoms fold into one rule, and
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
from typing import Callable, NamedTuple

from .expr import Atom, GroupExpr, parse_group_expr

__all__ = [
    "FiniteGroup",
    "NormalForm",
    "ResourceLimitError",
    "TABLE_MAX_ENTRIES",
    "atom_group",
    "binary_dihedral_group",
    "binary_dihedral_rule",
    "construct_family",
    "cyclic_group",
    "cyclic_rule",
    "direct_product",
    "dprime_group",
    "dprime_rule",
    "group_from_expr",
    "group_order",
    "istar_group",
    "ostar_group",
    "product_rule",
    "tprime_group",
    "tprime_rule",
    "tstar_group",
]


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size budget."""


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
    return _tabulate(cyclic_rule(n))


def binary_dihedral_group(p: int) -> FiniteGroup:
    return _tabulate(binary_dihedral_rule(p))


def dprime_group(k: int, p: int) -> FiniteGroup:
    return _tabulate(dprime_rule(k, p))


def tprime_group(k: int) -> FiniteGroup:
    return _tabulate(tprime_rule(k))


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
    binary polyhedral atoms give their coset-enumerated table.
    """
    rule = _RULES.get(atom.kind)
    return construct_family(atom) if rule is None else rule(*atom.params)


def group_order(group: FiniteGroup | GroupExpr | str) -> int:
    """Order of a group, or of the group an expression names, without building it.

    Invalid family parameters raise the same ValueError as construction.
    """
    if isinstance(group, FiniteGroup):
        return group.order
    if isinstance(group, str):
        group = parse_group_expr(group)
    order = 1
    for atom in group.atoms:
        if atom.kind in _POLYHEDRAL_ORDERS:
            order *= _POLYHEDRAL_ORDERS[atom.kind]
        elif atom.kind in _RULES:
            order *= _RULES[atom.kind](*atom.params).order
        else:
            raise ValueError(f"unknown family {atom.kind!r}")
    return order


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
