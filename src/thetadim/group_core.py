"""Finite groups: normal-form product rules, dense multiplication tables, products.

Elements are integers 0..order-1 and 0 is always the identity.  The cyclic,
binary dihedral, split metacyclic, and twisted quaternion-tower families are
each written once as a `NormalForm` product rule on their element indices;
class-level computations run on the rule directly, and the table
constructors fill their tables from it.  The three exceptional binary
polyhedral groups (order at most 120) are built solely by coset enumeration
from their two-generator presentations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

from .expr import Atom, GroupExpr, parse_group_expr

__all__ = [
    "DEFAULT_PRODUCT_MAX_ENTRIES",
    "FiniteGroup",
    "NormalForm",
    "ResourceLimitError",
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
    "tprime_group",
    "tprime_rule",
    "tstar_group",
    "validate_spherical",
]


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size budget."""


DEFAULT_PRODUCT_MAX_ENTRIES = 10**6


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `mul_table` is row-major: the product of i and j sits at index i*order+j.
    Element 0 must be a two-sided identity; inverses are computed and checked
    at construction time.
    """

    __slots__ = ("order", "_mul", "inverses", "labels", "family_tag", "generators")

    def __init__(
        self,
        order: int,
        mul_table,
        labels=None,
        family_tag: str = "",
        generators=None,
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
        for j in range(order):
            if mul[j] != j or mul[j * order] != j:
                raise ValueError("element 0 is not a two-sided identity")
        inv = [-1] * order
        for i in range(order):
            base = i * order
            for j in range(order):
                if mul[base + j] == 0:
                    inv[i] = j
                    break
            if inv[i] < 0 or mul[inv[i] * order + i] != 0:
                raise ValueError(f"element {i} has no two-sided inverse")
        self.inverses = inv
        if labels is None:
            labels = [f"g{i}" for i in range(order)]
        else:
            labels = list(labels)
            if len(labels) != order:
                raise ValueError("label count does not match order")
        self.labels = labels
        self.family_tag = family_tag
        if generators is None:
            generators = self._greedy_generators()
        self.generators = list(generators)

    def mul(self, i: int, j: int) -> int:
        return self._mul[i * self.order + j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def label(self, i: int) -> str:
        return self.labels[i]

    def power(self, i: int, e: int) -> int:
        if e < 0:
            i = self.inverses[i]
            e = -e
        result = 0
        while e:
            if e & 1:
                result = self.mul(result, i)
            i = self.mul(i, i) if e > 1 else i
            e >>= 1
        return result

    def element_order(self, i: int) -> int:
        e = 1
        x = i
        while x != 0:
            x = self.mul(x, i)
            e += 1
        return e

    def conjugate(self, x: int, g: int) -> int:
        """x g x^-1."""
        return self.mul(self.mul(x, g), self.inverses[x])

    def row(self, i: int):
        """The slice mul(i, -) as a flat array, for hot loops."""
        return self._mul[i * self.order : (i + 1) * self.order]

    def check_associativity(self) -> None:
        """Full O(order^3) associativity check; intended for tests."""
        n = self.order
        mul = self._mul
        for i in range(n):
            for j in range(n):
                ij = mul[i * n + j]
                for k in range(n):
                    if mul[ij * n + k] != mul[i * n + mul[j * n + k]]:
                        raise AssertionError(f"associativity fails at {(i, j, k)}")

    def _closure(self, gens: list[int]) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = self.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def _greedy_generators(self) -> list[int]:
        gens: list[int] = []
        reached = {0}
        for i in range(1, self.order):
            if i not in reached:
                gens.append(i)
                reached = self._closure(gens)
                if len(reached) == self.order:
                    break
        return gens


@dataclass(frozen=True)
class NormalForm:
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


def _tabulate(rule: NormalForm) -> FiniteGroup:
    """The multiplication table a normal-form rule defines."""
    n, mul = rule.order, rule.mul
    table = array("i", [mul(i, j) for i in range(n) for j in range(n)])
    return FiniteGroup(
        n,
        table,
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


def _polyhedral(b_order: int, expected: int, tag: str) -> FiniteGroup:
    from .coset_enum import group_from_presentation

    text = f"<a,b | (a*b)^2 = a^3 = b^{b_order}>"
    return group_from_presentation(text, expected_order=expected, family_tag=tag)


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
    g1: FiniteGroup,
    g2: FiniteGroup,
    max_entries: int = DEFAULT_PRODUCT_MAX_ENTRIES,
) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n * n > max_entries:
        raise ResourceLimitError(
            f"product of orders {n1} and {n2} needs {n * n} table entries, "
            f"budget is {max_entries}."
        )
    flat = [0] * (n * n)
    m1, m2 = g1._mul, g2._mul
    for i1 in range(n1):
        for i2 in range(n2):
            i = i1 * n2 + i2
            base = i * n
            row1 = i1 * n1
            row2 = i2 * n2
            for j1 in range(n1):
                k1 = m1[row1 + j1] * n2
                col = j1 * n2
                for j2 in range(n2):
                    flat[base + col + j2] = k1 + m2[row2 + j2]
    labels = [
        f"({a},{b})" for a in g1.labels for b in g2.labels
    ]
    gens = [i1 * n2 for i1 in g1.generators] + list(g2.generators)
    tag1 = g1.family_tag or "?"
    tag2 = g2.family_tag or "?"
    return FiniteGroup(
        n, flat, labels=labels, family_tag=f"{tag1}x{tag2}", generators=gens
    )


def group_from_expr(
    expr: GroupExpr | str,
    max_entries: int = DEFAULT_PRODUCT_MAX_ENTRIES,
) -> FiniteGroup:
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    group = construct_family(expr.atoms[0])
    for atom in expr.atoms[1:]:
        group = direct_product(group, construct_family(atom), max_entries=max_entries)
    return group


def validate_spherical(expr: GroupExpr | str) -> tuple[bool, str | None]:
    """Whether the expression matches a spherical space form fundamental group."""
    from .closed_forms import SphericalMatchError, spec_from_expr

    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    try:
        spec_from_expr(expr)
    except SphericalMatchError as exc:
        return False, str(exc)
    return True, None
