"""Conjugacy classes, power maps on classes, and class-level counting sums.

Class data comes from orbits of conjugation by the generators, on either a
multiplication table or a normal-form product rule, so a group expression's
classes are found without building any O(|G|^2) table (`class_data_for`).
`plain_trace_sums` and `twisted_trace_sums` are the one O(k) evaluator of the
pair-averaged cube traces: class-mode burnside and the chars route both call
it, and differ only in the first twisted trace they pass, the square-root
counts of the classes or their real character sums.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from typing import TYPE_CHECKING

from .expr import GroupExpr, parse_group_expr
from .normal_form import NormalForm, ResourceLimitError, atom_group, group_order

if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = [
    "ClassData",
    "check_class_data_order",
    "class_data_for",
    "compute_classes",
    "d1_class_formula",
    "pair_average",
    "plain_trace_sums",
    "power_class_weights",
    "product_class_data",
    "square_root_counts",
    "twisted_trace_sums",
    "z2_orbit_count",
]

# class data holds several ints per class, as many as elements in a cyclic
# group: class_data_for("Z(1000000)") peaks at about 122 MB, and `classes
# "Z(3000000)"`, which names every class too, at about 336 MB.
# class_data_for refuses a larger order, and no budget lifts it
CLASS_DATA_MAX_ORDER = 10**7


class ClassData(
    namedtuple(
        "ClassData", "order representatives sizes square_class cube_class inverse_class"
    )
):
    """Conjugacy structure of a finite group.

    Classes are numbered by their smallest contained element, in increasing
    order, so class 0 is always the identity class.  `square_class[c]` is the
    class of g^2 for g in class c, and similarly for cubes and inverses; these
    maps are well defined because power maps commute with conjugation.
    Every list has one entry per class; the group's `label` names a
    representative when one is printed.  `order` is an int and every other
    field a list[int].
    """

    __slots__ = ()

    @property
    def num_classes(self) -> int:
        return len(self.representatives)


def compute_classes(group: FiniteGroup | NormalForm) -> ClassData:
    """Classes as orbits of conjugation by the generators.

    Each element is conjugated once by each generator, so the cost is
    O(|G| * |S|) products, and `group` may be a table or a normal-form rule.
    Orbits under the generators are whole classes because the generators'
    inner automorphisms generate all of them.
    """
    n = group.order
    mul = group.mul
    gens = [(s, group.inv(s)) for s in group.generators]
    class_of = [-1] * n
    representatives: list[int] = []
    sizes: list[int] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        c = len(representatives)
        class_of[g] = c
        stack = [g]
        size = 0
        while stack:
            y = stack.pop()
            size += 1
            for s, si in gens:
                z = mul(mul(s, y), si)
                if class_of[z] < 0:
                    class_of[z] = c
                    stack.append(z)
        representatives.append(g)
        sizes.append(size)
    square_class = []
    cube_class = []
    inverse_class = []
    for r in representatives:
        r2 = mul(r, r)
        square_class.append(class_of[r2])
        cube_class.append(class_of[mul(r2, r)])
        inverse_class.append(class_of[group.inv(r)])
    return ClassData(n, representatives, sizes, square_class, cube_class, inverse_class)


def class_data_for(expr: GroupExpr | str) -> ClassData:
    """Class data of a group expression, built from its atoms without a table.

    Normal-form atoms are conjugated through their product rule, the binary
    polyhedral atoms through their coset-enumerated tables, and products are
    composed with `product_class_data`.  The numbering equals that of
    `compute_classes` on the full `group_from_expr` table.  An order above
    CLASS_DATA_MAX_ORDER, read off the expression, is refused before anything
    is built.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    check_class_data_order(expr)
    return reduce(product_class_data, (compute_classes(atom_group(a)) for a in expr.atoms))


def check_class_data_order(expr: GroupExpr) -> None:
    """Refuse an order above CLASS_DATA_MAX_ORDER, read off the expression.

    Nothing is built first; invalid parameters raise ValueError instead.
    """
    n = group_order(expr)
    if n > CLASS_DATA_MAX_ORDER:
        raise ResourceLimitError(
            f"order {n} exceeds the class-data budget {CLASS_DATA_MAX_ORDER}"
        )


def product_class_data(cd1: ClassData, cd2: ClassData) -> ClassData:
    """Class data of a direct product, composed without building the product group.

    Conjugacy in a direct product is componentwise, and the product class
    (c1, c2) has smallest element rep1[c1]*order2 + rep2[c2].  Sorting pairs
    by (c1, c2) therefore reproduces exactly the smallest-element numbering
    that `compute_classes` would use on the product group.
    """
    n2 = cd2.order
    k2 = cd2.num_classes
    representatives = []
    sizes = []
    square_class = []
    cube_class = []
    inverse_class = []
    for c1 in range(cd1.num_classes):
        for c2 in range(k2):
            representatives.append(cd1.representatives[c1] * n2 + cd2.representatives[c2])
            sizes.append(cd1.sizes[c1] * cd2.sizes[c2])
            square_class.append(cd1.square_class[c1] * k2 + cd2.square_class[c2])
            cube_class.append(cd1.cube_class[c1] * k2 + cd2.cube_class[c2])
            inverse_class.append(cd1.inverse_class[c1] * k2 + cd2.inverse_class[c2])
    return ClassData(
        cd1.order * n2, representatives, sizes, square_class, cube_class, inverse_class
    )


def z2_orbit_count(cd: ClassData) -> int:
    """Number of orbits of classes under inversion."""
    fixed = sum(1 for c, ic in zip(range(cd.num_classes), cd.inverse_class) if ic == c)
    moved = cd.num_classes - fixed
    if moved % 2:
        raise AssertionError("inversion must pair up the non-fixed classes")
    return fixed + moved // 2


def power_class_weights(power_class: list[int], sizes: list[int]) -> list[int]:
    """W[C] = sum of |c| over the classes c whose power map sends them to C.

    W[C] counts the elements whose square (or cube, for the cube map) lies in
    C, so W[C] / |C| is the number of square (cube) roots of each g in C.
    """
    weights = [0] * len(sizes)
    for c, target in enumerate(power_class):
        weights[target] += sizes[c]
    return weights


def square_root_counts(cd: ClassData) -> list[int]:
    """The number of square roots of an element of each class, W2[C] / |C|."""
    weights = power_class_weights(cd.square_class, cd.sizes)
    roots = []
    for c, size in enumerate(cd.sizes):
        r, rem = divmod(weights[c], size)
        if rem:
            raise AssertionError(f"square roots of class {c} are not evenly spread")
        roots.append(r)
    return roots


# Both pair actions are averaged through the symmetric-cube trace polynomial
# t1^3 + 3 t1 t2 + 2 t3 and its kernel form, with every power trace t_k replaced
# by t_k - 1, which is the full polynomial minus 3 (t1^2 + t2).  Each evaluator
# returns the pair sums of both: 6|G|^2 times the dimension (d1 or d2) and its
# kernel variant.


def plain_trace_sums(cd: ClassData) -> tuple[int, int]:
    """Pair sums of the plain cube traces and of their kernel form, in O(k).

    Plain traces are class functions of the pair: for g in class i and h in
    class j, t1 = |C_G(g)| if i == j, t2 = |C_G(g^2)| if g^2 ~ h^2 and
    t3 = |C_G(g^3)| if g^3 ~ h^3, each 0 otherwise.  Summing |i||j| times the
    polynomial over class pairs, the t1 terms live on the diagonal and the
    lone t2 and t3 terms on pairs with a common square or cube class C, whose
    total weight is the power-class weight W2[C] or W3[C].
    """
    n = cd.order
    sizes = cd.sizes
    cent = [n // s for s in sizes]
    sq_cls = cd.square_class
    cu_cls = cd.cube_class
    w2 = power_class_weights(sq_cls, sizes)
    w3 = power_class_weights(cu_cls, sizes)
    total = ker = 0
    for i, size in enumerate(sizes):
        c1, c2, c3 = cent[i], cent[sq_cls[i]], cent[cu_cls[i]]
        diagonal = size * size * c1
        same_cube = 2 * size * c3 * w3[cu_cls[i]]
        total += diagonal * (c1 * c1 + 3 * c2) + same_cube
        ker += diagonal * (c1 * c1 - 3 * c1 + 3 * c2) - 3 * size * c2 * w2[sq_cls[i]] + same_cube
    return total, ker


def twisted_trace_sums(cd: ClassData, t: list[int]) -> tuple[int, int]:
    """Pair sums of the twisted cube traces and of their kernel form, in O(k).

    Twisted traces are functions of the product h*g alone, and summing over
    pairs with a fixed product gives |G| times a single sum over classes,
    with t2 the centralizer size of the class and t1, t3 read from `t` at the
    class and at its cube class.  `t` is the first twisted trace per class:
    the square-root count (`square_root_counts`) by its definition, or the
    real character sum S(C) = S+ + S-.  By Frobenius-Schur the root count is
    S+ - S-, so the two differ where a quaternionic character is nonzero,
    yet both give the same two sums.
    """
    n = cd.order
    cu_cls = cd.cube_class
    total = ker = 0
    for i, size in enumerate(cd.sizes):
        t1, t2, t3 = t[i], n // size, t[cu_cls[i]]
        full = t1 * (t1 * t1 + 3 * t2) + 2 * t3
        total += size * full
        ker += size * (full - 3 * (t1 * t1 + t2))
    # pair sums carry one more factor of |G| than the class-collapsed sum
    return n * total, n * ker


def pair_average(total: int, order: int, what: str) -> int:
    """total / (6 |G|^2), the pair average of a cube trace sum, which must be a
    nonnegative integer; anything else is a bug."""
    den = 6 * order * order
    q, rem = divmod(total, den)
    if rem or q < 0:
        raise AssertionError(f"{what} is not a nonnegative integer: {total}/{den}")
    return q


def d1_class_formula(cd: ClassData) -> int:
    """d1, the dimension of the invariant part of the cube of the plain pair action."""
    return pair_average(plain_trace_sums(cd)[0], cd.order, "d1")
