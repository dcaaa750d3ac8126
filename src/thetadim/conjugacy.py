"""Conjugacy classes, power maps on classes, and class-level counting sums.

Class data comes from orbits of conjugation by the generators, on either a
multiplication table or a normal-form product rule, so a group expression's
classes are found without building any O(|G|^2) table (`class_data_for`).
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .expr import GroupExpr, parse_group_expr
from .group_core import FiniteGroup, NormalForm, ResourceLimitError, atom_group, group_order

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ClassData",
    "class_data_for",
    "compute_classes",
    "d1_class_formula",
    "delta3_weighted_sum",
    "power_class_weights",
    "product_class_data",
    "z2_orbit_count",
]

# class data holds several ints per element: `classes "Z(3000000)"` peaks at
# about 540 MB.  class_data_for refuses a larger order, and no budget lifts it
CLASS_DATA_MAX_ORDER = 10**7


class ClassData(NamedTuple):
    """Conjugacy structure of a finite group.

    Classes are numbered by their smallest contained element, in increasing
    order, so class 0 is always the identity class.  `square_class[c]` is the
    class of g^2 for g in class c, and similarly for cubes and inverses; these
    maps are well defined because power maps commute with conjugation.
    `labels[c]` is the printed name of `representatives[c]`.
    """

    order: int
    class_of: list[int]
    representatives: list[int]
    sizes: list[int]
    square_class: list[int]
    cube_class: list[int]
    inverse_class: list[int]
    labels: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    def centralizer_size(self, c: int) -> int:
        return self.order // self.sizes[c]


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
    return ClassData(
        order=n,
        class_of=class_of,
        representatives=representatives,
        sizes=sizes,
        square_class=square_class,
        cube_class=cube_class,
        inverse_class=inverse_class,
        labels=[group.label(r) for r in representatives],
    )


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
    n = group_order(expr)
    if n > CLASS_DATA_MAX_ORDER:
        raise ResourceLimitError(
            f"order {n} exceeds the class-data budget {CLASS_DATA_MAX_ORDER}"
        )
    return reduce(product_class_data, (compute_classes(atom_group(a)) for a in expr.atoms))


def product_class_data(cd1: ClassData, cd2: ClassData) -> ClassData:
    """Class data of a direct product, composed without building the product group.

    Conjugacy in a direct product is componentwise, and the product class
    (c1, c2) has smallest element rep1[c1]*order2 + rep2[c2].  Sorting pairs
    by (c1, c2) therefore reproduces exactly the smallest-element numbering
    that `compute_classes` would use on the product group.
    """
    n2 = cd2.order
    k2 = cd2.num_classes
    n = cd1.order * n2

    class_of = [0] * n
    for i1 in range(cd1.order):
        base_cls = cd1.class_of[i1] * k2
        base_el = i1 * n2
        co2 = cd2.class_of
        for i2 in range(n2):
            class_of[base_el + i2] = base_cls + co2[i2]

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
        order=n,
        class_of=class_of,
        representatives=representatives,
        sizes=sizes,
        square_class=square_class,
        cube_class=cube_class,
        inverse_class=inverse_class,
        labels=[f"({l1},{l2})" for l1 in cd1.labels for l2 in cd2.labels],
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


def delta3_weighted_sum(cd: ClassData) -> Fraction:
    """Sum of |C(g)| |C(h)| / |C(g^3)| over class pairs with g^3 conjugate to h^3.

    Grouping the pairs by their common cube class C gives W3[C]^2 / |C| per
    cube class, with W3 the cube-class weights, so the sum runs in O(k).
    """
    sizes = cd.sizes
    by_size: dict[int, int] = {}
    for c, w in enumerate(power_class_weights(cd.cube_class, sizes)):
        by_size[sizes[c]] = by_size.get(sizes[c], 0) + w * w
    return _sum_over_denominators(by_size)


def _sum_over_denominators(numerators: dict[int, int]) -> Fraction:
    """Sum of numerators[d] / d: one Fraction per distinct denominator d."""
    from fractions import Fraction  # only the routes that build one pay for it

    return sum((Fraction(num, d) for d, num in numerators.items()), Fraction(0))


def d1_class_formula(cd: ClassData) -> Fraction:
    """Dimension of the invariant part of the cube of the two-sided action.

    Evaluates (1/6) * sum over classes of (|G|/|C| + 3|C|/|C^2-class|)
    plus (1/(3|G|)) * the cube-matched pair sum.
    """
    n = cd.order
    sizes = cd.sizes
    # |C| divides |G|, so the first terms are integers; the second are grouped
    # by their denominator, the size of the square class
    whole = sum(n // size for size in sizes)
    by_square: dict[int, int] = {}
    for size, sq in zip(sizes, cd.square_class):
        by_square[sizes[sq]] = by_square.get(sizes[sq], 0) + 3 * size
    single = whole + _sum_over_denominators(by_square)
    return single / 6 + delta3_weighted_sum(cd) / (3 * n)
