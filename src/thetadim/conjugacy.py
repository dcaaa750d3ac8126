"""Conjugacy classes, power maps on classes, and the class-level evaluator.

Class data comes from orbits of conjugation by the generators, on either a
multiplication table or a normal-form product rule, so a group expression's
classes are found without building any O(|G|^2) table.  Every class-level
command reads its atoms through one pass, `atom_classes`, which also holds
them to the budgets and checks their class counts; `class_data_for` composes
a product's classes for `classes` and `chartab`.  Class-mode burnside and
the chars route compose none: `moments` turns each atom's class data and a
first twisted trace t, the square-root counts or the real character sums,
into a vector of multiplicative class sums, and `moment_dims` reads every
report field off the product of the vectors.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import prod

from .expr import GroupExpr, parse_group_expr
from .normal_form import ResourceLimitError, check_printable, family, group_order, int_text

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .group_core import FiniteGroup
    from .normal_form import NormalForm

__all__ = [
    "ClassData",
    "atom_classes",
    "class_data_for",
    "compute_classes",
    "d1_class_formula",
    "half_sum",
    "moment_dims",
    "moments",
    "pair_average",
    "power_class_weights",
    "product_class_data",
    "square_root_counts",
    "z2_orbit_count",
]

# class data holds several ints per class, as many as elements in a cyclic
# group: class_data_for("Z(1000000)") peaks at about 122 MB, and `classes
# "Z(3000000)"`, which names every class too, at about 336 MB.
# class_data_for refuses a larger order, and the class-level routes a larger
# atom, since they build the class data of atoms alone; no budget lifts it
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
    Every list has one entry per class; the rule's `label` names a
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

    An order above CLASS_DATA_MAX_ORDER, read off the expression, is refused
    before anything is built; then the classes of each atom (`atom_classes`)
    are composed with `product_class_data`.  The numbering equals that of
    `compute_classes` on the full `group_from_expr` table.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    _hold_to_budget(group_order(expr))
    return reduce(product_class_data, (cd for _, _, cd in atom_classes(expr)))


def _hold_to_budget(order: int) -> None:
    if order > CLASS_DATA_MAX_ORDER:
        raise ResourceLimitError(
            f"order {int_text(order)} exceeds the class-data budget {CLASS_DATA_MAX_ORDER}"
        )


def atom_classes(expr: GroupExpr):
    """(atom, its product rule, its class data) for each atom of `expr`, in
    factor order, each rule built once and its class data as it is read.

    Before any class is built, each atom is held to CLASS_DATA_MAX_ORDER, and
    a product whose answer is too long to print is refused: the C(n+2, 3)
    multisets of three elements of a group of order n fall into orbits of at
    most 2n^2 elements, so every dimension exceeds n/12.  Either refusal names
    the closed form where it answers.  Each class count must be the family's.
    """
    rules = [(atom, family(atom.kind).model(atom)) for atom in expr.atoms]
    try:
        for _, group in rules:
            _hold_to_budget(group.order)
        check_printable(prod(group.order for _, group in rules) // 12)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{exc}{_closed_form_hint(expr)}") from None
    for atom, group in rules:
        cd = compute_classes(group)
        if cd.num_classes != (k := family(atom.kind).class_count(atom)):
            raise AssertionError(f"{group.family_tag}: {cd.num_classes} classes, expected {k}")
        yield atom, group, cd


def _closed_form_hint(expr: GroupExpr) -> str:
    """The end of a class-data refusal: the closed form, where it answers
    `expr`, imported here so that a route that answers loads none of it."""
    from .closed_forms import SphericalMatchError, spec_from_expr

    try:
        spec_from_expr(expr)
    except SphericalMatchError:
        return ""
    return "; use the closed-form route instead"


def product_class_data(cd1: ClassData, cd2: ClassData) -> ClassData:
    """Class data of a direct product, composed without building the product group.

    Conjugacy in a direct product is componentwise, and the product class
    (c1, c2) has smallest element rep1[c1]*order2 + rep2[c2].  Sorting pairs
    by (c1, c2) therefore reproduces exactly the smallest-element numbering
    that `compute_classes` would use on the product group.
    """
    n2, k2 = cd2.order, cd2.num_classes

    def pairs(field: str, scale: int) -> list[int]:
        return [x1 * scale + x2 for x1 in getattr(cd1, field) for x2 in getattr(cd2, field)]

    sizes = [s1 * s2 for s1 in cd1.sizes for s2 in cd2.sizes]
    classes = [pairs(field, k2) for field in ("square_class", "cube_class", "inverse_class")]
    return ClassData(cd1.order * n2, pairs("representatives", n2), sizes, *classes)


def z2_orbit_count(cd: ClassData) -> int:
    """Number of orbits of classes under inversion."""
    return _inversion_orbits(cd.num_classes, sum(ic == c for c, ic in enumerate(cd.inverse_class)))


def _inversion_orbits(k: int, fixed: int) -> int:
    moved = k - fixed
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


def moments(cd: ClassData, t: list[int]) -> tuple[int, ...]:
    """The moment vector of one atom: eleven class sums, each multiplicative.

    With s the class size, c = |G|/s the centralizer order, sq and cu the
    square and cube classes, W2 and W3 the power-class weights and t the
    first twisted trace, the vector is |G|, the class count k, the number of
    self-inverse classes, and the sums over classes of s^2 c^3, s^2 c c(sq),
    s c(cu) W3(cu), s c(sq) W2(sq), s t^3, s t c, s t(cu) and s t^2.  t is
    the square-root count (`square_root_counts`) for class-mode burnside, or
    the real character sum S = S+ + S- for the chars route; the root count is
    S+ - S- by Frobenius-Schur, and both give the same dimensions.  Power
    maps and inversion act componentwise on G1 x G2, so each term is
    multiplicative and a product's vector is the elementwise product of its
    atoms' vectors.
    """
    n, sizes = cd.order, cd.sizes
    cent = [n // s for s in sizes]
    sq_cls, cu_cls = cd.square_class, cd.cube_class
    w2 = power_class_weights(sq_cls, sizes)
    w3 = power_class_weights(cu_cls, sizes)
    fixed = a = b = c = d = e = f = g = h = 0
    for i, s in enumerate(sizes):
        ci, sq, cu, ti = cent[i], sq_cls[i], cu_cls[i], t[i]
        fixed += cd.inverse_class[i] == i
        a += s * s * ci**3
        b += s * s * ci * cent[sq]
        c += s * cent[cu] * w3[cu]
        d += s * cent[sq] * w2[sq]
        e += s * ti**3
        f += s * ti * ci
        g += s * t[cu]
        h += s * ti * ti
    return n, len(sizes), fixed, a, b, c, d, e, f, g, h


def moment_dims(vectors, name: str) -> tuple[int, int, int, int, int, int, int]:
    """(order, k, d1, d2, dim, kernel dim, z2) from the product of atoms' moment vectors.

    Both pair actions are averaged through the symmetric-cube trace
    polynomial t1^3 + 3 t1 t2 + 2 t3; its kernel form, with each t_j
    replaced by t_j - 1, is that less 3 (t1^2 + t2).  Plain traces are class
    functions of the pair: for g in class i and h in class j, t1 = c(i) if
    i == j, and t2 = c(sq i) or t3 = c(cu i) if g and h share their square
    or cube class, of total weight W2 or W3.  Twisted traces depend on h*g
    alone, so their pair sum is |G| times one class sum, with t2 = c and t1,
    t3 read from t at the class and its cube class.  Each pair sum is 6|G|^2
    times its dimension, and the kernel dimension must be the full one less
    z2, the number of inversion orbits of the classes.
    """
    n, k, fixed, a, b, c, d, e, f, g, h = (prod(column) for column in zip(*vectors))
    plain, twisted = a + 3 * b + 2 * c, n * (e + 3 * f + 2 * g)
    d1 = pair_average(plain, n, f"d1 for {name}")
    d2 = pair_average(twisted, n, f"d2 for {name}")
    dim = half_sum(d1, d2, f"dim for {name}")
    ker = half_sum(
        # the kernel corrections: sum s^2 c^2 is k |G|^2 and sum s c is k |G|
        pair_average(plain - 3 * (n * n * k + d), n, f"kernel d1 for {name}"),
        pair_average(twisted - 3 * n * (h + n * k), n, f"kernel d2 for {name}"),
        f"kernel dim for {name}",
    )
    z2 = _inversion_orbits(k, fixed)
    if dim - ker != z2:
        raise AssertionError(f"{name}: dimension gap {dim - ker}, but {z2} inversion orbits")
    return n, k, d1, d2, dim, ker, z2


def pair_average(total: int, order: int, what: str) -> int:
    """total / (6 |G|^2), the pair average of a cube trace sum, which must be a
    nonnegative integer; anything else is a bug."""
    den = 6 * order * order
    q, rem = divmod(total, den)
    if rem or q < 0:
        raise AssertionError(f"{what} is not a nonnegative integer: {total}/{den}")
    return q


def half_sum(d1: int, d2: int, what: str) -> int:
    """(d1 + d2) / 2, a dimension as the mean of its two pair averages, which
    must be an integer; anything else is a bug."""
    q, rem = divmod(d1 + d2, 2)
    if rem:
        raise AssertionError(f"{what} is not an integer: {d1 + d2}/2")
    return q


def d1_class_formula(cd: ClassData) -> int:
    """d1, the dimension of the invariant part of the cube of the plain pair action."""
    return moment_dims([moments(cd, square_root_counts(cd))], f"order {cd.order}")[2]
