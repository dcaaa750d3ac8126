"""Literal O(|G|^2) class-level oracles for the table-free class layer.

These are the straightforward versions that the library replaced: classes
found by conjugating each element by every group element, and the class-mode
pair sums and cube-matched weighted sum as double loops over class pairs.
They need a full multiplication table and are kept only as test references.
`cube_matched_sum` reads the cube-matched sum off the library's moment
vector, so the tests can pin that part of it on its own.
"""

from __future__ import annotations

from fractions import Fraction

from oracles import power
from thetadim.conjugacy import ClassData, moments, square_root_counts
from thetadim.group_core import FiniteGroup


def literal_class_of(group: FiniteGroup) -> list[int]:
    """The class of each element, by conjugating every element by every x:
    x g x^-1.  Classes are numbered by their smallest member, in increasing
    order, as in `ClassData`."""
    rows, inv = group.rows, group.inverses
    n = len(rows)
    class_of = [-1] * n
    c = 0
    for g in range(n):
        if class_of[g] >= 0:
            continue
        for x in range(n):
            class_of[rows[rows[x][g]][inv[x]]] = c
        c += 1
    return class_of


def literal_classes(group: FiniteGroup) -> ClassData:
    """Class data read off `literal_class_of`."""
    rows, inv = group.rows, group.inverses
    n = len(rows)
    class_of = literal_class_of(group)
    representatives: list[int] = []
    sizes = [0] * (max(class_of) + 1)
    for g, c in enumerate(class_of):
        if c == len(representatives):
            representatives.append(g)
        sizes[c] += 1
    square_class = []
    cube_class = []
    inverse_class = []
    for r in representatives:
        r2 = rows[r][r]
        square_class.append(class_of[r2])
        cube_class.append(class_of[rows[r2][r]])
        inverse_class.append(class_of[inv[r]])
    return ClassData(
        order=n,
        representatives=representatives,
        sizes=sizes,
        square_class=square_class,
        cube_class=cube_class,
        inverse_class=inverse_class,
    )


def _ker_terms(t1: int, t2: int, t3: int) -> int:
    u1, u2, u3 = t1 - 1, t2 - 1, t3 - 1
    return u1**3 + 3 * u1 * u2 + 2 * u3


def pair_class_sums(group: FiniteGroup, cd: ClassData) -> tuple[int, int, int, int]:
    """The four burnside sums as a double loop over class pairs.

    Square-root counts are read off the table element by element.
    """
    rows = group.rows
    n = len(rows)
    k = cd.num_classes
    sizes = cd.sizes
    cent = [n // s for s in sizes]
    sq_cls = cd.square_class
    cu_cls = cd.cube_class

    plain_sum = plain_ker = 0
    for i in range(k):
        cent_sq = cent[sq_cls[i]]
        cent_cu = cent[cu_cls[i]]
        for j in range(k):
            t1 = cent[i] if j == i else 0
            t2 = cent_sq if sq_cls[j] == sq_cls[i] else 0
            t3 = cent_cu if cu_cls[j] == cu_cls[i] else 0
            w = sizes[i] * sizes[j]
            plain_sum += w * (t1**3 + 3 * t1 * t2 + 2 * t3)
            plain_ker += w * _ker_terms(t1, t2, t3)

    root_count = [0] * n
    for y in range(n):
        root_count[rows[y][y]] += 1

    twist_sum = twist_ker = 0
    for c in range(k):
        rep = cd.representatives[c]
        r1 = root_count[rep]
        r3 = root_count[power(group, rep, 3)]
        twist_sum += sizes[c] * (r1**3 + 3 * r1 * cent[c] + 2 * r3)
        twist_ker += sizes[c] * _ker_terms(r1, cent[c], r3)
    return plain_sum, plain_ker, n * twist_sum, n * twist_ker


def cube_matched_sum(cd: ClassData) -> Fraction:
    """The cube-matched pair sum as the library's moment vector holds it.

    Entry 5 of `moments(cd, t)` is the sum over classes C of
    |C| c(C^3) W3(C^3), with c the centralizer size and W3 the cube-class
    weight: |G| times the sum over class pairs with a common cube class of
    |C(g)| |C(h)| / |C(g^3)|.
    """
    return Fraction(moments(cd, square_root_counts(cd))[5], cd.order)


def pair_delta3_sum(cd: ClassData) -> Fraction:
    """Sum of |C(g)| |C(h)| / |C(g^3)| over ordered class pairs with matching cubes."""
    total = Fraction(0)
    sizes = cd.sizes
    cubes = cd.cube_class
    k = cd.num_classes
    for i in range(k):
        cube_i = cubes[i]
        weight = 0
        for j in range(k):
            if cubes[j] == cube_i:
                weight += sizes[j]
        total += Fraction(sizes[i] * weight, sizes[cube_i])
    return total
