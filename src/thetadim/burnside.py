"""Character-free dimension oracles via fixed-point counting and orbit enumeration.

The basis of the group algebra carries two permutation actions per pair (g, h):
the plain one x -> g*x*h^-1 and the twisted one x -> h*x^-1*g^-1 (pair action
followed by inversion).  Averaging symmetric-cube traces over all pairs gives
d1 (plain) and d2 (twisted); the target dimension is their mean.  The kernel
variant replaces every power trace t_k by t_k - 1, since the trivial summand
contributes exactly 1 to each.

Two evaluation modes: "naive" iterates all |G|^2 pairs reading fixed-point
counts from two literally-counted tables, and is the trusted reference;
"class" reduces both sums to O(k) sums over the k conjugacy classes and
needs only class data, so it builds no multiplication table for an
expression.  Orbit enumeration on sorted monomial triples provides a third,
lemma-free count of the same dimension.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

from .conjugacy import ClassData, class_data_for, compute_classes, power_class_weights
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .group_core import FiniteGroup, ResourceLimitError, group_from_expr, group_order

__all__ = [
    "BurnsideResult",
    "DEFAULT_PAIR_MAX_ORDER",
    "DEFAULT_ORBIT_MAX_ORDER",
    "burnside_dims",
    "orbit_count_dims",
]

DEFAULT_PAIR_MAX_ORDER = 2000
DEFAULT_ORBIT_MAX_ORDER = 150

# naive mode switches to class reduction above this order when mode="auto"
_AUTO_NAIVE_MAX_ORDER = 300


@dataclass
class BurnsideResult:
    group_name: str
    order: int
    d1: Fraction
    d2: Fraction
    dim_full: Fraction
    dim_ker: Fraction
    ker_d1: Fraction
    ker_d2: Fraction
    mode: str
    num_classes: int


def _ker_terms(t1: int, t2: int, t3: int) -> int:
    u1, u2, u3 = t1 - 1, t2 - 1, t3 - 1
    return u1**3 + 3 * u1 * u2 + 2 * u3


def _naive_sums(group: FiniteGroup) -> tuple[int, int, int, int]:
    """Sym-cube trace sums over all pairs, via two counted fixed-point tables.

    pl[u*n + v] counts solutions of x^-1*u*x = v, the fixed points of the
    plain action of any pair (g, h) with g in the role of u at x-conjugate v.
    tw[u*n + v] counts solutions of x*u*x = v, the twisted fixed points.
    Power traces reduce to table lookups: the square of the twisted action of
    (g, h) is the plain action of (h*g, g*h), and its cube is the twisted
    action of (g*h*g, h*g*h).
    """
    n = group.order
    mul = group._mul
    inv = group.inverses
    pl = array("i", [0]) * (n * n)
    tw = array("i", [0]) * (n * n)
    for u in range(n):
        base = u * n
        for x in range(n):
            pl[base + mul[mul[inv[x] * n + u] * n + x]] += 1
            tw[base + mul[mul[x * n + u] * n + x]] += 1

    sq = [mul[x * n + x] for x in range(n)]
    cu = [mul[sq[x] * n + x] for x in range(n)]

    plain_sum = plain_ker = 0
    twist_sum = twist_ker = 0
    for g in range(n):
        row = g * n
        sq_row = sq[g] * n
        cu_row = cu[g] * n
        for h in range(n):
            t1 = pl[row + h]
            t2 = pl[sq_row + sq[h]]
            t3 = pl[cu_row + cu[h]]
            plain_sum += t1**3 + 3 * t1 * t2 + 2 * t3
            plain_ker += _ker_terms(t1, t2, t3)

            gh = mul[row + h]
            hg = mul[h * n + g]
            u1 = tw[row + h]
            u2 = pl[hg * n + gh]
            u3 = tw[mul[gh * n + g] * n + mul[hg * n + h]]
            twist_sum += u1**3 + 3 * u1 * u2 + 2 * u3
            twist_ker += _ker_terms(u1, u2, u3)
    return plain_sum, plain_ker, twist_sum, twist_ker


def _class_sums(cd: ClassData) -> tuple[int, int, int, int]:
    """Same four sums as _naive_sums, from conjugacy class data alone, in O(k).

    Plain traces are class functions of the pair: for g in class i and h in
    class j, t1 = |C_G(g)| if i == j, t2 = |C_G(g^2)| if g^2 ~ h^2 and
    t3 = |C_G(g^3)| if g^3 ~ h^3, each 0 otherwise.  Summing |i||j| times a
    trace polynomial over class pairs, the t1 terms live on the diagonal and
    the lone t2 and t3 terms on pairs with a common square or cube class C,
    whose total weight is the power-class weight W2[C] or W3[C].  The kernel
    polynomial expands to t1^3 - 3 t1^2 + 3 t1 t2 - 3 t2 + 2 t3.

    Twisted traces are functions of the product h*g alone, and summing over
    pairs with a fixed product gives |G| times a single sum over classes, with
    t1 the number of square roots of the class, t2 its centralizer size, and
    t3 the square-root count of its cube class.  Roots of class C number
    W2[C] / |C|.
    """
    n = cd.order
    sizes = cd.sizes
    cent = [n // s for s in sizes]
    sq_cls = cd.square_class
    cu_cls = cd.cube_class
    w2 = power_class_weights(sq_cls, sizes)
    w3 = power_class_weights(cu_cls, sizes)
    roots = []
    for c, size in enumerate(sizes):
        r, rem = divmod(w2[c], size)
        if rem:
            raise AssertionError(f"square roots of class {c} are not evenly spread")
        roots.append(r)

    plain_sum = plain_ker = 0
    twist_sum = twist_ker = 0
    for i, size in enumerate(sizes):
        c1, c2, c3 = cent[i], cent[sq_cls[i]], cent[cu_cls[i]]
        diagonal = size * size * c1
        same_cube = 2 * size * c3 * w3[cu_cls[i]]
        plain_sum += diagonal * (c1 * c1 + 3 * c2) + same_cube
        plain_ker += (
            diagonal * (c1 * c1 - 3 * c1 + 3 * c2)
            - 3 * size * c2 * w2[sq_cls[i]]
            + same_cube
        )

        r1, r3 = roots[i], roots[cu_cls[i]]
        twist_sum += size * (r1**3 + 3 * r1 * c1 + 2 * r3)
        twist_ker += size * _ker_terms(r1, c1, r3)
    # pair sums carry one more factor of |G| than the class-collapsed twisted sum
    return plain_sum, plain_ker, n * twist_sum, n * twist_ker


def _as_group(group: FiniteGroup | GroupExpr | str) -> FiniteGroup:
    if isinstance(group, FiniteGroup):
        return group
    return group_from_expr(group)


def burnside_dims(
    group: FiniteGroup | GroupExpr | str,
    mode: str = "auto",
    max_order: int | None = None,
) -> BurnsideResult:
    """Both dimensions by pair-averaged symmetric-cube traces.

    mode "naive" sums all |G|^2 pairs, "class" uses the conjugacy reduction,
    "auto" picks naive for small orders and class otherwise.  The budget is
    checked before anything is built, and class mode on an expression builds
    no multiplication table.
    """
    if isinstance(group, str):
        group = parse_group_expr(group)
    n = group_order(group)
    budget = DEFAULT_PAIR_MAX_ORDER if max_order is None else max_order
    if n > budget:
        raise ResourceLimitError(
            f"order {n} exceeds the pair-counting budget {budget}; "
            "use the character or closed-form route instead"
        )
    name = group.family_tag if isinstance(group, FiniteGroup) else expr_to_string(group)
    if mode == "auto":
        mode = "naive" if n <= _AUTO_NAIVE_MAX_ORDER else "class"
    if mode == "naive":
        table = _as_group(group)
        plain_sum, plain_ker, twist_sum, twist_ker = _naive_sums(table)
        num_classes = compute_classes(table).num_classes
    elif mode == "class":
        if isinstance(group, FiniteGroup):
            cd = compute_classes(group)
        else:
            cd = class_data_for(group)
        plain_sum, plain_ker, twist_sum, twist_ker = _class_sums(cd)
        num_classes = cd.num_classes
    else:
        raise ValueError(f"mode must be auto, naive or class, got {mode!r}.")

    denom = 6 * n * n
    d1 = Fraction(plain_sum, denom)
    d2 = Fraction(twist_sum, denom)
    ker_d1 = Fraction(plain_ker, denom)
    ker_d2 = Fraction(twist_ker, denom)
    dim_full = (d1 + d2) / 2
    dim_ker = (ker_d1 + ker_d2) / 2
    for label, value in (
        ("d1", d1),
        ("d2", d2),
        ("dim", dim_full),
        ("kernel dim", dim_ker),
    ):
        if value.denominator != 1 or value < 0:
            raise AssertionError(
                f"{label} for {name} is not a nonnegative integer: {value}"
            )
    return BurnsideResult(
        group_name=name,
        order=n,
        d1=d1,
        d2=d2,
        dim_full=dim_full,
        dim_ker=dim_ker,
        ker_d1=ker_d1,
        ker_d2=ker_d2,
        mode=mode,
        num_classes=num_classes,
    )


def orbit_count_dims(
    group: FiniteGroup | GroupExpr | str,
    max_order: int | None = None,
) -> int:
    """Number of monomial-triple orbits under both pair actions and inversion.

    Equals the full invariant dimension, and cross-checks burnside_dims by
    Burnside's lemma.  Breadth-first closure over sorted triples, keyed by the
    combinatorial rank of the strictly increasing lift (a, b+1, c+2).
    """
    n = group_order(group)
    budget = DEFAULT_ORBIT_MAX_ORDER if max_order is None else max_order
    if n > budget:
        raise ResourceLimitError(
            f"order {n} exceeds the orbit-enumeration budget {budget}"
        )
    group = _as_group(group)

    perms: list[list[int]] = []
    for s in group.generators:
        perms.append([group.mul(s, x) for x in range(n)])
        si = group.inv(s)
        perms.append([group.mul(x, si) for x in range(n)])
    perms.append(list(group.inverses))

    c2 = [i * (i - 1) // 2 for i in range(n + 3)]
    c3 = [i * (i - 1) * (i - 2) // 6 for i in range(n + 3)]

    def rank(a: int, b: int, c: int) -> int:
        return c3[c + 2] + c2[b + 1] + a

    total = c3[n + 2]
    visited = bytearray(total)
    orbits = 0
    for a0 in range(n):
        for b0 in range(a0, n):
            for c0 in range(b0, n):
                if visited[rank(a0, b0, c0)]:
                    continue
                orbits += 1
                visited[rank(a0, b0, c0)] = 1
                stack = [(a0, b0, c0)]
                while stack:
                    a, b, c = stack.pop()
                    for perm in perms:
                        x, y, z = perm[a], perm[b], perm[c]
                        if x > y:
                            x, y = y, x
                        if y > z:
                            y, z = z, y
                            if x > y:
                                x, y = y, x
                        r = rank(x, y, z)
                        if not visited[r]:
                            visited[r] = 1
                            stack.append((x, y, z))
    return orbits
