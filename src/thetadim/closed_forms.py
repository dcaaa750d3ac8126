"""Closed-form dimension polynomials for the spherical space-form families.

Every supported group is a product of coprime cyclic factors with at most one
non-cyclic factor; spec_from_expr normalizes an expression to one of seven
case tags and validates the coprimality constraints.  closed_dims evaluates
the exact dimension pair for the case, with all arithmetic in Fractions and a
final integrality assertion, so any transcription slip in a coefficient fails
loudly instead of rounding away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .expr import Atom, GroupExpr, expr_to_string, parse_group_expr

__all__ = [
    "SphericalMatchError",
    "SphericalSpec",
    "closed_class_count",
    "closed_dims",
    "closed_order",
    "closed_z2_orbit",
    "p2",
    "p3",
    "spec_from_expr",
]


class SphericalMatchError(ValueError):
    """The expression does not define a spherical space-form group."""


def p3(n: int) -> int:
    """Partitions of n into at most three parts, by the branch quadratic."""
    if n < 0:
        return 0
    if n % 2 == 0:
        c = Fraction(1) if n % 3 == 0 else Fraction(2, 3)
    else:
        c = Fraction(3, 4) if n % 3 == 0 else Fraction(5, 12)
    value = Fraction(n * n, 12) + Fraction(n, 2) + c
    if value.denominator != 1:
        raise AssertionError(f"p3({n}) branch constants are inconsistent")
    return int(value)


def p2(n: int) -> int:
    """Partitions of n into at most two parts: 1 + floor(n/2)."""
    if n < 0:
        return 0
    return 1 + n // 2


@dataclass(frozen=True)
class SphericalSpec:
    """Case tag and parameters of a spherical fundamental group.

    Cases: (a) cyclic of order n; (b) Z_m x Dstar(p); (c) Z_m x Dprime(k,p);
    (d) Z_m x Tstar; (e) Z_m x Tprime(k), k >= 2; (f) Z_m x Ostar;
    (g) Z_m x Istar.  Unused parameters stay at their defaults.
    """

    case: str
    m: int = 1
    n: int = 0
    p: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        case, m, n, p, k = self.case, self.m, self.n, self.p, self.k
        if case == "a":
            if n < 1:
                raise SphericalMatchError(f"case (a) requires n >= 1, got {n}.")
            return
        if m < 1:
            raise SphericalMatchError(f"case ({case}) requires m >= 1, got {m}.")
        if case == "b":
            if p < 1:
                raise SphericalMatchError(f"case (b) requires p >= 1, got {p}.")
            if gcd(m, 2 * p) != 1:
                raise SphericalMatchError(
                    f"case (b) requires gcd(m, 2p) = 1; got m={m}, p={p}."
                )
        elif case == "c":
            if k < 0 or p < 3 or p % 2 == 0:
                raise SphericalMatchError(
                    f"case (c) requires k >= 0 and odd p >= 3; got k={k}, p={p}."
                )
            if gcd(m, 2 * p) != 1:
                raise SphericalMatchError(
                    f"case (c) requires gcd(m, 2p) = 1; got m={m}, p={p}."
                )
        elif case in ("d", "f"):
            if gcd(m, 6) != 1:
                raise SphericalMatchError(
                    f"case ({case}) requires gcd(m, 6) = 1; got m={m}."
                )
        elif case == "e":
            if k < 2:
                raise SphericalMatchError(
                    f"case (e) requires k >= 2 (k=1 coincides with case (d)); got k={k}."
                )
            if gcd(m, 6) != 1:
                raise SphericalMatchError(f"case (e) requires gcd(m, 6) = 1; got m={m}.")
        elif case == "g":
            if gcd(m, 30) != 1:
                raise SphericalMatchError(f"case (g) requires gcd(m, 30) = 1; got m={m}.")
        else:
            raise SphericalMatchError(f"unknown case tag {case!r}.")


def spec_from_expr(expr: GroupExpr | str) -> SphericalSpec:
    """Match a group expression to its spherical case, or raise.

    Cyclic factors must be pairwise coprime (otherwise their product is not
    cyclic and the group is not a space-form group), and at most one
    non-cyclic factor may appear.
    """
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    cyclic: list[int] = []
    others: list[Atom] = []
    for atom in expr.atoms:
        if atom.kind == "Z":
            cyclic.append(atom.params[0])
        else:
            others.append(atom)
    m = 1
    for value in cyclic:
        if gcd(m, value) != 1:
            raise SphericalMatchError(
                f"cyclic factors of {expr_to_string(expr)} are not pairwise coprime, "
                "so their product is not cyclic."
            )
        m *= value
    if not others:
        return SphericalSpec(case="a", n=m)
    if len(others) > 1:
        raise SphericalMatchError(
            f"{expr_to_string(expr)} has more than one non-cyclic factor."
        )
    atom = others[0]
    if atom.kind == "Dstar":
        return SphericalSpec(case="b", m=m, p=atom.params[0])
    if atom.kind == "Dprime":
        return SphericalSpec(case="c", m=m, k=atom.params[0], p=atom.params[1])
    if atom.kind == "Tstar":
        return SphericalSpec(case="d", m=m)
    if atom.kind == "Tprime":
        k = atom.params[0]
        if k == 1:
            return SphericalSpec(case="d", m=m)
        return SphericalSpec(case="e", m=m, k=k)
    if atom.kind == "Ostar":
        return SphericalSpec(case="f", m=m)
    if atom.kind == "Istar":
        return SphericalSpec(case="g", m=m)
    raise SphericalMatchError(f"unsupported family {atom.kind!r}.")


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"{what} is not a nonnegative integer: {value}")
    return int(value)


def closed_dims(spec: SphericalSpec) -> tuple[int, int]:
    """Both dimensions (full group algebra, augmentation kernel), exactly."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    if case == "a":
        dim = Fraction(p3(spec.n))
        ker = Fraction(p3(spec.n - 3))
    elif case == "b" and p % 2 == 0:
        first = (m * p) % 3 != 0
        dim = (
            Fraction(m * m * p * p, 6)
            + Fraction(m * m * p, 2)
            + Fraction(2 * m * m, 3)
            + Fraction(3 * m * p, 2)
            + Fraction(p * p, 6)
            + m
            + Fraction(p, 2)
            + (Fraction(1) if first else Fraction(4, 3))
        )
        ker = (
            Fraction(m * m * p * p, 6)
            + Fraction(m * m * p, 2)
            + Fraction(2 * m * m, 3)
            + m * p
            + Fraction(p * p, 6)
            - Fraction(m, 2)
            + (Fraction(-1, 2) if first else Fraction(-1, 6))
        )
    elif case == "b":
        first = (m * p) % 3 != 0
        dim = (
            Fraction(m * m * p * p, 6)
            + Fraction(m * m * p, 2)
            + Fraction(2 * m * m, 3)
            + Fraction(3 * m * p, 2)
            + Fraction(p * p, 6)
            + Fraction(m, 2)
            + (Fraction(1, 2) if first else Fraction(5, 6))
        )
        ker = (
            Fraction(m * m * p * p, 6)
            + Fraction(m * m * p, 2)
            + Fraction(2 * m * m, 3)
            + m * p
            + Fraction(p * p, 6)
            - m
            - Fraction(p, 2)
            + (Fraction(0) if first else Fraction(1, 3))
        )
    elif case == "c":
        first = (m * p) % 3 != 0
        q = 2**k
        dim = (
            Fraction(q * q * m * m * p * p, 6)
            + Fraction(q * q * m * m * p, 2)
            + Fraction(2 * q * q * m * m, 3)
            + Fraction(3 * q * m * p, 2)
            + Fraction(p * p, 6)
            + Fraction(q * m, 2)
            + (Fraction(1, 2) if first else Fraction(5, 6))
        )
        ker = (
            Fraction(q * q * m * m * p * p, 6)
            + Fraction(q * q * m * m * p, 2)
            + Fraction(2 * q * q * m * m, 3)
            + q * m * p
            - q * m
            + Fraction(p * p, 6)
            - Fraction(p, 2)
            + (Fraction(0) if first else Fraction(1, 3))
        )
    elif case == "d":
        dim = Fraction(19 * m * m, 3) + 6 * m + Fraction(8, 3)
        ker = Fraction(19 * m * m, 3) + Fraction(5 * m, 2) + Fraction(7, 6)
    elif case == "e":
        t = 3**k
        lead = 19 * 3 ** (2 * k - 3) * m * m
        dim = Fraction(lead) + 2 * t * m + 3
        ker = Fraction(lead) + Fraction(5 * t * m, 6) + Fraction(3, 2)
    elif case == "f":
        dim = Fraction(34 * m * m, 3) + 12 * m + Fraction(35, 3)
        ker = Fraction(34 * m * m, 3) + 8 * m + Fraction(23, 3)
    elif case == "g":
        dim = Fraction(74 * m * m, 3) + 19 * m + Fraction(64, 3)
        ker = Fraction(74 * m * m, 3) + Fraction(29 * m, 2) + Fraction(101, 6)
    else:
        raise SphericalMatchError(f"unknown case tag {case!r}.")
    dim_i = _as_int(dim, f"case ({case}) dimension")
    ker_i = _as_int(ker, f"case ({case}) kernel dimension")
    if dim_i - ker_i != closed_z2_orbit(spec):
        raise AssertionError(
            f"case ({case}): dimension gap disagrees with the inversion-orbit count"
        )
    return dim_i, ker_i


def closed_z2_orbit(spec: SphericalSpec) -> int:
    """Inversion-orbit count of classes (the gap between the two dimensions)."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    if case == "a":
        return p2(spec.n)
    if case == "b" and p % 2 == 0:
        value = Fraction(m * p, 2) + Fraction(3 * m, 2) + Fraction(p, 2) + Fraction(3, 2)
    elif case == "b":
        value = Fraction(m * p, 2) + Fraction(3 * m, 2) + Fraction(p, 2) + Fraction(1, 2)
    elif case == "c":
        q = 2**k
        value = (
            Fraction(q * m * p, 2)
            + Fraction(3 * q * m, 2)
            + Fraction(p, 2)
            + Fraction(1, 2)
        )
    elif case == "d":
        value = Fraction(7 * m, 2) + Fraction(3, 2)
    elif case == "e":
        value = Fraction(7 * 3**k * m, 6) + Fraction(3, 2)
    elif case == "f":
        value = Fraction(4 * m) + 4
    elif case == "g":
        value = Fraction(9 * m, 2) + Fraction(9, 2)
    else:
        raise SphericalMatchError(f"unknown case tag {case!r}.")
    return _as_int(value, f"case ({case}) inversion-orbit count")


def closed_order(spec: SphericalSpec) -> int:
    case = spec.case
    if case == "a":
        return spec.n
    if case == "b":
        return 4 * spec.p * spec.m
    if case == "c":
        return 2 ** (spec.k + 2) * spec.p * spec.m
    if case == "d":
        return 24 * spec.m
    if case == "e":
        return 8 * 3**spec.k * spec.m
    if case == "f":
        return 48 * spec.m
    return 120 * spec.m


def closed_class_count(spec: SphericalSpec) -> int:
    case = spec.case
    if case == "a":
        return spec.n
    if case == "b":
        return spec.m * (spec.p + 3)
    if case == "c":
        return spec.m * 2**spec.k * (spec.p + 3)
    if case == "d":
        return 7 * spec.m
    if case == "e":
        return 7 * 3 ** (spec.k - 1) * spec.m
    if case == "f":
        return 8 * spec.m
    return 9 * spec.m
