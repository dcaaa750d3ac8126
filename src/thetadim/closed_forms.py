"""Closed-form dimension polynomials for the spherical space-form families.

Every supported group is a product of coprime cyclic factors with at most one
non-cyclic factor; spec_from_expr normalizes an expression to one of seven
case tags and validates the coprimality constraints.  closed_dims evaluates
the exact dimension pair for the case in integers: each polynomial is an
integer numerator over its case's fixed denominator, divided once with a
checked remainder, so any transcription slip in a coefficient fails loudly
instead of rounding away.
"""

from __future__ import annotations

from collections import namedtuple
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
        c = 12 if n % 3 == 0 else 8
    else:
        c = 9 if n % 3 == 0 else 5
    # n^2/12 + n/2 + c/12, with c twelve times the branch constant
    return _whole(n * n + 6 * n + c, 12, f"p3({n})")


def p2(n: int) -> int:
    """Partitions of n into at most two parts: 1 + floor(n/2)."""
    if n < 0:
        return 0
    return 1 + n // 2


_SpecFields = namedtuple("_SpecFields", "case m n p k", defaults=(1, 0, 0, 0))


class SphericalSpec(_SpecFields):
    """Case tag and parameters of a spherical fundamental group.

    Cases: (a) cyclic of order n; (b) Z_m x Dstar(p); (c) Z_m x Dprime(k,p);
    (d) Z_m x Tstar; (e) Z_m x Tprime(k), k >= 2; (f) Z_m x Ostar;
    (g) Z_m x Istar.  `case` is the tag and m, n, p, k are ints; unused
    parameters stay at their defaults.  Parameters
    are checked whenever a spec is built, `_replace` included, so an invalid
    spec never exists.
    """

    __slots__ = ()

    def __new__(cls, case: str, m: int = 1, n: int = 0, p: int = 0, k: int = 0):
        _check_spec(case, m, n, p, k)
        return super().__new__(cls, case, m, n, p, k)

    @classmethod
    def _make(cls, iterable) -> SphericalSpec:
        return cls(*iterable)


def _check_spec(case: str, m: int, n: int, p: int, k: int) -> None:
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


def _whole(num: int, den: int, what: str) -> int:
    """num / den, which must be a nonnegative integer; anything else is a
    transcription slip in a coefficient."""
    q, rem = divmod(num, den)
    if rem or q < 0:
        raise AssertionError(f"{what} is not a nonnegative integer: {num}/{den}")
    return q


def closed_dims(spec: SphericalSpec) -> tuple[int, int]:
    """Both dimensions (full group algebra, augmentation kernel), exactly."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    # each case gives both polynomials as integer numerators over one denominator
    if case == "a":
        den, dim, ker = 1, p3(spec.n), p3(spec.n - 3)
    elif case == "b" and p % 2 == 0:
        first = (m * p) % 3 != 0
        den = 6
        dim = (
            m * m * p * p + 3 * m * m * p + 4 * m * m + 9 * m * p
            + p * p + 6 * m + 3 * p + (6 if first else 8)
        )
        ker = (
            m * m * p * p + 3 * m * m * p + 4 * m * m + 6 * m * p
            + p * p - 3 * m - (3 if first else 1)
        )
    elif case in ("b", "c"):
        # for odd p, Dstar(p) is Dprime(0,p) (a = y x^2): case (b) is case (c) at q = 1
        first = (m * p) % 3 != 0
        q = 2**k if case == "c" else 1
        qm = q * m
        den = 6
        dim = (
            qm * qm * p * p + 3 * qm * qm * p + 4 * qm * qm + 9 * qm * p
            + p * p + 3 * qm + (3 if first else 5)
        )
        ker = (
            qm * qm * p * p + 3 * qm * qm * p + 4 * qm * qm + 6 * qm * p - 6 * qm
            + p * p - 3 * p + (0 if first else 2)
        )
    elif case == "d":
        den = 6
        dim = 38 * m * m + 36 * m + 16
        ker = 38 * m * m + 15 * m + 7
    elif case == "e":
        t = 3**k
        lead = 19 * 3 ** (2 * k - 3) * m * m
        den = 6
        dim = 6 * lead + 12 * t * m + 18
        ker = 6 * lead + 5 * t * m + 9
    elif case == "f":
        den = 3
        dim = 34 * m * m + 36 * m + 35
        ker = 34 * m * m + 24 * m + 23
    elif case == "g":
        den = 6
        dim = 148 * m * m + 114 * m + 128
        ker = 148 * m * m + 87 * m + 101
    else:
        raise SphericalMatchError(f"unknown case tag {case!r}.")
    dim = _whole(dim, den, f"case ({case}) dimension")
    ker = _whole(ker, den, f"case ({case}) kernel dimension")
    if dim - ker != closed_z2_orbit(spec):
        raise AssertionError(
            f"case ({case}): dimension gap disagrees with the inversion-orbit count"
        )
    return dim, ker


def closed_z2_orbit(spec: SphericalSpec) -> int:
    """Inversion-orbit count of classes (the gap between the two dimensions)."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    if case == "a":
        return p2(spec.n)
    if case == "b" and p % 2 == 0:
        den, value = 2, m * p + 3 * m + p + 3
    elif case in ("b", "c"):
        q = 2**k if case == "c" else 1
        den, value = 2, q * m * p + 3 * q * m + p + 1
    elif case == "d":
        den, value = 2, 7 * m + 3
    elif case == "e":
        den, value = 6, 7 * 3**k * m + 9
    elif case == "f":
        den, value = 1, 4 * m + 4
    elif case == "g":
        den, value = 2, 9 * m + 9
    else:
        raise SphericalMatchError(f"unknown case tag {case!r}.")
    return _whole(value, den, f"case ({case}) inversion-orbit count")


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
