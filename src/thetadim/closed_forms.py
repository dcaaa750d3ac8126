"""Closed-form dimension polynomials for the spherical space-form families.

Every supported group is a product of coprime cyclic factors with at most one
non-cyclic factor; spec_from_expr normalizes an expression to one of seven
case tags and validates the coprimality constraints.  Case (a) is cyclic and
its dimensions are partition counts.  Each case (b)-(g) is Z_m x G with m odd
and prime to |G|, and `_factor` gives it one row: the two dimensions as
quadratics in m, integer numerators over a fixed denominator, and G's class
count k_G and number f_G of self-inverse classes.  Z_m x G then has m * k_G
classes, exactly f_G of them self-inverse, so (m * k_G + f_G) / 2 inversion
orbits, and closed_dims checks the gap between its two dimensions against
that count.  Each division is exact with a checked remainder, so any
transcription slip in a coefficient fails loudly instead of rounding away.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .expr import Atom, GroupExpr, expr_to_string, parse_group_expr
from .normal_form import power

__all__ = [
    "SphericalMatchError",
    "SphericalSpec",
    "closed_class_count",
    "closed_dims",
    "closed_order",
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
        if p < 1 or k:  # k stays 0, so that case (b) is case (c) at k = 0
            raise SphericalMatchError(f"case (b) requires p >= 1 and k = 0, got p={p}, k={k}.")
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


def _factor(spec: SphericalSpec) -> tuple:
    """The row of case (b)-(g), Z_m x G: (den, dim, ker, k_G, f_G), with dim
    and ker the coefficients (c2, c1, c0) of the two numerators as quadratics
    in m over den, k_G the class count of G and f_G its number of
    self-inverse classes.  Cases (b) and (c) branch on 3 | m*p, so their c0
    is fixed on each residue class of m."""
    case, m, _, p, k = spec
    if case in ("b", "c"):
        first = (m * p) % 3 != 0
        if p % 2 == 0:  # case (b) at even p
            lead = p * p + 3 * p + 4
            dim = (lead, 9 * p + 6, p * p + 3 * p + (6 if first else 8))
            ker = (lead, 6 * p - 3, p * p - (3 if first else 1))
            return 6, dim, ker, p + 3, p + 3
        # for odd p, Dstar(p) is Dprime(0,p) (a = y x^2): case (b) is case (c) at k = 0
        q = 2**k
        lead = q * q * (p * p + 3 * p + 4)
        dim = (lead, q * (9 * p + 3), p * p + (3 if first else 5))
        ker = (lead, q * (6 * p - 6), p * p - 3 * p + (0 if first else 2))
        return 6, dim, ker, q * (p + 3), p + 1
    if case == "d":
        return 6, (38, 36, 16), (38, 15, 7), 7, 3
    if case == "e":
        t, lead = 3**k, 114 * 3 ** (2 * k - 3)
        return 6, (lead, 12 * t, 18), (lead, 5 * t, 9), 7 * 3 ** (k - 1), 3
    if case == "f":
        return 3, (34, 36, 35), (34, 24, 23), 8, 8
    return 6, (148, 114, 128), (148, 87, 101), 9, 9  # case (g)


def _orbits(spec: SphericalSpec, row: tuple) -> int:
    """Inversion orbits of the m * k_G classes of Z_m x G, m odd: the f_G
    self-inverse classes, and the rest in pairs."""
    return _whole(spec.m * row[3] + row[4], 2, f"case ({spec.case}) inversion-orbit count")


def closed_dims(spec: SphericalSpec) -> tuple[int, int]:
    """Both dimensions (full group algebra, augmentation kernel), exactly."""
    case, m = spec.case, spec.m
    if case == "a":
        dim, ker, gap = p3(spec.n), p3(spec.n - 3), p2(spec.n)
    else:
        row = _factor(spec)
        den, (a2, a1, a0), (b2, b1, b0) = row[:3]
        dim = _whole((a2 * m + a1) * m + a0, den, f"case ({case}) dimension")
        ker = _whole((b2 * m + b1) * m + b0, den, f"case ({case}) kernel dimension")
        gap = _orbits(spec, row)
    if dim - ker != gap:
        raise AssertionError(
            f"case ({case}): dimension gap disagrees with the inversion-orbit count"
        )
    return dim, ker


def closed_z2_orbit(spec: SphericalSpec) -> int:
    """Inversion-orbit count of classes (the gap between the two dimensions)."""
    return p2(spec.n) if spec.case == "a" else _orbits(spec, _factor(spec))


def closed_order(spec: SphericalSpec) -> int:
    case = spec.case
    if case == "a":
        return spec.n
    if case in ("b", "c"):  # case (b) is case (c) at k = 0
        return power(2, spec.k + 2) * spec.p * spec.m
    if case == "d":
        return 24 * spec.m
    if case == "e":
        return 8 * power(3, spec.k) * spec.m
    if case == "f":
        return 48 * spec.m
    return 120 * spec.m


def closed_class_count(spec: SphericalSpec) -> int:
    return spec.n if spec.case == "a" else spec.m * _factor(spec)[3]
