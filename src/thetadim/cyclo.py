"""Exact arithmetic in the cyclotomic integers Z[z_N].

A value is an integer linear combination of powers of a primitive N-th root
of unity, reduced to the canonical power basis 1, z, ..., z^(phi(N)-1) modulo
the N-th cyclotomic polynomial.  That basis is integral and the cyclotomic
polynomial is monic, so reduction keeps every coefficient an `int`; every
character value in the package is an algebraic integer, so the ring (sums,
negatives, products) is all the package needs.  Every comparison is exact and
no value passes through floating point; complex conjugation and the complex
embedding the tests compare against live in the tests.  Each conductor's
cyclotomic polynomial and reduction rows are computed once per process
(`functools.cache`).
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "CycloNumber",
    "cyclotomic_polynomial",
    "from_int",
    "golden_ratio",
    "golden_ratio_conjugate",
    "sqrt2",
    "sqrt_minus_one",
    "zeta",
]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic and must divide num exactly (integer coefficients throughout)
    out = [0] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dc in enumerate(den):
                work[i + j] -= c * dc
    if any(work[: len(den) - 1]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@cache
def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


@cache
def _reduction_rows(n: int) -> list[dict[int, int]]:
    """For each exponent e in 0..n-1, the basis expansion of z^e at conductor n."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    top = {b: -poly[b] for b in range(phi) if poly[b]}
    rows = [{e: 1} for e in range(phi)]
    for e in range(phi, n):
        nxt: dict[int, int] = {}
        for b, c in rows[e - 1].items():
            if b + 1 < phi:
                nxt[b + 1] = nxt.get(b + 1, 0) + c
            else:
                for tb, tc in top.items():
                    nxt[tb] = nxt.get(tb, 0) + c * tc
        rows.append({b: c for b, c in nxt.items() if c})
    return rows


def _canonical(n: int, items) -> dict[int, int]:
    rows = _reduction_rows(n)
    acc: dict[int, int] = {}
    for e, q in items:
        if not q:
            continue
        for b, ic in rows[e % n].items():
            nv = acc.get(b, 0) + q * ic
            if nv:
                acc[b] = nv
            else:
                acc.pop(b, None)
    return acc


def _coefficient(q) -> int:
    if not isinstance(q, int):
        raise TypeError(f"coefficient must be an int, got {type(q).__name__}")
    return int(q)


class CycloNumber:
    """An element of the N-th cyclotomic integers in canonical reduced form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, terms=()) -> None:
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}.")
        self.conductor = conductor
        self.coeffs = _canonical(conductor, ((e, _coefficient(q)) for e, q in terms))

    @classmethod
    def _raw(cls, conductor: int, coeffs: dict[int, int]) -> "CycloNumber":
        obj = cls.__new__(cls)
        obj.conductor = conductor
        obj.coeffs = coeffs
        return obj

    def _embed(self, m: int) -> "CycloNumber":
        if m == self.conductor:
            return self
        f = m // self.conductor
        return CycloNumber._raw(
            m, _canonical(m, ((e * f, q) for e, q in self.coeffs.items()))
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        a = self._embed(m)
        b = other._embed(m)
        coeffs = dict(a.coeffs)
        for e, q in b.coeffs.items():
            nv = coeffs.get(e, 0) + q
            if nv:
                coeffs[e] = nv
            else:
                coeffs.pop(e, None)
        return CycloNumber._raw(m, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber._raw(
            self.conductor, {e: -q for e, q in self.coeffs.items()}
        )

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        a = self._embed(m)
        b = other._embed(m)
        acc: dict[int, int] = {}
        for e1, q1 in a.coeffs.items():
            for e2, q2 in b.coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + q1 * q2
        return CycloNumber._raw(m, _canonical(m, acc.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        m = math.lcm(self.conductor, other.conductor)
        return self._embed(m).coeffs == other._embed(m).coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    # -- structure ----------------------------------------------------------

    def as_int(self) -> int:
        if self.coeffs.keys() - {0}:
            raise ValueError(f"not an integer: {self}")
        return self.coeffs.get(0, 0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            q = self.coeffs[e]
            if e == 0:
                parts.append(str(q))
            else:
                parts.append(f"{q}*z({self.conductor})^{e}")
        return " + ".join(parts)

    __repr__ = __str__


def _coerce(value):
    if isinstance(value, CycloNumber):
        return value
    if isinstance(value, int):
        return from_int(value)
    return None


def from_int(q: int) -> CycloNumber:
    """The integer q as a cyclotomic number of conductor 1."""
    q = _coefficient(q)
    return CycloNumber._raw(1, {0: q} if q else {})


def zeta(n: int, k: int = 1) -> CycloNumber:
    """The k-th power of a fixed primitive n-th root of unity."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    return CycloNumber(n, [(k, 1)])


def sqrt_minus_one() -> CycloNumber:
    return zeta(4)


def sqrt2() -> CycloNumber:
    # zeta_8 + zeta_8^7 = 2 cos(pi/4)
    return zeta(8) + zeta(8, 7)


def golden_ratio() -> CycloNumber:
    # (1 + sqrt 5)/2 = -(zeta_5^2 + zeta_5^3)
    return -(zeta(5, 2) + zeta(5, 3))


def golden_ratio_conjugate() -> CycloNumber:
    # (1 - sqrt 5)/2 = -(zeta_5 + zeta_5^4)
    return -(zeta(5, 1) + zeta(5, 4))
