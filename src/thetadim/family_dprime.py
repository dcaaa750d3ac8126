"""The split metacyclic family Dprime(k, p) of order 2^(k+2) * p: its product
rule, characters and class count.

x has order N = 2^(k+2) and inverts y of odd order p; x^a y^b has index
a*p + b, so the rule, the rows and the sums read the same coordinates (a, b).
"""

from __future__ import annotations

from functools import cache, partial

from .expr import Atom
from .normal_form import NormalForm

__all__ = ["class_count", "dprime_rule", "model", "rows_and_sums"]


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


def model(atom: Atom) -> NormalForm:
    return dprime_rule(*atom.params)


def class_count(atom: Atom) -> int:
    k, p = atom.params
    return 2**k * (p + 3)


def rows_and_sums(atom: Atom, group: NormalForm):
    # V1_j is z_N^(aj); V2_s_t (s = 1..(p-1)/2, t < N/2) is 0 at odd a,
    # 2 z_N^(at) at b = 0 and z_N^(at) (z_p^(sb) + z_p^(-sb)) otherwise.  The
    # real rows are V1_0, V1_(N/2) and V2_s_0 of indicator 1, and V2_s_(N/4)
    # of indicator -1
    k, p = atom.params
    big_n = 2 ** (k + 2)

    def rows(cd):
        from .cyclo import from_int, zeta

        zn = cache(partial(zeta, big_n))
        cosp = cache(lambda t: zeta(p, t) + zeta(p, -t))
        # every degree-2 entry is one of these products, each built once
        two_zn = cache(lambda e: 2 * zn(e))
        zn_cosp = cache(lambda e, t: zn(e) * cosp(t))
        zero = from_int(0)
        def v2(s, t, a, b):
            if a % 2:
                return zero
            return zn_cosp(a * t % big_n, s * b % p) if b else two_zn(a * t % big_n)

        ab = [divmod(r, p) for r in cd.representatives]
        names = [f"V1_{j}" for j in range(big_n)]
        values = [[zn(a * j % big_n) for a, _ in ab] for j in range(big_n)]
        for s in range(1, (p - 1) // 2 + 1):
            for t in range(big_n // 2):
                names.append(f"V2_{s}_{t}")
                values.append([v2(s, t, a, b) for a, b in ab])
        return names, values

    def sums(cd):
        # at x^(2m) y^b the cosines sum to c = p - 1 at b = 0 and to -1
        # otherwise, and z_N^(2m N/4) = (-1)^m; at odd a every real row cancels
        def at(r):
            a, b = divmod(r, p)
            if a % 2:
                return 0, 0
            c = -1 if b else p - 1
            return 2 + c, (-1) ** (a // 2) * c

        return [at(r) for r in cd.representatives], p + 1

    return rows, sums
