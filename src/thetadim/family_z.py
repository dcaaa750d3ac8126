"""The cyclic family Z(n): its product rule, characters and class count.

g^k has index k, so the rule, the rows and the sums read the same coordinate.
Z(n) is abelian: n classes, each a single element, and n linear characters.
"""

from __future__ import annotations

from functools import cache, partial

from .expr import Atom
from .normal_form import NormalForm

__all__ = ["class_count", "cyclic_rule", "model", "rows_and_sums"]


def cyclic_rule(n: int) -> NormalForm:
    """Z(n): g^k has index k."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    return NormalForm(
        order=n,
        mul=lambda i, j: (i + j) % n,
        inv=lambda i: -i % n,
        label=lambda k: "e" if k == 0 else ("g" if k == 1 else f"g^{k}"),
        generators=[1] if n > 1 else [],
        family_tag=f"Z({n})",
    )


def model(atom: Atom) -> NormalForm:
    return cyclic_rule(*atom.params)


def class_count(atom: Atom) -> int:
    return atom.params[0]


def rows_and_sums(atom: Atom, group: NormalForm):
    # g^r has index r and V_lam(g^r) = z_n^(lam r); the real rows are V_0 = 1
    # and, for even n, V_(n/2) = (-1)^r, both of indicator 1
    (n,) = atom.params

    def rows(cd):
        from .cyclo import zeta

        zs = cache(partial(zeta, n))
        reps = cd.representatives
        values = [[zs(lam * r % n) for r in reps] for lam in range(n)]
        return [f"V_{lam}" for lam in range(n)], values

    def sums(cd):
        return [(1 + (n % 2 == 0) * (-1) ** r, 0) for r in cd.representatives], 2 - n % 2

    return rows, sums
