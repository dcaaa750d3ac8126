"""The cyclic family Z(n): its product rule (`model`, which checks the
parameter), characters (`character_rows`, `real_sums`) and class count.

g^k has index k, so the rule, the rows and the sums read the same coordinate.
Z(n) is abelian: n classes, each a single element, and n linear characters.
"""

from __future__ import annotations

from functools import cache, partial

from .expr import Atom
from .normal_form import NormalForm

__all__ = ["class_count", "character_rows", "model", "real_sums"]


def model(atom: Atom) -> NormalForm:
    """Z(n): g^k has index k."""
    (n,) = atom.params
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


def class_count(atom: Atom) -> int:
    return atom.params[0]


def character_rows(atom: Atom, group: NormalForm, cd):
    # g^r has index r and V_lam(g^r) = z_n^(lam r)
    from .cyclo import zeta

    (n,) = atom.params
    zs = cache(partial(zeta, n))
    reps = cd.representatives
    values = [[zs(lam * r % n) for r in reps] for lam in range(n)]
    return [f"V_{lam}" for lam in range(n)], values


def real_sums(atom: Atom, group: NormalForm, cd):
    # the real rows are V_0 = 1 and, for even n, V_(n/2) = (-1)^r, both of
    # indicator 1
    (n,) = atom.params
    return [(1 + (n % 2 == 0) * (-1) ** r, 0) for r in cd.representatives], 2 - n % 2
