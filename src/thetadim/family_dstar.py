"""The binary dihedral family Dstar(p) of order 4p: its product rule,
characters and class count.

a has order 2p, x^2 = a^p and x a x^-1 = a^-1; a^k x^l has index k + 2p*l,
so the rule, the rows and the sums read the same coordinates (k, l).
"""

from __future__ import annotations

from functools import cache, partial

from .expr import Atom
from .normal_form import NormalForm

__all__ = ["binary_dihedral_rule", "class_count", "model", "rows_and_sums"]


def binary_dihedral_rule(p: int) -> NormalForm:
    """Order 4p group with a of order 2p, x^2 = a^p, and x a x^-1 = a^-1.

    a^k x^l has index k + 2p*l.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}.")
    two_p = 2 * p

    def mul(i: int, j: int) -> int:
        l1, k1 = divmod(i, two_p)
        l2, k2 = divmod(j, two_p)
        if not l1:
            return (k1 + k2) % two_p + two_p * l2
        if not l2:
            return (k1 - k2) % two_p + two_p
        return (k1 - k2 + p) % two_p

    def inv(i: int) -> int:
        l, k = divmod(i, two_p)
        return (k + p) % two_p + two_p if l else -k % two_p

    def label(i: int) -> str:
        l, k = divmod(i, two_p)
        if l == 0:
            return "e" if k == 0 else ("a" if k == 1 else f"a^{k}")
        return "x" if k == 0 else ("a*x" if k == 1 else f"a^{k}*x")

    return NormalForm(4 * p, mul, inv, label, [1, two_p], f"Dstar({p})")


def model(atom: Atom) -> NormalForm:
    return binary_dihedral_rule(*atom.params)


def class_count(atom: Atom) -> int:
    return atom.params[0] + 3


def rows_and_sums(atom: Atom, group: NormalForm):
    # With u = 1 for even p and i for odd p, the linear rows are 1, (-1)^l,
    # (-1)^k u^l and (-1)^k (-u)^l; V2_lam, for lam = 1..p-1, is
    # z^(k lam) + z^(-k lam) (z = z_2p) at l = 0 and 0 at l = 1, of
    # indicator (-1)^lam
    (p,) = atom.params
    two_p = 2 * p

    def rows(cd):
        from .cyclo import from_int, sqrt_minus_one, zeta

        signs = (from_int(1), from_int(-1))
        if p % 2:
            i = sqrt_minus_one()
            units = (i, -i)
        else:
            units = signs
        zero = from_int(0)
        zs = cache(partial(zeta, two_p))
        cos2 = cache(lambda t: zs(t) + zs(-t % two_p))
        kl = [(r % two_p, r // two_p) for r in cd.representatives]
        values = [
            [signs[0] for _ in kl],
            [signs[l] for _, l in kl],
            [(signs, units)[l][k % 2] for k, l in kl],
            [(signs, units)[l][(k + l) % 2] for k, l in kl],
        ]
        values += [[zero if l else cos2(k * lam % two_p) for k, l in kl] for lam in range(1, p)]
        return ["V1_1", "V1_2", "V1_3", "V1_4"] + [f"V2_{lam}" for lam in range(1, p)], values

    def sums(cd):
        # at a^k, sum over lam = 1..p-1 of z^(k lam) + z^(-k lam) is
        # t = 2p[2p | k] - 1 - (-1)^k by the orthogonality of the characters of
        # Z/2p, and with the sign (-1)^lam it is t' = t at k + p; the linear
        # rows are real for even p, and at l = 1 they cancel in pairs
        def at(r):
            if r >= two_p:
                return 0, 0
            t = two_p * (r % two_p == 0) - 1 - (-1) ** r
            t_alt = two_p * ((r + p) % two_p == 0) - 1 - (-1) ** (r + p)
            return 2 + 2 * (p % 2 == 0) * (-1) ** r + (t + t_alt) // 2, (t - t_alt) // 2

        return [at(r) for r in cd.representatives], p + 1 + 2 * (p % 2 == 0)

    return rows, sums
