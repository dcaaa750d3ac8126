"""The twisted quaternion tower Tprime(k) of order 8 * 3^k: its product rule
(`model`, which checks the parameter), characters (`character_rows`,
`real_sums`, both of which read each class's family off `_families`) and
class count, and the quaternion unit tables they share.

z of order 3^k acts on the quaternion units by the order-3 automorphism
x -> y -> x*y; (unit w)*z^l has index w + 8*l, so the rule, the rows and the
sums read the same coordinates (w, l).
"""

from __future__ import annotations

from functools import cache, partial

from .expr import Atom
from .normal_form import NormalForm, power

__all__ = ["class_count", "character_rows", "model", "real_sums"]

# Unit group of the quaternions, indexed 0..7 in the order
# e, x, y, x^2, x*y, y*x, x^3, y^3, which is 1, i, j, -1, k, -k, -i, -j.
_QUNITS = [(1, 0), (1, 1), (1, 2), (-1, 0), (1, 3), (-1, 3), (-1, 1), (-1, 2)]
_QINDEX = {unit: w for w, unit in enumerate(_QUNITS)}
_QLABELS = ["e", "x", "y", "x^2", "x*y", "y*x", "x^3", "y^3"]

# basis products for axes (1, i, j, k)
_QBASIS = [[None] * 4 for _ in range(4)]
for _a in range(4):
    _QBASIS[0][_a] = (1, _a)
    _QBASIS[_a][0] = (1, _a)
for _a, _b, _c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _QBASIS[_a][_a] = (-1, 0)
    _QBASIS[_a][_b] = (1, _c)
    _QBASIS[_b][_a] = (-1, _c)


def _qmul(u: int, v: int) -> int:
    su, au = _QUNITS[u]
    sv, av = _QUNITS[v]
    sb, ab = _QBASIS[au][av]
    return _QINDEX[(su * sv * sb, ab)]


_QMUL = [[_qmul(u, v) for v in range(8)] for u in range(8)]

_QINV = [row.index(0) for row in _QMUL]

# the order-3 automorphism x -> y -> x*y -> x induced by conjugation by z
_QSIGMA = [0, 2, 4, 3, 1, 6, 7, 5]
_QSIGMA_POWERS = [list(range(8)), _QSIGMA, [_QSIGMA[w] for w in _QSIGMA]]


def model(atom: Atom) -> NormalForm:
    """Tprime(k), of order 8*3^k: quaternion units extended by z of order 3^k
    acting by _QSIGMA.

    (unit w)*z^l has index w + 8*l.
    """
    (k,) = atom.params
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}.")
    three_k = power(3, k)

    def mul(i: int, j: int) -> int:
        l1, w1 = divmod(i, 8)
        l2, w2 = divmod(j, 8)
        return _QMUL[w1][_QSIGMA_POWERS[l1 % 3][w2]] + 8 * ((l1 + l2) % three_k)

    def inv(i: int) -> int:
        l, w = divmod(i, 8)
        return _QSIGMA_POWERS[-l % 3][_QINV[w]] + 8 * (-l % three_k)

    def label(i: int) -> str:
        l, w = divmod(i, 8)
        if l == 0:
            return _QLABELS[w]
        zs = "z" if l == 1 else f"z^{l}"
        return zs if w == 0 else f"{_QLABELS[w]}*{zs}"

    return NormalForm(8 * three_k, mul, inv, label, [1, 8], f"Tprime({k})")


def class_count(atom: Atom) -> int:
    return 7 * power(3, atom.params[0] - 1)


# Tprime(k) has seven class families.  The representative w*z^l of a class (w
# a quaternion unit index) is in family _TPRIME_FAMILY[l % 3, w], of class size
# _TPRIME_SIZES[f], where V1_lam, V2_lam and V3_lam take z^(l lam) times 1,
# _TPRIME_V2[f] and _TPRIME_V3[f]; the lam = 0 row of each kind is the only
# real one, of indicator 1, -1 and 1
_TPRIME_FAMILY = {(0, 0): 0, (0, 3): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4, (2, 0): 5, (2, 3): 6}
_TPRIME_SIZES = [1, 1, 6, 4, 4, 4, 4]
_TPRIME_V2 = [2, -2, 0, -1, 1, -1, 1]
_TPRIME_V3 = [3, 3, -1, 0, 0, 0, 0]


def _families(k: int, cd) -> list[tuple[int, int]]:
    """(l, family) at each class representative, once the class sizes agree."""
    out = []
    for r, size in zip(cd.representatives, cd.sizes):
        l, w = divmod(r, 8)
        f = _TPRIME_FAMILY.get((l % 3, w))
        if f is None or size != _TPRIME_SIZES[f]:
            raise AssertionError(f"Tprime({k}): class family sizes do not match")
        out.append((l, f))
    return out


def character_rows(atom: Atom, group: NormalForm, cd):
    from .cyclo import from_int, zeta

    (k,) = atom.params
    three_k = 3**k
    zs = cache(partial(zeta, three_k))
    scaled = cache(lambda coeff, e: coeff * zs(e))
    zero = from_int(0)
    lf = _families(k, cd)
    names, values = [], []
    kinds = [
        ("V1", [1] * 7, three_k),
        ("V2", _TPRIME_V2, three_k),
        ("V3", _TPRIME_V3, three_k // 3),
    ]
    for prefix, coeffs, count in kinds:
        for lam in range(count):
            names.append(f"{prefix}_{lam}")
            values.append(
                [scaled(coeffs[f], l * lam % three_k) if coeffs[f] else zero for l, f in lf]
            )
    return names, values


def real_sums(atom: Atom, group: NormalForm, cd):
    return [(1 + _TPRIME_V3[f], _TPRIME_V2[f]) for _, f in _families(atom.params[0], cd)], 3
