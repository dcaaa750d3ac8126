"""Test-only oracles and helpers: literal actions, per-family closed forms,
family presentations and table-group element helpers.

None of these is on a computation route.  The pair-action oracles build each
permutation literally, the per-family closed forms check the class and
character sums family by family, and the presentations rebuild each family by
coset enumeration as a construction check independent of the normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from thetadim.expr import Atom
from thetadim.group_core import FiniteGroup

# -- table-group element helpers ----------------------------------------------


def element_order(group: FiniteGroup, i: int) -> int:
    """Order of element i, by repeated multiplication."""
    e = 1
    x = i
    while x != 0:
        x = group.mul(x, i)
        e += 1
    return e


def conjugate(group: FiniteGroup, x: int, g: int) -> int:
    """x g x^-1."""
    return group.mul(group.mul(x, g), group.inverses[x])


# -- literal pair actions -----------------------------------------------------


@dataclass(frozen=True)
class ActionElement:
    """One permutation of the element set, tagged by how it was built."""

    kind: str
    g: int
    h: int
    perm: tuple[int, ...]


def plain_action(group: FiniteGroup, g: int, h: int) -> ActionElement:
    """Permutation x -> g*x*h^-1."""
    hi = group.inv(h)
    perm = tuple(group.mul(group.mul(g, x), hi) for x in range(group.order))
    return ActionElement(kind="plain", g=g, h=h, perm=perm)


def twisted_action(group: FiniteGroup, g: int, h: int) -> ActionElement:
    """Permutation x -> h*x^-1*g^-1, the plain pair action followed by inversion."""
    gi = group.inv(g)
    perm = tuple(
        group.mul(group.mul(h, group.inv(x)), gi) for x in range(group.order)
    )
    return ActionElement(kind="twisted", g=g, h=h, perm=perm)


def sym3_trace(action: ActionElement) -> Fraction:
    """Trace on the symmetric cube: (t1^3 + 3*t1*t2 + 2*t3) / 6.

    t_k counts fixed points of the k-th compositional power of the permutation.
    """
    perm = action.perm
    t1 = t2 = t3 = 0
    for x, y in enumerate(perm):
        if y == x:
            t1 += 1
        z = perm[y]
        if z == x:
            t2 += 1
        if perm[z] == x:
            t3 += 1
    return Fraction(t1**3 + 3 * t1 * t2 + 2 * t3, 6)


# -- single-family closed forms ----------------------------------------------


def closed_delta3(atom: Atom) -> int:
    """Closed form of the cube-class-matched weighted sum for one family."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        n = params[0]
        return 3 * n if n % 3 == 0 else n
    if kind == "Dstar":
        p = params[0]
        return 8 * p if p % 3 == 0 else 4 * p
    if kind == "Dprime":
        k, p = params
        return 2 ** (k + 3) * p if p % 3 == 0 else 2 ** (k + 2) * p
    if kind == "Tprime":
        k = params[0]
        if k < 2:
            raise ValueError(f"closed cube-sum needs k >= 2, got {k}.")
        return 8 * 3 ** (k + 2)
    raise ValueError(f"no closed cube-sum form for family {kind!r}.")


def closed_family_d1(atom: Atom) -> Fraction:
    """Closed form of the plain trace average d1 for one family."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        n = params[0]
        c = Fraction(1) if n % 3 == 0 else Fraction(1, 3)
        return Fraction(n * n, 6) + Fraction(n, 2) + c
    if kind == "Dstar":
        p = params[0]
        if p % 2 == 0:
            c = Fraction(3) if p % 3 == 0 else Fraction(8, 3)
        else:
            c = Fraction(5, 2) if p % 3 == 0 else Fraction(13, 6)
        return Fraction(p * p, 3) + Fraction(5 * p, 2) + c
    if kind == "Dprime":
        k, p = params
        q = 2**k
        tail = 4 if p % 3 == 0 else 2
        return (
            Fraction(q * q * p * p, 3)
            + Fraction(q * (2 * q + 3) * p, 2)
            + Fraction(8 * q * q + 3 * q + tail, 6)
        )
    if kind == "Tprime":
        k = params[0]
        if k < 2:
            raise ValueError(f"closed d1 form needs k >= 2, got {k}.")
        return Fraction(38 * 3 ** (2 * k - 3) + 2 * 3**k + 3)
    raise ValueError(f"no closed d1 form for family {kind!r}.")


def closed_family_d2(atom: Atom) -> Fraction:
    """Closed form of the twisted trace average d2 for one family."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        n = params[0]
        return Fraction(n, 2) + (Fraction(1) if n % 2 == 0 else Fraction(1, 2))
    if kind == "Dstar":
        p = params[0]
        if p % 2 == 0:
            c = Fraction(3) if p % 3 == 0 else Fraction(8, 3)
            return Fraction(p * p, 3) + Fraction(5 * p, 2) + c
        c = Fraction(3, 2) if p % 3 == 0 else Fraction(7, 6)
        return Fraction(p * p, 3) + Fraction(3 * p, 2) + c
    if kind == "Dprime":
        k, p = params
        q = 2**k
        c = Fraction(1) if p % 3 == 0 else Fraction(2, 3)
        return Fraction(p * p, 3) + Fraction(3 * q * p, 2) + Fraction(q, 2) + c
    if kind == "Tprime":
        k = params[0]
        if k < 2:
            raise ValueError(f"closed d2 form needs k >= 2, got {k}.")
        return Fraction(2 * 3**k + 3)
    raise ValueError(f"no closed d2 form for family {kind!r}.")


# -- family presentations ----------------------------------------------------


def presentation_for_family(atom: Atom) -> str:
    """A finite presentation for one family atom, in the text format above."""
    kind, params = atom.kind, atom.params
    if kind == "Z":
        n = params[0]
        return f"<a | a^{n}>"
    if kind == "Dstar":
        p = params[0]
        return f"<a,x | a^{2 * p}, x^2=a^{p}, x^-1*a*x=a^-1>"
    if kind == "Dprime":
        k, p = params
        return f"<x,y | x^{2 ** (k + 2)}, y^{p}, x*y^-1=y*x>"
    if kind == "Tstar":
        return "<a,b | (a*b)^2 = a^3 = b^3>"
    if kind == "Tprime":
        k = params[0]
        return f"<x,y,z | x^2=(x*y)^2=y^2, z*x*z^-1=y, z*y*z^-1=x*y, z^{3 ** k}>"
    if kind == "Ostar":
        return "<a,b | (a*b)^2 = a^3 = b^4>"
    if kind == "Istar":
        return "<a,b | (a*b)^2 = a^3 = b^5>"
    raise ValueError(f"unknown family {kind!r}")
