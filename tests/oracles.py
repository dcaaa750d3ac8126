"""Test-only oracles and helpers: the closed forms in Fractions, literal
actions, per-family closed forms, family presentations, table-group element
helpers, the literal product table, decoration canonical forms, the orbit
and diagram walks one move at a time, character-table identities, the
complex embedding of cyclotomic numbers and the argparse reference parser of
the command line.

None of these is on a computation route.  The pair-action oracles build each
permutation literally, the per-family closed forms check the class and
character sums family by family, and the presentations rebuild each family by
coset enumeration as a construction check independent of the normal forms.
"""

from __future__ import annotations

import argparse
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from thetadim.characters import CharacterTable
from thetadim.closed_forms import SphericalMatchError, SphericalSpec, p2, spec_from_expr
from thetadim.cyclo import CycloNumber, _canonical, from_int
from thetadim.expr import Atom, GroupExpr, parse_group_expr
from thetadim.group_core import FiniteGroup, atom_group, product_rule

# -- closed forms in Fractions -------------------------------------------------
#
# The closed polynomials as written before `closed_forms` moved to integer
# numerators over fixed denominators: each term a Fraction, one integrality
# check at the end.  The integer forms must agree with them on every spec.


def fraction_p3(n: int) -> int:
    """`closed_forms.p3` evaluated in Fractions."""
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


def _fraction_as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"{what} is not a nonnegative integer: {value}")
    return int(value)


def fraction_closed_dims(spec: SphericalSpec) -> tuple[int, int]:
    """`closed_forms.closed_dims` evaluated in Fractions."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    if case == "a":
        dim = Fraction(fraction_p3(spec.n))
        ker = Fraction(fraction_p3(spec.n - 3))
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
    elif case in ("b", "c"):
        # for odd p, Dstar(p) is Dprime(0,p) (a = y x^2): case (b) is case (c) at q = 1
        first = (m * p) % 3 != 0
        q = 2**k if case == "c" else 1
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
    dim_i = _fraction_as_int(dim, f"case ({case}) dimension")
    ker_i = _fraction_as_int(ker, f"case ({case}) kernel dimension")
    if dim_i - ker_i != fraction_closed_z2_orbit(spec):
        raise AssertionError(
            f"case ({case}): dimension gap disagrees with the inversion-orbit count"
        )
    return dim_i, ker_i


def fraction_closed_z2_orbit(spec: SphericalSpec) -> int:
    """`closed_forms.closed_z2_orbit` evaluated in Fractions."""
    case = spec.case
    m, p, k = spec.m, spec.p, spec.k
    if case == "a":
        return p2(spec.n)
    if case == "b" and p % 2 == 0:
        value = Fraction(m * p, 2) + Fraction(3 * m, 2) + Fraction(p, 2) + Fraction(3, 2)
    elif case in ("b", "c"):
        q = 2**k if case == "c" else 1
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
    return _fraction_as_int(value, f"case ({case}) inversion-orbit count")


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


def power(group: FiniteGroup, i: int, e: int) -> int:
    """i^e by repeated squaring; a negative e raises the inverse."""
    if e < 0:
        i = group.inverses[i]
        e = -e
    result = 0
    while e:
        if e & 1:
            result = group.mul(result, i)
        i = group.mul(i, i) if e > 1 else i
        e >>= 1
    return result


def check_associativity(group: FiniteGroup) -> None:
    """Full O(order^3) associativity check."""
    rows = group.rows
    n = len(rows)
    for i in range(n):
        for j in range(n):
            ij = rows[i][j]
            for k in range(n):
                if rows[ij][k] != rows[i][rows[j][k]]:
                    raise AssertionError(f"associativity fails at {(i, j, k)}")


def direct_product_literal(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """The product table filled loop by loop from the two factor tables."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    rows = [[0] * n for _ in range(n)]
    r1, r2 = g1.rows, g2.rows
    for i1 in range(n1):
        for i2 in range(n2):
            row = rows[i1 * n2 + i2]
            for j1 in range(n1):
                k1 = r1[i1][j1] * n2
                col = j1 * n2
                for j2 in range(n2):
                    row[col + j2] = k1 + r2[i2][j2]
    labels = [
        f"({g1.label(a)},{g2.label(b)})" for a in range(n1) for b in range(n2)
    ]
    gens = [i1 * n2 for i1 in g1.generators] + list(g2.generators)
    tag1 = g1.family_tag or "?"
    tag2 = g2.family_tag or "?"
    return FiniteGroup(
        rows, labels.__getitem__, family_tag=f"{tag1}x{tag2}", generators=gens
    )


def unbudgeted_table(expr: str) -> FiniteGroup:
    """The table `group_from_expr` builds, filled entry by entry from the
    expression's composed rule with no entries budget, for oracles checked on
    groups larger than the library tabulates."""
    rule = reduce(product_rule, map(atom_group, parse_group_expr(expr).atoms))
    n, mul = rule.order, rule.mul
    return FiniteGroup(
        [[mul(i, j) for j in range(n)] for i in range(n)],
        rule.label,
        family_tag=rule.family_tag,
        generators=rule.generators,
    )


def validate_spherical(expr: GroupExpr | str) -> tuple[bool, str | None]:
    """Whether the expression matches a spherical space form fundamental group."""
    if isinstance(expr, str):
        expr = parse_group_expr(expr)
    try:
        spec_from_expr(expr)
    except SphericalMatchError as exc:
        return False, str(exc)
    return True, None


# -- decoration canonical forms -----------------------------------------------

ThetaDecoration = tuple[int, int, int]


def _reduce(d: ThetaDecoration, group: FiniteGroup) -> tuple[int, int]:
    a, b, c = d
    ai = group.inv(a)
    return group.mul(ai, b), group.mul(ai, c)


def _pair_moves(group: FiniteGroup):
    """Neighbor function on the slice: all images of (e, u, v) re-normalized."""
    rows = group.rows
    inv = group.inverses
    gen_pairs = [(s, inv[s]) for s in group.generators]

    def neighbors(u: int, v: int) -> list[tuple[int, int]]:
        ui = inv[u]
        vi = inv[v]
        out = [
            (ui, rows[ui][v]),  # swap first two labels, then renormalize
            (v, u),  # swap last two labels
            (rows[vi][u], vi),  # swap outer labels, then renormalize
            (ui, vi),  # invert all labels
        ]
        for s, si in gen_pairs:
            out.append((rows[rows[si][u]][s], rows[rows[si][v]][s]))
        return out

    return neighbors


def normalize(d: ThetaDecoration, group: FiniteGroup) -> ThetaDecoration:
    """Lexicographically smallest decoration equivalent to d."""
    neighbors = _pair_moves(group)
    start = _reduce(d, group)
    seen = {start}
    stack = [start]
    best = start
    while stack:
        state = stack.pop()
        if state < best:
            best = state
        for nxt in neighbors(*state):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return (0, best[0], best[1])


# -- character-table identities ----------------------------------------------


def exact_sum(values) -> CycloNumber:
    """Exact sum of CycloNumbers, reduced once.

    Every value is embedded in one common conductor as raw powers of its root
    of unity, the coefficients are added by exponent, and the result is
    reduced modulo the cyclotomic polynomial at the end, so a long sum costs
    one reduction instead of one dict copy per term.  The common conductor is
    that of the non-integer values only: an integer value is its exponent-0
    coefficient in every conductor, so a sum of integers reduces at
    conductor 1.
    """
    values = list(values)
    m = 1
    for x in values:
        c = x.coeffs
        if m % x.conductor and c and (len(c) > 1 or 0 not in c):
            m = math.lcm(m, x.conductor)
    acc: dict[int, int] = {}
    for x in values:
        # an integer value has exponent 0 only, whatever f is
        f = m // x.conductor
        for e, q in x.coeffs.items():
            e *= f
            acc[e] = acc.get(e, 0) + q
    return CycloNumber._raw(m, _canonical(m, acc.items()))


def real_char_sum(table: CharacterTable, class_index: int) -> int:
    """Sum of the real-valued irreducible characters at one class, as an exact int."""
    real = [row for row, is_real in zip(table.values, table.real_rows) if is_real]
    return exact_sum(row[class_index] for row in real).as_int()


def check_degree_sum(table: CharacterTable) -> None:
    if sum(d * d for d in table.degrees) != table.class_data.order:
        raise AssertionError(f"{table.group_name}: degree square sum mismatch")


def check_row_orthogonality(table: CharacterTable) -> None:
    """First orthogonality: size-weighted row inner products equal |G| * delta."""
    cd = table.class_data
    n = cd.order
    k = cd.num_classes
    rows = table.values
    sizes = cd.sizes
    for r in range(k):
        for s in range(r, k):
            acc = conjugate_dot(
                (sizes[c], rows[r][c], rows[s][c]) for c in range(k)
            )
            expected = n if r == s else 0
            if acc != expected:
                raise AssertionError(
                    f"{table.group_name}: row orthogonality fails at ({r}, {s})"
                )


def check_column_orthogonality(table: CharacterTable) -> None:
    """Second orthogonality: column inner products equal centralizer sizes."""
    cd = table.class_data
    k = cd.num_classes
    rows = table.values
    for c in range(k):
        for d in range(c, k):
            acc = conjugate_dot((1, rows[r][c], rows[r][d]) for r in range(k))
            expected = cd.order // cd.sizes[c] if c == d else 0
            if acc != expected:
                raise AssertionError(
                    f"{table.group_name}: column orthogonality fails at ({c}, {d})"
                )


# -- cyclotomic numbers -------------------------------------------------------


def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def conjugate_dot(terms) -> CycloNumber:
    """Exact sum of w * x * conj(y) over (w, x, y) triples.

    w is an integer weight; x and y are CycloNumbers.  All
    products are accumulated as raw powers of one common root of unity and
    reduced modulo the cyclotomic polynomial once at the end, so long inner
    products avoid the per-term reduction cost of repeated multiplication.
    """
    triples = [(w, x, y) for w, x, y in terms]
    m = 1
    for _, x, y in triples:
        m = math.lcm(m, x.conductor, y.conductor)
    acc: dict[int, int] = {}
    for w, x, y in triples:
        if not w or not x.coeffs or not y.coeffs:
            continue
        fx = m // x.conductor
        fy = m // y.conductor
        for e1, q1 in x.coeffs.items():
            wq1 = w * q1
            base = e1 * fx
            for e2, q2 in y.coeffs.items():
                e = (base - e2 * fy) % m
                acc[e] = acc.get(e, 0) + wq1 * q2
    return CycloNumber._raw(m, _canonical(m, acc.items()))


def complex_conjugate(x: CycloNumber) -> CycloNumber:
    """conj(x), the image of x under z -> z^-1."""
    return conjugate_dot([(1, from_int(1), x)])


def to_complex(x: CycloNumber) -> complex:
    """The value of x under the embedding z -> exp(2*pi*i/N)."""
    step = 2j * cmath.pi / x.conductor
    return sum(
        (complex(q) * cmath.exp(step * e) for e, q in x.coeffs.items()),
        complex(0),
    )


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


def orbit_count_literal(group: FiniteGroup) -> int:
    """Monomial-triple orbits under both pair actions and inversion, literally.

    Walks 2|S|+1 moves (left and right translation by each generator, and
    inversion) and tests every sorted triple in turn for a new orbit.
    """
    n = group.order
    perms: list[list[int]] = []
    for s in group.generators:
        perms.append([group.mul(s, x) for x in range(n)])
        si = group.inv(s)
        perms.append([group.mul(x, si) for x in range(n)])
    perms.append(list(group.inverses))

    c2 = [i * (i - 1) // 2 for i in range(n + 3)]
    c3 = [i * (i - 1) * (i - 2) // 6 for i in range(n + 3)]

    def rank(a: int, b: int, c: int) -> int:
        return c3[c + 2] + c2[b + 1] + a

    total = c3[n + 2]
    visited = bytearray(total)
    orbits = 0
    for a0 in range(n):
        for b0 in range(a0, n):
            for c0 in range(b0, n):
                if visited[rank(a0, b0, c0)]:
                    continue
                orbits += 1
                visited[rank(a0, b0, c0)] = 1
                stack = [(a0, b0, c0)]
                while stack:
                    a, b, c = stack.pop()
                    for perm in perms:
                        x, y, z = perm[a], perm[b], perm[c]
                        if x > y:
                            x, y = y, x
                        if y > z:
                            y, z = z, y
                            if x > y:
                                x, y = y, x
                        r = rank(x, y, z)
                        if not visited[r]:
                            visited[r] = 1
                            stack.append((x, y, z))
    return orbits


def orbit_count_per_move(group: FiniteGroup) -> int:
    """`orbit_count_dims`'s walk with inversion applied as a move: every
    state applies both re-centres, each non-central conjugation and
    inversion, and marks only itself, in both orders."""
    rows, inv = group.rows, group.inverses
    n = len(rows)
    identity = list(range(n))
    perms = [[rows[rows[inv[s]][x]][s] for x in range(n)] for s in group.generators]
    # a central generator conjugates trivially, so its move is no move at all
    perms = [perm for perm in perms if perm != identity]
    perms.append(inv)

    visited = [bytearray(n) for _ in range(n)]
    orbits = 0
    for u in range(n):
        visited_u = visited[u]
        v = visited_u.find(0, u)
        while v >= 0:
            orbits += 1
            visited_u[v] = visited[v][u] = 1
            stack = [(u, v)]
            pop, push = stack.pop, stack.append
            while stack:
                a, b = pop()
                # the re-centres at a and at b
                ai, bi = inv[a], inv[b]
                y = rows[ai][b]
                if not visited[ai][y]:
                    visited[ai][y] = visited[y][ai] = 1
                    push((ai, y))
                y = rows[bi][a]
                if not visited[bi][y]:
                    visited[bi][y] = visited[y][bi] = 1
                    push((bi, y))
                for perm in perms:
                    x, y = perm[a], perm[b]
                    if not visited[x][y]:
                        visited[x][y] = visited[y][x] = 1
                        push((x, y))
            v = visited_u.find(0, v + 1)
    return orbits


def diagram_count_per_move(group: FiniteGroup) -> int:
    """`dim_A2`'s walk with the label transpositions applied as moves: every
    state applies the three transpositions, each non-central conjugation and
    inversion, and marks only itself."""
    rows, inv = group.rows, group.inverses
    n = len(rows)
    # moves that act on each label alone, as element permutations: the
    # re-normalised right translation x -> s^-1*x*s by each generator s that
    # is not central (a central one fixes every pair), and inversion
    identity = list(range(n))
    perms = [[rows[rows[inv[s]][x]][s] for x in range(n)] for s in group.generators]
    perms = [perm for perm in perms if perm != identity]
    perms.append(inv)
    visited = [bytearray(n) for _ in range(n)]
    count = 0
    for u in range(n):
        visited_u = visited[u]
        v = visited_u.find(0)
        while v >= 0:
            count += 1
            visited_u[v] = 1
            stack = [(u, v)]
            pop, push = stack.pop, stack.append
            while stack:
                a, b = pop()
                # swap the first two labels, then re-normalise: (e, a^-1, a^-1*b)
                ai = inv[a]
                x = rows[ai][b]
                seen = visited[ai]
                if not seen[x]:
                    seen[x] = 1
                    push((ai, x))
                # swap the last two labels: (e, b, a)
                seen = visited[b]
                if not seen[a]:
                    seen[a] = 1
                    push((b, a))
                # swap the outer labels, then re-normalise: (e, b^-1*a, b^-1)
                bi = inv[b]
                x = rows[bi][a]
                seen = visited[x]
                if not seen[bi]:
                    seen[bi] = 1
                    push((x, bi))
                for perm in perms:
                    x, y = perm[a], perm[b]
                    seen = visited[x]
                    if not seen[y]:
                        seen[y] = 1
                        push((x, y))
            v = visited_u.find(0, v + 1)
    return count


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


# -- reference command-line parser ----------------------------------------------


class ReferenceUsageError(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    # a usage problem raises instead of exiting, so a test can compare refusals
    def error(self, message):
        raise ReferenceUsageError(message)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line used before its getopt parser:
    the same commands, options, defaults, choices and exclusions."""
    from thetadim.cli import METHODS

    parser = _ReferenceParser(prog="thetadim")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute both dimensions for an expression")
    p.add_argument("expr", help='e.g. "Z(5) x Dstar(4)" or "Istar"')
    p.add_argument("--method", choices=METHODS, default="auto")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")
    p.add_argument("--max-order", type=int, dest="max_order")

    p = sub.add_parser("verify", help="run every applicable method and compare")
    p.add_argument("expr")
    p.add_argument("--max-order", type=int, dest="max_order")

    p = sub.add_parser("table", help="emit a parameter sweep as CSV")
    p.add_argument("family", choices=["d4p", "t8_3k", "zn"])
    p.add_argument("--max-p", type=int, default=15, dest="max_p")
    p.add_argument("--max-k", type=int, default=9, dest="max_k")
    p.add_argument("--max-n", type=int, default=60, dest="max_n")
    p.add_argument("--max-order", type=int, dest="max_order")

    p = sub.add_parser("classes", help="dump conjugacy class data")
    p.add_argument("expr")

    p = sub.add_parser("chartab", help="print the character table")
    p.add_argument("expr")
    p.add_argument("--csv", action="store_true")
    return parser
