"""Character-free dimension oracles via fixed-point counting and orbit enumeration.

The basis of the group algebra carries two permutation actions per pair (g, h):
the plain one x -> g*x*h^-1 and the twisted one x -> h*x^-1*g^-1 (pair action
followed by inversion).  Averaging symmetric-cube traces over all pairs gives
d1 (plain) and d2 (twisted); the target dimension is their mean.  The kernel
variant replaces every power trace t_k by t_k - 1, since the trivial summand
contributes exactly 1 to each.

The argument picks the evaluation.  A table is counted in mode "naive", the
trusted reference: all |G|^2 pairs, reading fixed-point counts from two
literally-counted tables.  An expression is reduced in mode "class" to the
product of its atoms' moment vectors, O(k) class sums per atom, by
`conjugacy`'s evaluator and per-atom pass, as on the chars route; it builds
no multiplication table and composes no product's classes.
Orbit enumeration on sorted monomial triples provides a third, lemma-free
count of the same dimension, on a table its caller builds.  Every orbit
meets the triples that contain the identity, so it walks only those, as
sorted pairs {e, u, v}: re-centring at u or v, conjugation by the generators
and inversion connect exactly the pairs whose triples share an orbit.  The walk marks each pair
together with its inverse pair, so inversion is never applied as a move:
conjugations commute with inversion, and a re-centre of the inverted pair is
a conjugate of the inverted re-centre.  So once the re-centres and the
conjugates by the generators of every walked pair are marked, the marked set
is closed under every move (see `orbit_count_dims`).  Each route is bounded
by the budget that bounds its memory: the class-data cap on each atom of an
expression, and for a table the entries budget it was built within.
"""

from __future__ import annotations

from collections import namedtuple

from .conjugacy import (
    atom_classes,
    half_sum,
    moment_dims,
    moments,
    pair_average,
    square_root_counts,
)
from .expr import GroupExpr, expr_to_string, parse_group_expr

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = ["BurnsideResult", "burnside_dims", "orbit_count_dims"]


class BurnsideResult(
    namedtuple("BurnsideResult", "group_name order d1 d2 dim_full dim_ker mode num_classes")
):
    """Both dimensions of one group by pair averaging: group_name and mode
    ("naive" or "class") are strs, every other field an int."""

    __slots__ = ()


def _naive_sums(group: FiniteGroup) -> tuple[int, int, int, int, int]:
    """Sym-cube trace sums over all pairs, via two counted fixed-point tables,
    and the number of conjugacy classes, read off the plain table.

    pl[u][v] counts solutions of x^-1*u*x = v, the fixed points of the
    plain action of any pair (g, h) with g in the role of u at x-conjugate v.
    tw[u][v] counts solutions of x*u*x = v, the twisted fixed points.
    Power traces reduce to table lookups: the square of the twisted action of
    (g, h) is the plain action of (h*g, g*h), and its cube is the twisted
    action of (g*h*g, h*g*h).  pl[u][u] is the centralizer size of u, so by
    Burnside's lemma for conjugation the classes number sum_u pl[u][u] / |G|.
    """
    n = group.order
    rows, inv = group.rows, group.inverses
    pl = [[0] * n for _ in range(n)]
    tw = [[0] * n for _ in range(n)]
    for u in range(n):
        pl_u, tw_u = pl[u], tw[u]
        for x in range(n):
            pl_u[rows[rows[inv[x]][u]][x]] += 1
            tw_u[rows[rows[x][u]][x]] += 1
    num_classes, rem = divmod(sum(pl[u][u] for u in range(n)), n)
    if rem:
        raise AssertionError(
            f"{group.family_tag}: centralizer sizes do not sum to a multiple of |G|"
        )

    sq = [rows[x][x] for x in range(n)]
    cu = [rows[sq[x]][x] for x in range(n)]

    # the kernel polynomial (t1-1)^3 + 3(t1-1)(t2-1) + 2(t3-1) is the full one
    # t1^3 + 3 t1 t2 + 2 t3 minus 3 (t1^2 + t2), so each sum keeps that correction
    plain_sum = plain_corr = 0
    twist_sum = twist_corr = 0
    for g in range(n):
        pl_g, tw_g, row_g = pl[g], tw[g], rows[g]
        pl_sq, pl_cu = pl[sq[g]], pl[cu[g]]
        for h in range(n):
            t1 = pl_g[h]
            t2 = pl_sq[sq[h]]
            t3 = pl_cu[cu[h]]
            # both polynomials vanish at t1 = t2 = t3 = 0 (the kernel one is
            # -1 + 3 - 2), so pairs without plain fixed points add nothing
            if t1 or t2 or t3:
                plain_sum += t1 * (t1 * t1 + 3 * t2) + 2 * t3
                plain_corr += t1 * t1 + t2

            gh = row_g[h]
            hg = rows[h][g]
            u1 = tw_g[h]
            u2 = pl[hg][gh]
            u3 = tw[rows[gh][g]][rows[hg][h]]
            twist_sum += u1 * (u1 * u1 + 3 * u2) + 2 * u3
            twist_corr += u1 * u1 + u2
    return (
        plain_sum,
        plain_sum - 3 * plain_corr,
        twist_sum,
        twist_sum - 3 * twist_corr,
        num_classes,
    )


def burnside_dims(group: FiniteGroup | GroupExpr | str) -> BurnsideResult:
    """Both dimensions by pair-averaged symmetric-cube traces.

    A table is counted pair by pair (mode "naive"); an expression or its
    string is reduced by classes (mode "class"), multiplying its atoms'
    moment vectors with the square-root counts as first twisted trace; its
    atoms and refusals are `conjugacy.atom_classes`'s, as on the chars route.
    """
    if isinstance(group, str):
        group = parse_group_expr(group)
    if isinstance(group, GroupExpr):
        name, mode = expr_to_string(group), "class"
        vectors = [moments(cd, square_root_counts(cd)) for _, _, cd in atom_classes(group)]
        n, num_classes, d1, d2, dim_full, dim_ker, _ = moment_dims(vectors, name)
    else:
        name, mode, n = group.family_tag, "naive", group.order
        plain_sum, plain_ker, twist_sum, twist_ker, num_classes = _naive_sums(group)
        d1 = pair_average(plain_sum, n, f"d1 for {name}")
        d2 = pair_average(twist_sum, n, f"d2 for {name}")
        ker_d1 = pair_average(plain_ker, n, f"kernel d1 for {name}")
        ker_d2 = pair_average(twist_ker, n, f"kernel d2 for {name}")
        dim_full = half_sum(d1, d2, f"dim for {name}")
        dim_ker = half_sum(ker_d1, ker_d2, f"kernel dim for {name}")
    return BurnsideResult(name, n, d1, d2, dim_full, dim_ker, mode, num_classes)


def orbit_count_dims(group: FiniteGroup) -> int:
    """Number of monomial-triple orbits under both pair actions and inversion.

    Equals the full invariant dimension, and cross-checks burnside_dims by
    Burnside's lemma.  Every orbit meets the identity slice, the multisets
    {e, u, v} that contain the identity e (element 0), so the walk runs over
    the unordered pairs {u, v}, one per such multiset.  Its moves give the
    same orbits as the whole group acting on all triples:

    1. A pair action (g, h) keeps {e, u, v} in the slice only when g*h^-1,
       g*u*h^-1 or g*v*h^-1 is e.
    2. So every such action is the conjugation x -> h*x*h^-1 composed with
       the identity, with the re-centre at u (left multiplication by u^-1,
       giving {u^-1, e, u^-1*v}) or with the re-centre at v.
    3. Inversion maps the slice to itself.
    4. Conjugations by the generators s generate all conjugations.

    A pair is marked visited in both orders, in n rows of n bytes, so a
    move's image is looked up as it comes, with no sorting or ranking.  Each
    new orbit starts at the next unvisited pair u <= v, found by
    `bytearray.find` along row u, so the walk takes one Python step per
    orbit start instead of one per state.

    When the walk reaches an unvisited pair {a, b} it marks it and its
    inverse {a^-1, b^-1}.  It pushes {a, b} alone, and applies to it only
    the re-centres R_a{a, b} = {a^-1, a^-1*b} and R_b{a, b} = {b^-1*a, b^-1},
    and the conjugation by each generator s that is not central (a central
    one fixes every pair).  Write c_g for x -> g*x*g^-1, applied to both
    members, and i for inversion.  The marked set V is the set of walked
    pairs with their inverses, and it is closed under every move:

    1. c_g is an automorphism, so it commutes with i, and V is closed under
       each c_s: c_s(i p) = i c_s(p) for a walked pair p.  Since the
       generators generate G, as `FiniteGroup` requires, V is closed under
       every c_g.
    2. V is closed under i by construction.
    3. The re-centres of i{a, b} = {a^-1, b^-1} are conjugates of inverted
       re-centres of {a, b}: at a^-1 it gives {a, a*b^-1} = c_a(i R_a{a, b}),
       and at b^-1 it gives c_b(i R_b{a, b}), which lie in V by 1 and 2.

    Every marked pair is reached from the start by moves, so V is exactly
    the union of the orbits started, and the count is the number of orbits.

    The visited rows hold n^2 bytes, as many as the group's table has
    entries, so the table's entries budget bounds the walk too.
    """
    rows, inv = group.rows, group.inverses
    n = len(rows)
    identity = list(range(n))
    perms = [[rows[rows[inv[s]][x]][s] for x in range(n)] for s in group.generators]
    # a central generator conjugates trivially, so its move is no move at all
    perms = [perm for perm in perms if perm != identity]

    # each new pair is marked with its inverse pair, each in both orders
    visited = [bytearray(n) for _ in range(n)]
    orbits = 0
    for u in range(n):
        visited_u = visited[u]
        v = visited_u.find(0, u)
        while v >= 0:
            orbits += 1
            ui, vi = inv[u], inv[v]
            visited_u[v] = visited[v][u] = visited[ui][vi] = visited[vi][ui] = 1
            stack = [(u, v)]
            pop, push = stack.pop, stack.append
            while stack:
                a, b = pop()
                # the re-centres at a and at b
                ai, bi = inv[a], inv[b]
                y = rows[ai][b]
                row = visited[ai]
                if not row[y]:
                    yi = inv[y]
                    row[y] = visited[y][ai] = visited[a][yi] = visited[yi][a] = 1
                    push((ai, y))
                y = rows[bi][a]
                row = visited[bi]
                if not row[y]:
                    yi = inv[y]
                    row[y] = visited[y][bi] = visited[b][yi] = visited[yi][b] = 1
                    push((bi, y))
                for perm in perms:
                    x, y = perm[a], perm[b]
                    row = visited[x]
                    if not row[y]:
                        xi, yi = inv[x], inv[y]
                        row[y] = visited[y][x] = visited[xi][yi] = visited[yi][xi] = 1
                        push((x, y))
            v = visited_u.find(0, v + 1)
    return orbits
