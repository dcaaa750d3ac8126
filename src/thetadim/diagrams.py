"""Theta-diagram decorations over a finite group.

A decoration is a triple of edge labels.  Two decorations are equivalent under
edge permutations, simultaneous left or right translation of all three labels,
and simultaneous inversion.  Every orbit meets the slice of triples whose
first label is the identity, and left translation acts freely there, so the
walk runs over pairs (u, v) standing for (e, u, v).  Right translations by
group generators, the three transpositions and inversion all map this slice
to itself after re-normalizing the first label, and together they connect
exactly the original orbits.

The six re-normalised orderings of a triple form one batch, and the walk
marks a whole batch at once, so the transpositions are never applied as
moves: conjugations commute with them, and inversion composed with a
transposition is the transposition composed with inversion, followed by a
conjugation.  So once the inverse and the conjugates by the generators of
every walked pair are marked, the marked set is closed under every move (see
`dim_A2`).

The walk takes a multiplication table, which its caller builds within the
table's entries budget, and calls nothing of the library.
"""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = ["dim_A2"]


def dim_A2(group: FiniteGroup) -> int:
    """Number of decoration orbits; equals the full invariant dimension.

    The walk visits the n^2 ordered pairs (u, v) standing for (e, u, v),
    marked in n rows of n bytes, one row per first label.  Each new orbit
    starts at the next unvisited pair, found by `bytearray.find` along its
    row, so the walk takes one Python step per orbit start instead of one
    per pair.  The rows hold as many bytes as the group's table has entries,
    so the table's entries budget, order 1000, bounds the walk too.

    When the walk reaches an unvisited pair (a, b) it marks the six
    re-normalised orderings of (e, a, b): (a, b), (b, a), (a^-1, a^-1*b),
    (a^-1*b, a^-1), (b^-1*a, b^-1) and (b^-1, b^-1*a).  It pushes (a, b)
    alone, and applies to it only inversion and the conjugation by each
    generator s that is not central (a central one fixes every pair).  Write
    c_g for x -> g*x*g^-1, applied to both labels, and i for inversion.  The
    marked set V is the set of walked pairs with all their orderings, and it
    is closed under every move:

    1. c_g is an automorphism, so it commutes with the transpositions
       (the re-normalised images are words in a and b) and with i.
    2. So V is closed under each c_s: c_s maps an ordering of a walked pair
       p to the same ordering of c_s(p), which the walk marked.  Since the
       generators generate G, as `FiniteGroup` requires, V is closed under
       every c_g.
    3. i commutes with the swap of the last two labels, and for the other two
       transpositions i(a^-1, a^-1*b) = c_(a^-1)(a, a*b^-1), the first
       transposition of i(a, b) conjugated, and i(b^-1*a, b^-1) =
       c_(b^-1)(b*a^-1, b), the third one's.  So i of an ordering of p is a
       conjugate of an ordering of i(p), which lies in V by 1 and 2.

    Every marked pair is reached from the start by moves, so V is exactly
    the union of the orbits started, and the count is the number of orbits.
    """
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

    def mark(a: int, b: int) -> None:
        # the six orderings of (e, a, b), each re-normalised to first label e
        ai, bi = inv[a], inv[b]
        x, y = rows[ai][b], rows[bi][a]
        visited[a][b] = visited[b][a] = 1
        visited[ai][x] = visited[x][ai] = 1
        visited[y][bi] = visited[bi][y] = 1

    count = 0
    for u in range(n):
        visited_u = visited[u]
        v = visited_u.find(0)
        while v >= 0:
            count += 1
            mark(u, v)
            stack = [(u, v)]
            pop, push = stack.pop, stack.append
            while stack:
                a, b = pop()
                for perm in perms:
                    x, y = perm[a], perm[b]
                    if not visited[x][y]:
                        mark(x, y)
                        push((x, y))
            v = visited_u.find(0, v + 1)
    return count
