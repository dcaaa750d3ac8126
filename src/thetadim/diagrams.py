"""Theta-diagram decorations over a finite group.

A decoration is a triple of edge labels.  Two decorations are equivalent under
edge permutations, simultaneous left or right translation of all three labels,
and simultaneous inversion.  Every orbit meets the slice of triples whose
first label is the identity, and left translation acts freely there, so the
walk runs over pairs (u, v) standing for (e, u, v).  Right translations by
group generators, the three transpositions and inversion all map this slice
to itself after re-normalizing the first label, and together they connect
exactly the original orbits.
"""

from __future__ import annotations

from .expr import GroupExpr
from .group_core import FiniteGroup, ResourceLimitError, group_from_expr, group_order

__all__ = ["DEFAULT_DIAGRAM_MAX_ORDER", "dim_A2"]

DEFAULT_DIAGRAM_MAX_ORDER = 120


def dim_A2(group: FiniteGroup | GroupExpr | str, max_order: int | None = None) -> int:
    """Number of decoration orbits; equals the full invariant dimension.

    The walk visits the n^2 ordered pairs (u, v) standing for (e, u, v),
    marked in n rows of n bytes, one row per first label.  A central
    generator's right translation re-normalises to the identity, so only the
    other generators give moves.  Each new orbit starts at the next
    unvisited pair, found by `bytearray.find` along its row, so the walk
    takes one Python step per orbit start instead of one per pair.
    The budget is checked before an expression's group is built.
    """
    n = group_order(group)
    budget = DEFAULT_DIAGRAM_MAX_ORDER if max_order is None else max_order
    if n > budget:
        raise ResourceLimitError(
            f"order {n} exceeds the diagram-enumeration budget {budget}"
        )
    if not isinstance(group, FiniteGroup):
        group = group_from_expr(group)
    mul = group._mul
    rows = [mul[g * n : (g + 1) * n].tolist() for g in range(n)]
    inv = list(group.inverses)
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
