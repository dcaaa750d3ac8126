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

    The walk visits the n^2 ordered pairs (u, v) standing for (e, u, v).  Each
    new orbit starts at the first unvisited pair, found by `bytearray.find`,
    so the walk takes one Python step per orbit start instead of one per pair.
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
    # re-normalised right translation x -> s^-1*x*s by each generator s, and
    # inversion; each comes with its images times n, so a rank is one addition
    perms = [[rows[rows[inv[s]][x]][s] for x in range(n)] for s in group.generators]
    perms.append(inv)
    moves = [([y * n for y in perm], perm) for perm in perms]
    visited = bytearray(n * n)
    count = 0
    start = visited.find(0)
    while start >= 0:
        count += 1
        visited[start] = 1
        stack = [divmod(start, n)]
        pop, push = stack.pop, stack.append
        while stack:
            u, v = pop()
            # swap the first two labels, then re-normalise: (e, u^-1, u^-1*v)
            ui = inv[u]
            x = rows[ui][v]
            r = ui * n + x
            if not visited[r]:
                visited[r] = 1
                push((ui, x))
            # swap the last two labels: (e, v, u)
            r = v * n + u
            if not visited[r]:
                visited[r] = 1
                push((v, u))
            # swap the outer labels, then re-normalise: (e, v^-1*u, v^-1)
            vi = inv[v]
            x = rows[vi][u]
            r = x * n + vi
            if not visited[r]:
                visited[r] = 1
                push((x, vi))
            for scaled, perm in moves:
                r = scaled[u] + perm[v]
                if not visited[r]:
                    visited[r] = 1
                    push((perm[u], perm[v]))
        start = visited.find(0, start + 1)
    return count
