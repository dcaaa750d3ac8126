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


def _pair_moves(group: FiniteGroup):
    """Neighbor function on the slice: all images of (e, u, v) re-normalized."""
    n = group.order
    mul = group._mul
    inv = group.inverses
    gen_pairs = [(s, inv[s]) for s in group.generators]

    def neighbors(u: int, v: int) -> list[tuple[int, int]]:
        ui = inv[u]
        vi = inv[v]
        out = [
            (ui, mul[ui * n + v]),  # swap first two labels, then renormalize
            (v, u),  # swap last two labels
            (mul[vi * n + u], vi),  # swap outer labels, then renormalize
            (ui, vi),  # invert all labels
        ]
        for s, si in gen_pairs:
            out.append((mul[mul[si * n + u] * n + s], mul[mul[si * n + v] * n + s]))
        return out

    return neighbors


def dim_A2(group: FiniteGroup | GroupExpr | str, max_order: int | None = None) -> int:
    """Number of decoration orbits; equals the full invariant dimension.

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
    neighbors = _pair_moves(group)
    visited = bytearray(n * n)
    count = 0
    for u0 in range(n):
        for v0 in range(n):
            if visited[u0 * n + v0]:
                continue
            count += 1
            visited[u0 * n + v0] = 1
            stack = [(u0, v0)]
            while stack:
                u, v = stack.pop()
                for x, y in neighbors(u, v):
                    r = x * n + y
                    if not visited[r]:
                        visited[r] = 1
                        stack.append((x, y))
    return count
