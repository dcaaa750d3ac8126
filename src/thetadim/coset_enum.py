"""Coset enumeration for finitely presented groups.

A presentation is its generator names and its relators, each a word of
columns: column 2g is generator g and column 2g+1 its inverse, so the word
(0, 2, 0, 2) is (ab)^2 in the generators a and b.  The library enumerates the
binary polyhedral presentations <a,b | (ab)^2 = a^3 = b^k> (`group_core`);
the tests write presentations as text and parse them into such words.

Enumeration runs over the trivial subgroup, so the final coset table is the
regular right action and the group multiplication table can be reconstructed
from it column by column.  The strategy is relator scanning with immediate
gap filling, in-place coincidence handling through a union-find keeping the
smallest representative, and row filling so every live coset gets a complete
row.
"""

from __future__ import annotations

from collections import namedtuple

from .group_core import TABLE_MAX_ENTRIES, FiniteGroup, ResourceLimitError

__all__ = [
    "CosetTable",
    "Presentation",
    "enumerate_cosets",
    "group_from_presentation",
]


class Presentation(namedtuple("Presentation", "generators relators")):
    """The generator names (tuple[str, ...]) and the relators, words of
    column indices (tuple[tuple[int, ...], ...]), of a presentation."""

    __slots__ = ()


class CosetTable(namedtuple("CosetTable", "presentation size action")):
    """`size` (int) cosets of a Presentation, with action[coset][column]
    (list[list[int]]); columns 2g and 2g+1 are generator g and its inverse."""

    __slots__ = ()


def enumerate_cosets(presentation: Presentation, max_cosets: int) -> CosetTable:
    """Run coset enumeration over the trivial subgroup until the table closes;
    defining more than `max_cosets` cosets is refused."""
    ncols = 2 * len(presentation.generators)
    relators = [list(r) for r in presentation.relators]

    table: list[list[int] | None] = [[-1] * ncols]
    parent = [0]

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, col: int) -> int:
        if len(table) >= max_cosets:
            raise ResourceLimitError(
                f"coset enumeration exceeded the budget of {max_cosets} cosets"
            )
        d = len(table)
        table.append([-1] * ncols)
        parent.append(d)
        table[c][col] = d
        table[d][col ^ 1] = c
        return d

    def coincide(a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            rowy = table[y]
            rowx = table[x]
            table[y] = None
            for c in range(ncols):
                img = rowy[c]
                if img < 0:
                    continue
                img = find(img)
                cur = rowx[c]
                if cur < 0:
                    rowx[c] = img
                    irow = table[img]
                    back = irow[c ^ 1]
                    if back < 0:
                        irow[c ^ 1] = x
                    else:
                        back = find(back)
                        if back != x:
                            queue.append((back, x))
                else:
                    cur = find(cur)
                    rowx[c] = cur
                    if cur != img:
                        queue.append((cur, img))

    def scan_and_fill(c: int, relator: list[int]) -> None:
        f = c
        fi = 0
        b = c
        bi = len(relator)
        while True:
            while fi < bi:
                nxt = table[f][relator[fi]]
                if nxt < 0:
                    break
                f = find(nxt)
                fi += 1
            if fi == bi:
                if f != b:
                    coincide(f, b)
                return
            while bi > fi:
                prev = table[b][relator[bi - 1] ^ 1]
                if prev < 0:
                    break
                b = find(prev)
                bi -= 1
            if bi == fi:
                if f != b:
                    coincide(f, b)
                return
            if bi == fi + 1:
                col = relator[fi]
                table[f][col] = b
                table[b][col ^ 1] = f
                return
            f = define(f, relator[fi])
            fi += 1

    i = 0
    while i < len(table):
        if table[i] is None or find(i) != i:
            i += 1
            continue
        dead = False
        for rel in relators:
            scan_and_fill(i, rel)
            if table[i] is None or find(i) != i:
                dead = True
                break
        if not dead:
            row = table[i]
            for col in range(ncols):
                if row[col] < 0:
                    define(i, col)
                else:
                    row[col] = find(row[col])
        i += 1

    live = [c for c in range(len(table)) if table[c] is not None and find(c) == c]
    renumber = {old: new for new, old in zip(range(len(live)), live)}
    action = []
    for old in live:
        row = table[old]
        new_row = []
        for col in range(ncols):
            img = row[col]
            if img < 0:
                raise AssertionError("incomplete coset table after closure")
            new_row.append(renumber[find(img)])
        action.append(new_row)

    result = CosetTable(presentation, len(live), action)
    _check_relations(result)
    return result


def _check_relations(ct: CosetTable) -> None:
    for c in range(ct.size):
        for rel in ct.presentation.relators:
            cur = c
            for col in rel:
                cur = ct.action[cur][col]
            if cur != c:
                raise AssertionError("coset table does not satisfy the relators")


def group_from_presentation(
    presentation: Presentation, expected_order: int, family_tag: str
) -> FiniteGroup:
    """The group of a presentation of order `expected_order`, rebuilt from
    its regular action on cosets.

    The enumeration may define max(20 * expected_order, 1000) cosets, and
    any other count of cosets than `expected_order` is refused.  Coset 0 is
    the trivial subgroup, so cosets are in bijection with group elements.
    Multiplication columns are grown along a breadth-first search:
    if element j is reached from element j' by one generator column c, then
    mul(-, j) is mul(-, j') followed by c.  The table is held to
    TABLE_MAX_ENTRIES before any column is grown; its rows are the columns
    transposed, and each element is labelled by the word that reached it.
    """
    ct = enumerate_cosets(presentation, max(20 * expected_order, 1000))
    n = ct.size
    ncols = 2 * len(presentation.generators)
    if n != expected_order:
        raise ValueError(
            f"enumeration produced {n} cosets, expected order {expected_order}"
        )
    if n * n > TABLE_MAX_ENTRIES:
        raise ResourceLimitError(
            f"{n} cosets need {n * n} table entries, budget is {TABLE_MAX_ENTRIES}."
        )
    # action_cols[col][x] is the coset that column col sends x to
    action_cols = list(zip(*ct.action))
    columns: list[list[int] | None] = [None] * n
    columns[0] = list(range(n))
    words: list[list[tuple[int, int]] | None] = [None] * n
    words[0] = []
    queue = [0]
    qi = 0
    while qi < len(queue):
        j = queue[qi]
        qi += 1
        col_j = columns[j]
        for col in range(ncols):
            target = ct.action[j][col]
            if columns[target] is None:
                image = action_cols[col]
                columns[target] = [image[x] for x in col_j]
                words[target] = words[j] + [(col >> 1, 1 if col % 2 == 0 else -1)]
                queue.append(target)
    if qi != n:
        raise AssertionError("coset action is not transitive")

    # row x of the table is entry x of every column
    rows = [list(row) for row in zip(*columns)]
    spelled = [_word_label(presentation.generators, word) for word in words]
    gens = [ct.action[0][2 * g] for g in range(len(presentation.generators))]
    return FiniteGroup(rows, spelled.__getitem__, family_tag, generators=gens)


def _word_label(names: tuple[str, ...], letters: list[tuple[int, int]]) -> str:
    if not letters:
        return "e"
    runs: list[list[int]] = []
    for g, s in letters:
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (s > 0):
            runs[-1][1] += s
        else:
            runs.append([g, s])
    parts = []
    for g, e in runs:
        if e == 1:
            parts.append(names[g])
        else:
            parts.append(f"{names[g]}^{e}")
    return "*".join(parts)
