"""Coset enumeration for finitely presented groups.

A presentation is its generator names and its relators, each a word of
columns: column 2g is generator g and column 2g+1 its inverse, so the word
(0, 2, 0, 2) is (ab)^2 in the generators a and b.  The library enumerates the
binary polyhedral presentations <a,b | (ab)^2 = a^3 = b^k> (`group_core`);
the tests write presentations as text and parse them into such words.

Enumeration runs over the trivial subgroup, so the final coset table is the
regular right action and its cosets are the group's elements.
`group_from_presentation` turns the action into a product rule on coset
numbers, a `NormalForm` like every family's; this module builds no table and
imports nothing from `group_core`.  The strategy is relator scanning with
immediate gap filling, in-place coincidence handling through a union-find
keeping the smallest representative, and row filling so every live coset
gets a complete row.
"""

from __future__ import annotations

from collections import namedtuple

from .normal_form import NormalForm, ResourceLimitError

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
) -> NormalForm:
    """The group of a presentation of order `expected_order`, as the product
    rule of its regular action on cosets.

    The enumeration may define max(20 * expected_order, 1000) cosets, and
    any other count of cosets than `expected_order` is refused.  Coset 0 is
    the trivial subgroup, so cosets are in bijection with group elements.
    Each coset is labelled by the word of columns that first reaches it from
    coset 0 in a breadth-first search, and the rule's product i*j carries
    coset i along j's word, so a product costs that word's length.  Its
    generators, the cosets of the presentation's generators, are a tuple.
    """
    ct = enumerate_cosets(presentation, max(20 * expected_order, 1000))
    n, action, names = ct.size, ct.action, presentation.generators
    if n != expected_order:
        raise ValueError(
            f"enumeration produced {n} cosets, expected order {expected_order}"
        )
    words: list[tuple[int, ...] | None] = [()] + [None] * (n - 1)
    reached = [0]
    for j in reached:  # grows while it is read: a breadth-first queue
        for col, target in enumerate(action[j]):
            if words[target] is None:
                words[target] = words[j] + (col,)
                reached.append(target)

    def mul(i: int, j: int) -> int:
        for col in words[j]:
            i = action[i][col]
        return i

    def inv(i: int) -> int:
        j = 0
        for col in reversed(words[i]):
            j = action[j][col ^ 1]
        return j

    gens = tuple(action[0][2 * g] for g in range(len(names)))
    return NormalForm(n, mul, inv, lambda i: _word_label(names, words[i]), gens, family_tag)


def _word_label(names: tuple[str, ...], word: tuple[int, ...]) -> str:
    """A word of columns in the generator names, each run a power: a^2*b^-1."""
    runs: list[list[int]] = []
    for col in word:
        g, s = col >> 1, -1 if col & 1 else 1
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (s > 0):
            runs[-1][1] += s
        else:
            runs.append([g, s])
    return "*".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in runs) or "e"
