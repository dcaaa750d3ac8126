"""Coset enumeration for finitely presented groups.

Presentations are written as ``<a,b | (a*b)^2 = a^3 = b^3>``: single-letter
generators, `*` optional between factors, integer exponents (negative allowed),
parenthesised subwords, and chains u = v = w that abbreviate the relators
u v^-1 and v w^-1.  A bare word is a relator equal to the identity; `1` (or
`e`, when not a generator) denotes the empty word.

Enumeration runs over the trivial subgroup, so the final coset table is the
regular right action and the group multiplication table can be reconstructed
from it column by column.  The strategy is relator scanning with immediate
gap filling, in-place coincidence handling through a union-find keeping the
smallest representative, and row filling so every live coset gets a complete
row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_core import FiniteGroup, ResourceLimitError

__all__ = [
    "CosetTable",
    "Presentation",
    "enumerate_cosets",
    "group_from_presentation",
    "parse_presentation",
]

DEFAULT_MAX_COSETS = 10**5


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]  # sequences of column indices
    text: str


@dataclass
class CosetTable:
    presentation: Presentation
    size: int
    action: list[list[int]]  # action[coset][column], columns 2g / 2g+1 = gen / inverse


def _invert_word(word: list[int]) -> list[int]:
    out = [c ^ 1 for c in word]
    out.reverse()
    return out


class _WordScanner:
    def __init__(self, text: str, pos: int, gens: dict[str, int]) -> None:
        self.text = text
        self.pos = pos
        self.gens = gens

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop: str) -> list[int]:
        out: list[int] = []
        while True:
            ch = self.peek()
            if ch == "" or ch in stop:
                return out
            if ch == "*":
                self.pos += 1
                continue
            if ch == "(":
                self.pos += 1
                factor = self.parse_word(")")
                if self.peek() != ")":
                    raise ValueError(f"unbalanced ( in word at byte {self.pos}")
                self.pos += 1
            elif ch in self.gens:
                factor = [2 * self.gens[ch]]
                self.pos += 1
            elif ch == "1" or ch == "e":
                factor = []
                self.pos += 1
            else:
                raise ValueError(
                    f"unexpected character {ch!r} in word at byte {self.pos}"
                )
            if self.peek() == "^":
                self.pos += 1
                factor = self._apply_exponent(factor)
            out.extend(factor)

    def _apply_exponent(self, factor: list[int]) -> list[int]:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ValueError(f"expected an integer exponent at byte {start}")
        exp = int(self.text[start : self.pos])
        if exp < 0:
            factor = _invert_word(factor)
            exp = -exp
        return factor * exp


def parse_presentation(text: str) -> Presentation:
    s = text.strip()
    if not s.startswith("<") or not s.endswith(">"):
        raise ValueError("presentation must be enclosed in < >")
    body = s[1:-1]
    if "|" not in body:
        raise ValueError("presentation must contain | between generators and relations")
    gen_part, rel_part = body.split("|", 1)
    names = []
    for tok in gen_part.split(","):
        tok = tok.strip()
        if len(tok) != 1 or not tok.isalpha():
            raise ValueError(f"generator names must be single letters, got {tok!r}")
        if tok in names:
            raise ValueError(f"duplicate generator {tok!r}")
        names.append(tok)
    gens = {}
    for g in names:
        gens[g] = len(gens)
    relators: list[tuple[int, ...]] = []
    for rel in rel_part.split(","):
        rel = rel.strip()
        if not rel:
            continue
        words = []
        for part in rel.split("="):
            sc = _WordScanner(part, 0, gens)
            word = sc.parse_word("")
            if sc.peek() != "":
                raise ValueError(f"trailing junk in relation {part!r}")
            words.append(word)
        if len(words) == 1:
            if words[0]:
                relators.append(tuple(words[0]))
        else:
            for i in range(len(words) - 1):
                combined = words[i] + _invert_word(words[i + 1])
                if combined:
                    relators.append(tuple(combined))
    return Presentation(tuple(names), tuple(relators), text)


def enumerate_cosets(presentation, max_cosets: int | None = None) -> CosetTable:
    """Run coset enumeration over the trivial subgroup until the table closes."""
    pres = (
        parse_presentation(presentation)
        if isinstance(presentation, str)
        else presentation
    )
    if max_cosets is None:
        max_cosets = DEFAULT_MAX_COSETS
    ncols = 2 * len(pres.generators)
    relators = [list(r) for r in pres.relators]

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

    result = CosetTable(pres, len(live), action)
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


def group_from_coset_table(
    ct: CosetTable,
    family_tag: str = "",
    expected_order: int | None = None,
) -> FiniteGroup:
    """Rebuild the abstract group from the regular action on cosets.

    Coset 0 is the trivial subgroup, so cosets are in bijection with group
    elements.  Multiplication columns are grown along a breadth-first search:
    if element j is reached from element j' by one generator column c, then
    mul(-, j) is mul(-, j') followed by c.
    """
    n = ct.size
    ncols = 2 * len(ct.presentation.generators)
    if expected_order is not None and n != expected_order:
        raise ValueError(
            f"enumeration produced {n} cosets, expected order {expected_order}"
        )
    identity_col = list(range(n))
    columns: list[list[int] | None] = [None] * n
    columns[0] = identity_col
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
                columns[target] = [ct.action[x][col] for x in col_j]
                words[target] = words[j] + [(col >> 1, 1 if col % 2 == 0 else -1)]
                queue.append(target)
    if qi != n:
        raise AssertionError("coset action is not transitive")

    flat = [0] * (n * n)
    for j in range(n):
        col_j = columns[j]
        for x in range(n):
            flat[x * n + j] = col_j[x]

    labels = [_word_label(ct.presentation.generators, words[j]) for j in range(n)]
    gens = [ct.action[0][2 * g] for g in range(len(ct.presentation.generators))]
    return FiniteGroup(n, flat, labels=labels, family_tag=family_tag, generators=gens)


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


def group_from_presentation(
    text: str,
    expected_order: int | None = None,
    max_cosets: int | None = None,
    family_tag: str = "",
) -> FiniteGroup:
    if max_cosets is None and expected_order is not None:
        max_cosets = max(20 * expected_order, 1000)
    ct = enumerate_cosets(text, max_cosets=max_cosets)
    return group_from_coset_table(ct, family_tag=family_tag, expected_order=expected_order)
