"""The binary polyhedral atoms Tstar, Ostar and Istar: their model,
characters and class counts.

They have no normal form.  Each is the table that coset enumeration builds
from its presentation (`group_core.construct_family`), so its rows and sums
are constants at a list of representative words in the generators a and b,
used only once the words' class sizes and power maps agree with the class
data; any failure of that alignment raises instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .expr import Atom

if TYPE_CHECKING:
    from .group_core import FiniteGroup

__all__ = ["class_count", "model", "rows_and_sums"]


def model(atom: Atom) -> FiniteGroup:
    from .group_core import construct_family

    return construct_family(atom)


# each binary polyhedral atom at its representative words in the generators a
# and b: the class sizes, the words of the square, cube and inverse classes
# (as indices), and S+ and S- with the number of real rows
_POLYHEDRAL = {
    "Tstar": {
        "words": ["", "aa", "ab", "aaa", "aaaa", "aaaaa", "a"],
        "sizes": [1, 4, 6, 1, 4, 4, 4],
        "square": [0, 4, 3, 0, 1, 4, 1],
        "cube": [0, 0, 2, 3, 0, 3, 3],
        "inverse": [0, 4, 2, 3, 1, 6, 5],
        "plus": [4, 1, 0, 4, 1, 1, 1],
        "minus": [2, -1, 0, -2, -1, 1, 1],
        "real": 3,
    },
    "Ostar": {
        "words": ["", "ab", "aa", "bb", "aaa", "b", "a", "aab"],
        "sizes": [1, 12, 8, 6, 1, 6, 8, 6],
        "square": [0, 4, 2, 4, 0, 3, 2, 3],
        "cube": [0, 1, 0, 3, 4, 7, 4, 5],
        "inverse": [0, 1, 2, 3, 4, 5, 6, 7],
        "plus": [10, 0, 1, 2, 10, 0, 1, 0],
        "minus": [8, 0, -1, 0, -8, 0, 1, 0],
        "real": 8,
    },
    "Istar": {
        "words": ["", "aaa", "aabbaabba", "abaab", "a", "aabbaabb", "aabb", "aabba", "b"],
        "sizes": [1, 1, 30, 20, 20, 12, 12, 12, 12],
        "square": [0, 0, 1, 3, 3, 6, 5, 6, 5],
        "cube": [0, 1, 2, 0, 1, 6, 5, 8, 7],
        "inverse": [0, 1, 2, 3, 4, 5, 6, 7, 8],
        "plus": [16, 16, 0, 1, 1, 1, 1, 1, 1],
        "minus": [14, -14, 0, -1, 1, -1, -1, 1, 1],
        "real": 9,
    },
}
_CLASS_COUNTS = {"Tstar": 7, "Ostar": 8, "Istar": 9}


def class_count(atom: Atom) -> int:
    return _CLASS_COUNTS[atom.kind]


def _polyhedral_rows(kind: str) -> list[tuple[str, list]]:
    """The named rows of a binary polyhedral atom, valued at its words."""
    from .cyclo import golden_ratio, golden_ratio_conjugate, sqrt2, zeta

    if kind == "Tstar":
        w = zeta(3)
        w2 = zeta(3, 2)
        return [
            ("V_1", [1, 1, 1, 1, 1, 1, 1]),
            ("V_2", [1, w2, 1, 1, w, w2, w]),
            ("V_3", [1, w, 1, 1, w2, w, w2]),
            ("V_4", [2, -1, 0, -2, -1, 1, 1]),
            ("V_5", [2, -w, 0, -2, -w2, w, w2]),
            ("V_6", [2, -w2, 0, -2, -w, w2, w]),
            ("V_7", [3, 0, -1, 3, 0, 0, 0]),
        ]
    if kind == "Ostar":
        r = sqrt2()
        return [
            ("A_1", [1, 1, 1, 1, 1, 1, 1, 1]),
            ("A_2", [1, -1, 1, 1, 1, -1, 1, -1]),
            ("A_3", [2, 0, -1, 2, 2, 0, -1, 0]),
            ("A_4", [2, 0, -1, 0, -2, -r, 1, r]),
            ("A_5", [2, 0, -1, 0, -2, r, 1, -r]),
            ("A_6", [3, 1, 0, -1, 3, -1, 0, -1]),
            ("A_7", [3, -1, 0, -1, 3, 1, 0, 1]),
            ("A_8", [4, 0, 1, 0, -4, 0, -1, 0]),
        ]
    g = golden_ratio()
    h = golden_ratio_conjugate()
    return [
        ("A_1", [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        ("A_2", [2, -2, 0, -1, 1, -h, -g, h, g]),
        ("A_3", [2, -2, 0, -1, 1, -g, -h, g, h]),
        ("A_4", [3, 3, -1, 0, 0, g, h, g, h]),
        ("A_5", [3, 3, -1, 0, 0, h, g, h, g]),
        ("A_6", [4, 4, 0, 1, 1, -1, -1, -1, -1]),
        ("A_7", [4, -4, 0, 1, -1, -1, -1, 1, 1]),
        ("A_8", [5, 5, 1, -1, -1, 0, 0, 0, 0]),
        ("A_9", [6, -6, 0, 0, 0, 1, 1, -1, -1]),
    ]


def rows_and_sums(atom: Atom, group: FiniteGroup):
    # a coset-enumerated table has no normal form: its classes are located by
    # the words, and the layout is used only once every class agrees with it
    kind = atom.kind
    data = _POLYHEDRAL[kind]

    def word_of(cd) -> list[int]:
        """The index of each class's word, once sizes and power maps agree.

        A word's class is the one whose representative, its smallest member,
        is the smallest conjugate of the word's element.
        """
        a, b = group.generators[0], group.generators[1]
        mul, inv = group.mul, group.inv
        class_at = {r: c for c, r in enumerate(cd.representatives)}
        cols = []
        for word in data["words"]:
            el = 0
            for ch in word:
                el = mul(el, a if ch == "a" else b)
            smallest = min(mul(mul(x, el), inv(x)) for x in range(group.order))
            cols.append(class_at.get(smallest, -1))
        if sorted(cols) != list(range(cd.num_classes)):
            raise AssertionError(f"{kind}: class alignment is ambiguous")
        for i, c in enumerate(cols):
            if cd.sizes[c] != data["sizes"][i]:
                raise AssertionError(f"{kind}: class sizes do not match the table layout")
            for power in ("square", "cube", "inverse"):
                if getattr(cd, f"{power}_class")[c] != cols[data[power][i]]:
                    raise AssertionError(f"{kind}: {power} classes do not match the table layout")
        return sorted(range(len(cols)), key=cols.__getitem__)

    def rows(cd):
        from .cyclo import CycloNumber, from_int

        words = word_of(cd)
        named = _polyhedral_rows(kind)
        cells = [[row[i] for i in words] for _, row in named]
        values = [[v if isinstance(v, CycloNumber) else from_int(v) for v in row] for row in cells]
        return [name for name, _ in named], values

    def sums(cd):
        return [(data["plus"][i], data["minus"][i]) for i in word_of(cd)], data["real"]

    return rows, sums
