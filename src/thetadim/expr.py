"""Parsing and printing of group expressions.

An expression is a product of family atoms separated by `x`, for example
``Z(5)xDstar(3)`` or ``Tprime(2)``.  Parsing is case-insensitive and ignores
whitespace; printing always produces the canonical spaceless form, and
``parse(print(expr))`` round-trips.

`ATOMS` lists each atom kind once, with its arity and its family's module.
"""

from __future__ import annotations

import sys
from collections import namedtuple

__all__ = [
    "ATOMS",
    "Atom",
    "ExprSyntaxError",
    "GroupExpr",
    "expr_to_string",
    "parse_group_expr",
]

# canonical atom name -> (number of integer parameters, module of its family)
ATOMS = {
    "Z": (1, "family_z"),
    "Dstar": (1, "family_dstar"),
    "Dprime": (2, "family_dprime"),
    "Tstar": (0, "family_polyhedral"),
    "Tprime": (1, "family_tprime"),
    "Ostar": (0, "family_polyhedral"),
    "Istar": (0, "family_polyhedral"),
}

_NAMES_BY_LOWER = {name.lower(): name for name in ATOMS}


class ExprSyntaxError(ValueError):
    """Malformed group expression; `offset` is the byte position of the error."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class Atom(namedtuple("Atom", "kind params", defaults=((),))):
    """One factor: kind (str), a canonical family name, and params
    (tuple[int, ...]), its integer parameters."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(str(p) for p in self.params)})"
        return self.kind


class GroupExpr(namedtuple("GroupExpr", "atoms")):
    """A product of atoms: atoms (tuple[Atom, ...]), in factor order."""

    __slots__ = ()

    def __str__(self) -> str:
        return expr_to_string(self)


def expr_to_string(expr: GroupExpr) -> str:
    return "x".join(str(atom) for atom in expr.atoms)


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)


def _scan_atom_name(sc: _Scanner) -> str | None:
    """Return the canonical atom name at the cursor, or None if there is none.

    No atom name is a prefix of another and the separator `x` never starts
    one, so taking the first match is unambiguous.
    """
    sc.skip_ws()
    rest = sc.text[sc.pos :].lower()
    for lower, name in _NAMES_BY_LOWER.items():
        if rest.startswith(lower):
            sc.pos += len(lower)
            return name
    return None


def _scan_int(sc: _Scanner) -> int:
    sc.skip_ws()
    start = sc.pos
    if sc.pos < len(sc.text) and sc.text[sc.pos] == "-":
        sc.pos += 1
    # ASCII digits only: str.isdigit also takes "²" and "٣"
    while sc.pos < len(sc.text) and "0" <= sc.text[sc.pos] <= "9":
        sc.pos += 1
    if sc.pos == start or (sc.pos == start + 1 and sc.text[start] == "-"):
        raise ExprSyntaxError("expected an integer", start)
    try:
        return int(sc.text[start : sc.pos])
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise ExprSyntaxError(f"an integer of more than {limit} digits", start) from None


def _scan_params(sc: _Scanner, name: str) -> tuple[int, ...]:
    arity = ATOMS[name][0]
    if arity == 0:
        if sc.peek() == "(":
            raise sc.error(f"{name} takes no parameters")
        return ()
    if sc.peek() != "(":
        raise sc.error(f"expected ( after {name}")
    sc.pos += 1
    params = [_scan_int(sc)]
    while sc.peek() == ",":
        sc.pos += 1
        params.append(_scan_int(sc))
    if sc.peek() != ")":
        raise sc.error("expected , or )")
    sc.pos += 1
    if len(params) != arity:
        raise sc.error(f"{name} takes {arity} parameter(s), got {len(params)}")
    return tuple(params)


def parse_group_expr(text: str) -> GroupExpr:
    """Parse a product-of-atoms group expression."""
    sc = _Scanner(text)
    atoms = []
    while True:
        name = _scan_atom_name(sc)
        if name is None:
            raise sc.error("expected a family name")
        atoms.append(Atom(name, _scan_params(sc, name)))
        if sc.at_end():
            break
        ch = sc.peek()
        if ch in ("x", "X"):
            sc.pos += 1
            continue
        raise sc.error("expected x between factors")
    return GroupExpr(tuple(atoms))
