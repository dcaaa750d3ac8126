"""The command line's other paths: `table`, `classes`, `chartab`, help and usage.

`cli` parses every command line and runs `compute` and `verify` itself.  It
loads this module only to run one of the three commands below, named in its
dispatch table, to print help, or to refuse a command line with a usage
line, so a `compute` or `verify` process compiles none of it.  Each command
is the function of its name here, called with the parsed arguments, and
returns the exit code.
"""

from __future__ import annotations

import sys
from functools import reduce

from .cli import (
    _COMMANDS,
    _EXCLUSIVE,
    _PROG,
    _SWEEPS,
    EXIT_MISMATCH,
    EXIT_OK,
    _run,
)
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, atom_group, product_rule
from .report import CSV_HEADER, csv_row

_DESCRIPTION = (
    "Exact dimension computations for group algebras of spherical space-form\n"
    "groups, by closed forms, characters, fixed-point counting, and orbit\n"
    "enumeration."
)


# -- commands -----------------------------------------------------------------


# table's budgets, read off its arguments before the first row.  On a 2-CPU
# machine (Python 3.11) a row costs about 20 us for its closed form, and its
# class-mode burnside check 1.8-2.5 us per element of its group (d4p to
# t8_3k).  So 10^5 rows take about 2 s, and checks whose orders sum to
# 5*10^6 at most 12.5 s: the largest accepted sweep of each family ends
# within 30 s (measured: zn --max-n 100000 in 9 s, d4p --max-p 100000 in
# 10 s, and t8_3k, whose rows the digit limit bounds, 5 s at --max-k 4500).
TABLE_MAX_ROWS = 100_000
TABLE_MAX_CHECKED_ORDER = 5_000_000


def table(args) -> int:
    x, _, template = _SWEEPS[args.family]
    params = range(1, getattr(args, f"max_{x}") + 1)
    if params:
        # every family's answer grows with its parameter: if the last one is
        # short enough to print, so is every earlier one, and a sweep that
        # cannot finish is refused before its first row
        _run("closed", parse_group_expr(template.format(params[-1])))
        if params[-1] > TABLE_MAX_ROWS:
            raise ResourceLimitError(
                f"a sweep of {params[-1]} rows exceeds the row budget {TABLE_MAX_ROWS}"
            )
    # each row is written once computed, so a mismatch follows the rows before
    # it; from the row at which the orders so far sum past their budget, every
    # row is its closed form alone
    print(CSV_HEADER)
    checked = 0
    for param in params:
        expr_text = template.format(param)
        expr = parse_group_expr(expr_text)
        closed = _run("closed", expr)
        dims = (closed.dim_cpi, closed.dim_ker_eps)
        checked += closed.order
        check = None
        if checked <= TABLE_MAX_CHECKED_ORDER:
            try:
                check = _run("burnside", expr, args.max_order)
            except ResourceLimitError:
                pass  # past the class-data budget or --max-order
        if check is None:
            method = "closed"
        elif (got := (check.dim_cpi, check.dim_ker_eps)) != dims:
            print(f"mismatch at {expr_text}: closed {dims} vs burnside {got}", file=sys.stderr)
            return EXIT_MISMATCH
        else:
            method = "closed+burnside"
        print(csv_row(param, closed._replace(method=method)))
    return EXIT_OK


def _class_label(expr: GroupExpr):
    """The printed name of an element, read from the product rule of the
    expression's atoms, which names a product's elements "(l1,l2)"."""
    return reduce(product_rule, map(atom_group, expr.atoms)).label


def classes(args) -> int:
    from .conjugacy import class_data_for

    expr = parse_group_expr(args.expr)
    cd = class_data_for(expr)
    print(
        f"group {expr_to_string(expr)}  order {cd.order}"
        f"  classes {cd.num_classes}"
    )
    # a cyclic group has a class per element, so the labels are made twice,
    # for the width and for the rows, rather than held in a list
    label, reps = _class_label(expr), cd.representatives
    width = max(len("representative"), max(len(label(r)) for r in reps))
    print(f"{'idx':>4} {'size':>5}  {'representative':<{width}}  square  cube  inverse")
    for c in range(cd.num_classes):
        print(
            f"{c:>4} {cd.sizes[c]:>5}  {label(reps[c]):<{width}}"
            f"  {cd.square_class[c]:>6}  {cd.cube_class[c]:>4}  {cd.inverse_class[c]:>7}"
        )
    return EXIT_OK


def chartab(args) -> int:
    from .characters import table_for

    expr = parse_group_expr(args.expr)
    table = table_for(expr)
    cd = table.class_data
    labels = list(map(_class_label(expr), cd.representatives))
    sizes = [str(cd.sizes[c]) for c in range(cd.num_classes)]
    # values are shared objects (`_product_table`), so each is written once, keyed by id
    texts = {id(v): str(v) for v in {id(v): v for row in table.values for v in row}.values()}
    cells = [[texts[id(v)] for v in row] for row in table.values]
    if args.csv:
        # keep the CSV free of quoting: a product's label commas become semicolons
        print("name," + ",".join(label.replace(",", ";") for label in labels))
        print("size," + ",".join(sizes))
        for name, row in zip(table.row_names, cells):
            print(name + "," + ",".join(row))
        return EXIT_OK
    name_w = max(len(n) for n in table.row_names + ["size", table.group_name])
    col_w = [
        max([len(labels[c]), len(sizes[c])] + [len(r[c]) for r in cells])
        for c in range(cd.num_classes)
    ]

    def fmt(head, entries):
        return (
            f"{head:<{name_w}}  "
            + "  ".join(f"{e:>{col_w[c]}}" for c, e in enumerate(entries))
        )
    print(fmt(table.group_name, labels))
    print(fmt("size", sizes))
    for name, row in zip(table.row_names, cells):
        print(fmt(name, row))
    return EXIT_OK


# -- help and usage -----------------------------------------------------------


def _metavar(dest: str, kind) -> str:
    return "N" if kind is int else dest.upper()


def usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] [-v] {{{','.join(_COMMANDS)}}} ..."
    _, _, (positional, choices), options = _COMMANDS[command]
    parts = [f"usage: {_PROG} {command} [-h]"]
    grouped = set(_EXCLUSIVE) <= set(options)
    for name, (dest, kind, _, _) in options.items():
        if grouped and name in _EXCLUSIVE:
            if name == _EXCLUSIVE[0]:
                parts.append("[" + " | ".join(f"--{n}" for n in _EXCLUSIVE) + "]")
        else:
            parts.append(f"[--{name}]" if kind is None else f"[--{name} {_metavar(dest, kind)}]")
    parts.append(positional if choices is None else "{" + ",".join(choices) + "}")
    return " ".join(parts)


def help_text(command: str | None) -> str:
    helps = [("-h, --help", "show this help and exit")]
    if command is None:
        head = _DESCRIPTION
        helps.append(("-v, --verbose", "log progress to stderr"))
        sections = {"commands": [(name, spec[1]) for name, spec in _COMMANDS.items()]}
    else:
        _, head, (positional, choices), options = _COMMANDS[command]
        if choices is None:
            what = 'a group expression, e.g. "Z(5) x Dstar(4)" or "Istar"'
        else:
            what = "one of " + ", ".join(choices)
        sections = {"arguments": [(positional, what)]}
        for name, (dest, kind, default, text) in options.items():
            if kind is not None:
                name = f"{name} {_metavar(dest, kind)}"
            if kind not in (None, int):
                text = f"{text}; one of {', '.join(kind)}"
            if default not in (None, False):
                text = f"{text} (default {default})"
            helps.append((f"--{name}", text))
    sections["options"] = helps
    width = 2 + max(len(flag) for rows in sections.values() for flag, _ in rows)
    lines = [usage(command), "", head]
    for title, rows in sections.items():
        lines += ["", f"{title}:"] + [f"  {flag:<{width}}{text}" for flag, text in rows]
    if command is None:
        lines += ["", f"Run `{_PROG} <command> -h` for the options of a command."]
    return "\n".join(lines)
