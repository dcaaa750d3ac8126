"""Command line front end: route dispatch, verification, and table emission.

Usage: thetadim [-h] [-v] {compute,verify,table,classes,chartab} ...
`thetadim -h` lists the commands and `thetadim <command> -h` a command's
options; help goes to standard output and exits 0.  Options take the
`--opt value` and `--opt=value` forms and unique prefixes of their names.

Standard output carries data only; diagnostics go to standard error.  Exit
codes: 0 success, 1 usage or constraint error, 2 cross-check mismatch,
3 resource budget exceeded, 4 internal check failed (an integrality,
alignment or character invariant such as the Brauer or Frobenius-Schur count
did not hold; this is a bug, reported as one line instead of a traceback),
141 standard output closed by its reader (as in `thetadim classes ... | head`;
128 + SIGPIPE, the status a shell reports for a writer ended by a closed pipe).
Each route is bounded by the budget that bounds its memory.
group_core.TABLE_MAX_ENTRIES (10^6, so order 1000) bounds naive burnside and
the orbits and diagrams routes: a multiplication table beyond it, a single
atom's included, exits with code 3 before any product is taken.
conjugacy.CLASS_DATA_MAX_ORDER (10^7) bounds class-mode burnside, the chars
route and `classes`: a larger order exits with code 3 before any class data
is built.  That is the chars route's only budget: it takes the class data
and d2 from characters.d2_char_formula, which sums the real characters in
integers at the class representatives (characters.real_character_sums) and
builds no table.  chartab, which builds the character table, refuses one of
more than characters.CHAR_TABLE_MAX_CELLS (10^7) cells with exit code 3.
--max-order, else THETA_DIM_MAX_ORDER, is an optional order cap on burnside,
orbits and diagrams (none by default) and lifts no budget.
"""

from __future__ import annotations

import functools
import getopt
import importlib
import os
import sys
import time
from types import SimpleNamespace

from .conjugacy import class_data_for, compute_classes, d1_class_formula, z2_orbit_count
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .group_core import (
    FiniteGroup,
    ResourceLimitError,
    atom_group,
    group_from_expr,
    group_order,
    product_rule,
)
from .report import CSV_HEADER, DimensionReport, csv_row, render_text, to_json

__all__ = [
    "EXIT_BROKEN_PIPE",
    "EXIT_INTERNAL",
    "EXIT_MISMATCH",
    "EXIT_OK",
    "EXIT_RESOURCE",
    "EXIT_USAGE",
    "main",
]


def _info(args, message: str) -> None:
    """A progress line on standard error, written only under -v."""
    if args.verbose:
        print(message, file=sys.stderr)


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

METHODS = ("auto", "closed", "chars", "burnside", "orbits", "diagrams")


def _max_order(args) -> int | None:
    """The optional order cap of burnside, orbits and diagrams: --max-order,
    else THETA_DIM_MAX_ORDER, else None for no cap."""
    override = getattr(args, "max_order", None)
    if override is None:
        env = os.environ.get("THETA_DIM_MAX_ORDER")
        if env is not None:
            try:
                override = int(env)
            except ValueError:
                print(f"ignoring non-integer THETA_DIM_MAX_ORDER={env!r}", file=sys.stderr)
    return override


# -- computation routes -------------------------------------------------------
#
# Each route returns (order, classes, d1, d2, dim, z2); _run times it and
# builds the report.  The orbits and diagrams routes leave classes and z2 as
# None for _run to fill from the class data of their table, which verify
# computes once for both.  `max_order` is _max_order's cap, None for none.  A
# route imports the library functions it calls when it runs, so a process
# loads only its route's modules, and a tracer that rebinds a function in its
# defining module sees every call.


def _closed(expr: GroupExpr, max_order):
    from .closed_forms import closed_class_count, closed_dims, closed_order, spec_from_expr

    spec = spec_from_expr(expr)
    # closed_dims has checked dim - ker against the closed inversion-orbit count
    dim, ker = closed_dims(spec)
    return closed_order(spec), closed_class_count(spec), None, None, dim, dim - ker


def _chars(expr: GroupExpr, max_order):
    from .characters import d2_char_formula

    cd, d2 = d2_char_formula(expr)
    d1 = d1_class_formula(cd)
    dim, rem = divmod(d1 + d2, 2)
    if rem:
        raise AssertionError(f"(d1+d2)/2 is not an integer for {expr_to_string(expr)}")
    return cd.order, cd.num_classes, d1, d2, dim, z2_orbit_count(cd)


def _burnside(group: FiniteGroup | GroupExpr, max_order):
    from .burnside import burnside_dims

    r = burnside_dims(group, mode="auto", max_order=max_order)
    return r.order, r.num_classes, r.d1, r.d2, r.dim_full, r.dim_full - r.dim_ker


def _enumerated(group: FiniteGroup, dim: int):
    return group.order, None, None, None, dim, None


def _orbits(group: FiniteGroup | GroupExpr, max_order):
    from .burnside import orbit_count_dims

    return _enumerated(group, orbit_count_dims(group, max_order=max_order))


def _diagrams(group: FiniteGroup | GroupExpr, max_order):
    from .diagrams import dim_A2

    return _enumerated(group, dim_A2(group, max_order=max_order))


_ROUTES = {
    "closed": _closed,
    "chars": _chars,
    "burnside": _burnside,
    "orbits": _orbits,
    "diagrams": _diagrams,
}
# the module each route imports when it runs
_ROUTE_MODULES = {
    "closed": "closed_forms",
    "chars": "characters",
    "burnside": "burnside",
    "orbits": "burnside",
    "diagrams": "diagrams",
}


def _load_route(name: str) -> None:
    """Import route `name`'s module, so that loading it is not timed as its work."""
    importlib.import_module(f".{_ROUTE_MODULES[name]}", __package__)


def _table_within(expr: GroupExpr, max_order: int | None) -> FiniteGroup | GroupExpr:
    """The table group of `expr`, or `expr` itself when its order exceeds
    `max_order` or its table would exceed the entries budget.  The routes refuse
    the bare expression themselves; burnside reduces it by classes.
    """
    if max_order is not None and group_order(expr) > max_order:
        return expr
    try:
        return group_from_expr(expr)
    except ResourceLimitError:
        return expr


def _run(name: str, expr: GroupExpr, max_order, group=None, classes_of=None) -> DimensionReport:
    """Route `name` as a timed report; closed and chars see only `expr`, the others
    `group`, the `_table_within` result verify shares, or else their own.
    `classes_of(table)` gives the class data an enumeration route's report needs;
    verify passes a memo of `compute_classes` so its table's classes are found once.
    Class data never feeds an enumerated dimension.  The clock starts once the
    route's module is loaded."""
    _load_route(name)
    t0 = time.perf_counter()
    if name in ("closed", "chars"):
        group = expr
    elif group is None:
        group = expr if name == "burnside" else _table_within(expr, max_order)
    order, classes, d1, d2, dim, z2 = _ROUTES[name](group, max_order)
    if classes is None:
        cd = (classes_of or compute_classes)(group)
        classes, z2 = cd.num_classes, z2_orbit_count(cd)
    return DimensionReport(
        group=expr_to_string(expr),
        order=order,
        num_classes=classes,
        d1=d1,
        d2=d2,
        dim_cpi=dim,
        dim_ker_eps=dim - z2,
        dim_classhat_z2=z2,
        method=name,
        millis=(time.perf_counter() - t0) * 1000,
    )


# -- subcommands --------------------------------------------------------------


def _emit(report: DimensionReport, args) -> None:
    if args.json:
        print(to_json(report))
    elif args.csv:
        # keep the CSV free of quoting: parameter commas become semicolons
        param = report.group.replace(",", ";")
        print(CSV_HEADER)
        print(csv_row(param, report))
    else:
        print(render_text(report))


def _cmd_compute(args) -> int:
    expr = parse_group_expr(args.expr)
    max_order = _max_order(args)
    _info(args, f"computing {expr_to_string(expr)} (method {args.method})")
    if args.method == "auto":
        from .closed_forms import SphericalMatchError

        try:
            report = _run("closed", expr, max_order)
        except SphericalMatchError as exc:
            _info(args, f"closed form not applicable ({exc}); falling back to burnside")
            report = _run("burnside", expr, max_order)
    else:
        report = _run(args.method, expr, max_order)
    _emit(report, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .closed_forms import SphericalMatchError

    expr = parse_group_expr(args.expr)
    max_order = _max_order(args)
    for name in _ROUTES:
        _load_route(name)
    group = _table_within(expr, max_order)
    classes_of = functools.lru_cache(maxsize=1)(compute_classes)
    lines = [f"group {expr_to_string(expr)}"]
    computed: list[DimensionReport] = []
    for name in _ROUTES:
        _info(args, f"running {name} on {expr_to_string(expr)}")
        try:
            rep = _run(name, expr, max_order, group, classes_of)
        except (SphericalMatchError, ResourceLimitError) as exc:
            lines.append(f"  {name:<9} skipped: {exc}")
            continue
        computed.append(rep)
        lines.append(
            f"  {name:<9} dim {rep.dim_cpi:>8}  ker {rep.dim_ker_eps:>8}  {rep.millis:9.1f} ms"
        )
    print("\n".join(lines))
    if not computed:
        print("no method ran within the configured budgets", file=sys.stderr)
        return EXIT_RESOURCE
    values = {(rep.dim_cpi, rep.dim_ker_eps) for rep in computed}
    if len(values) == 1:
        dim, ker = values.pop()
        print(f"agree: dim {dim}, kernel {ker} ({len(computed)} methods)")
        return EXIT_OK
    print("MISMATCH:")
    for rep in computed:
        print(f"  {rep.method}: dim {rep.dim_cpi}, kernel {rep.dim_ker_eps}")
    return EXIT_MISMATCH


def _table_rows(args):
    if args.family == "d4p":
        return [(p, f"Dstar({p})") for p in range(1, args.max_p + 1)]
    if args.family == "t8_3k":
        return [(k, f"Tprime({k})") for k in range(1, args.max_k + 1)]
    return [(n, f"Z({n})") for n in range(1, args.max_n + 1)]


def _cmd_table(args) -> int:
    max_order = _max_order(args)
    lines = [CSV_HEADER]
    for param, expr_text in _table_rows(args):
        expr = parse_group_expr(expr_text)
        closed = _run("closed", expr, max_order)
        dims = (closed.dim_cpi, closed.dim_ker_eps)
        try:
            check = _run("burnside", expr, max_order)
        except ResourceLimitError:
            method = "closed"
        else:
            got = (check.dim_cpi, check.dim_ker_eps)
            if got != dims:
                print(f"mismatch at {expr_text}: closed {dims} vs burnside {got}", file=sys.stderr)
                return EXIT_MISMATCH
            method = "closed+burnside"
        lines.append(f"{param},{dims[0]},{dims[1]},{method}")
    print("\n".join(lines))
    return EXIT_OK


def _class_label(expr: GroupExpr):
    """The printed name of an element, read from the product rule of the
    expression's atoms, which names a product's elements "(l1,l2)"."""
    return functools.reduce(product_rule, map(atom_group, expr.atoms)).label


def _cmd_classes(args) -> int:
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


def _cmd_chartab(args) -> int:
    from .characters import table_for

    expr = parse_group_expr(args.expr)
    table = table_for(expr)
    cd = table.class_data
    labels = list(map(_class_label(expr), cd.representatives))
    sizes = [str(cd.sizes[c]) for c in range(cd.num_classes)]
    cells = [[str(v) for v in row] for row in table.values]
    if args.csv:
        print("name," + ",".join(labels))
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


# -- parser -------------------------------------------------------------------
#
# Each option is (dest, kind, default, help), where kind is int, a tuple of
# choices, or None for an on/off flag.  Each command is (handler, help,
# (positional, its choices or None), {long option: option}).

_PROG = "thetadim"
_DESCRIPTION = (
    "Exact dimension computations for group algebras of spherical space-form\n"
    "groups, by closed forms, characters, fixed-point counting, and orbit\n"
    "enumeration."
)
_MAX_ORDER = ("max_order", int, None, "order cap of the burnside, orbits and diagrams routes")
_COMMANDS = {
    "compute": (
        _cmd_compute,
        "compute both dimensions for an expression",
        ("expr", None),
        {
            "method": ("method", METHODS, "auto", "the route"),
            "json": ("json", None, False, "print one JSON object"),
            "csv": ("csv", None, False, "print a CSV header and row"),
            "max-order": _MAX_ORDER,
        },
    ),
    "verify": (
        _cmd_verify,
        "run every applicable method and compare",
        ("expr", None),
        {"max-order": _MAX_ORDER},
    ),
    "table": (
        _cmd_table,
        "emit a parameter sweep as CSV",
        ("family", ("d4p", "t8_3k", "zn")),
        {
            "max-p": ("max_p", int, 15, "largest p of the d4p sweep"),
            "max-k": ("max_k", int, 9, "largest k of the t8_3k sweep"),
            "max-n": ("max_n", int, 60, "largest n of the zn sweep"),
            "max-order": _MAX_ORDER,
        },
    ),
    "classes": (_cmd_classes, "dump conjugacy class data", ("expr", None), {}),
    "chartab": (
        _cmd_chartab,
        "print the character table",
        ("expr", None),
        {"csv": ("csv", None, False, "print the table as CSV")},
    ),
}
# options that may not be given together, in a command that has both
_EXCLUSIVE = ("json", "csv")


class _UsageError(Exception):
    """A refused command line; `command` selects the usage line printed with it."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _metavar(dest: str, kind) -> str:
    return "N" if kind is int else dest.upper()


def _usage(command: str | None) -> str:
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


def _help(command: str | None) -> str:
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
    lines = [_usage(command), "", head]
    for title, rows in sections.items():
        lines += ["", f"{title}:"] + [f"  {flag:<{width}}{text}" for flag, text in rows]
    if command is None:
        lines += ["", f"Run `{_PROG} <command> -h` for the options of a command."]
    return "\n".join(lines)


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The parsed command line, or None once help has been printed.

    Options before the command are -h and -v; the command's own options may
    come before or after its one positional argument.  Any other command line
    raises _UsageError.
    """
    try:
        opts, rest = getopt.getopt(argv, "hv", ["help", "verbose"])
    except getopt.GetoptError as exc:
        raise _UsageError(str(exc)) from None
    if any(opt in ("-h", "--help") for opt, _ in opts):
        print(_help(None))
        return None
    if argv[: len(argv) - len(rest)][-1:] == ["--"]:
        rest = ["--", *rest]  # "--" ends the options but is no command
    if not rest:
        raise _UsageError("a command is required")
    command, *rest = rest
    if command not in _COMMANDS:
        raise _UsageError(f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    _, _, (positional, choices), options = _COMMANDS[command]
    longopts = ["help"] + [name if spec[1] is None else f"{name}=" for name, spec in options.items()]
    try:
        sub_opts, positionals = getopt.gnu_getopt(rest, "h", longopts)
    except getopt.GetoptError as exc:
        raise _UsageError(str(exc), command) from None
    if any(opt in ("-h", "--help") for opt, _ in sub_opts):
        print(_help(command))
        return None

    values = {"verbose": len(opts), "command": command}
    values.update((dest, default) for dest, _, default, _ in options.values())
    for opt, arg in sub_opts:
        dest, kind, _, _ = options[opt[2:]]
        if kind is None:
            arg = True
        elif kind is int:
            try:
                arg = int(arg)
            except ValueError:
                raise _UsageError(f"{opt}: invalid int value {arg!r}", command) from None
        elif arg not in kind:
            raise _UsageError(f"{opt}: invalid choice {arg!r} (choose from {', '.join(kind)})", command)
        values[dest] = arg
    if all(values.get(name) for name in _EXCLUSIVE):
        raise _UsageError(" and ".join(f"--{n}" for n in _EXCLUSIVE) + " exclude each other", command)
    if not positionals:
        raise _UsageError(f"the argument {positional} is required", command)
    if len(positionals) > 1:
        raise _UsageError(f"unrecognized arguments: {' '.join(positionals[1:])}", command)
    if choices is not None and positionals[0] not in choices:
        raise _UsageError(
            f"invalid {positional} {positionals[0]!r} (choose from {', '.join(choices)})", command
        )
    values[positional] = positionals[0]
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK if args is None else _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except _UsageError as exc:
        prog = _PROG if exc.command is None else f"{_PROG} {exc.command}"
        print(_usage(exc.command), file=sys.stderr)
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed standard output: send what is still buffered to
        # devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
