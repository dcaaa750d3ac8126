"""Command line front end: parsing, route dispatch, compute and verify.

Usage: thetadim [-h] [-v] {compute,verify,table,classes,chartab} ...
`thetadim -h` lists the commands and `thetadim <command> -h` a command's
options; help goes to standard output and exits 0.  Long options take the
`--opt value` and `--opt=value` forms and unique prefixes of their names;
the flags -h and -v may be bundled (`-vh`).  A command's options may come
before or after its argument, and `--` ends the options.

Module layout: this module parses every command line (`_scan`,
`_parse_args`) and runs `compute` and `verify`.  Each route lives in the
module that `_ROUTE_MODULES` names and is imported when it runs.  `table`,
`classes` and `chartab`, and the help and usage text, live in `commands`,
which the dispatch table `_COMMANDS` names; it is loaded only for those
commands, -h and a usage error.  `conjugacy` is imported by the routes that
read class data, when they run, and each atom family's module by the first
layer that meets the atom (`normal_form.family`).  So a process compiles the
code of its own command, route and families alone: the closed form loads no
class code, and a class-level route (class-mode burnside, chars, `classes`,
and `chartab` on normal-form atoms) never loads the table layer
`group_core`.

Standard output carries data only; diagnostics go to standard error.  Exit
codes: 0 success, 1 usage or constraint error, 2 cross-check mismatch,
3 resource budget exceeded, 4 internal check failed (an integrality,
alignment or character invariant such as the Brauer or Frobenius-Schur count
did not hold; this is a bug, reported as one line instead of a traceback),
141 standard output closed by its reader (as in `thetadim classes ... | head`;
128 + SIGPIPE, the status a shell reports for a writer ended by a closed pipe).
Each route is bounded by the budget that bounds its memory.
group_core.TABLE_MAX_ENTRIES (10^6, so order 1000) bounds the orbits and
diagrams routes and verify's shared table, on which burnside counts pairs: a
multiplication table beyond it, a single atom's included, exits with code 3
before any product is taken.  conjugacy.CLASS_DATA_MAX_ORDER (10^7) bounds
class-mode burnside (on an expression, which `compute` always passes, and
verify's past the table budget), the chars route and `classes`: a larger
order exits with code 3 before any class data is built.  That is the chars
route's only budget: it takes the class data and d2 from
characters.d2_char_formula, which sums the real characters in integers at
the class representatives (characters.real_character_sums) and builds no
table.  chartab, which builds the character table, refuses one of more than
characters.CHAR_TABLE_MAX_CELLS (10^7) cells with exit code 3.
--max-order, else THETA_DIM_MAX_ORDER, is an optional order cap on burnside,
orbits and diagrams (none by default) and lifts no budget.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .expr import GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, family, group_order
from .report import CSV_HEADER, DimensionReport, csv_row, render_text, to_json

if TYPE_CHECKING:
    from .group_core import FiniteGroup

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
# Each route takes (group, max_order) and returns (order, classes, d1, d2,
# dim, z2); _run times it and builds the report.  `max_order` is _max_order's
# cap, None for none.  Burnside counts a table pair by pair and reduces an
# expression by classes.  The orbits and diagrams routes leave classes and z2
# as None for _run to fill from the class data of their table, which verify
# computes once for both.  A route imports the library functions it calls when
# it runs, so a process loads only its route's modules, and a tracer that
# rebinds a function in its defining module sees every call.


def _closed(expr: GroupExpr, max_order):
    from .closed_forms import closed_class_count, closed_dims, closed_order, spec_from_expr

    spec = spec_from_expr(expr)
    # closed_dims has checked dim - ker against the closed inversion-orbit count
    dim, ker = closed_dims(spec)
    return closed_order(spec), closed_class_count(spec), None, None, dim, dim - ker


def _chars(expr: GroupExpr, max_order):
    from .characters import d2_char_formula
    from .conjugacy import d1_class_formula, z2_orbit_count

    cd, d2 = d2_char_formula(expr)
    d1 = d1_class_formula(cd)
    dim, rem = divmod(d1 + d2, 2)
    if rem:
        raise AssertionError(f"(d1+d2)/2 is not an integer for {expr_to_string(expr)}")
    return cd.order, cd.num_classes, d1, d2, dim, z2_orbit_count(cd)


def _burnside(group: FiniteGroup | GroupExpr, max_order):
    from .burnside import burnside_dims

    r = burnside_dims(group, max_order)
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


def _load(name: str):
    """thetadim's submodule `name`, imported on first use.  The import goes
    through `__import__`, as an import statement's does, so that
    `python -X importtime` lists it."""
    module = f"{__package__}.{name}"
    __import__(module)
    return sys.modules[module]


def _load_families(expr: GroupExpr) -> None:
    """Import the family module of each atom of `expr`, which every route but
    the closed form reads, so that its loading is not timed as a route's work."""
    for atom in expr.atoms:
        family(atom.kind)


def _table_within(expr: GroupExpr, max_order: int | None) -> FiniteGroup | GroupExpr:
    """The table group of `expr`, or `expr` itself when its order exceeds
    `max_order` or its table would exceed the entries budget.  The routes refuse
    the bare expression themselves; burnside reduces it by classes.
    """
    if max_order is not None and group_order(expr) > max_order:
        return expr
    from .group_core import group_from_expr

    try:
        return group_from_expr(expr)
    except ResourceLimitError:
        return expr


def _run(name: str, expr: GroupExpr, max_order, group=None, classes_of=None) -> DimensionReport:
    """Route `name` as a timed report; closed and chars see only `expr`, the others
    `group`, the `_table_within` result verify shares, or else their own.
    `classes_of(table)` gives the class count and z2 that an enumeration
    route's report needs; verify passes a memo of `compute_classes` so that
    orbits and diagrams find its table's classes once.  Class data never feeds
    an enumerated dimension.  The clock starts once the modules the route runs
    are loaded: its own, and for every route but the closed form `conjugacy`
    and the expression's families."""
    _load(_ROUTE_MODULES[name])  # loading the route is not timed as its work
    if name != "closed":
        conjugacy = _load("conjugacy")
        _load_families(expr)
    t0 = time.perf_counter()
    if name in ("closed", "chars"):
        group = expr
    elif group is None:
        group = expr if name == "burnside" else _table_within(expr, max_order)
    order, classes, d1, d2, dim, z2 = _ROUTES[name](group, max_order)
    if classes is None:
        cd = (classes_of or conjugacy.compute_classes)(group)
        classes, z2 = cd.num_classes, conjugacy.z2_orbit_count(cd)
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
    from .conjugacy import compute_classes

    expr = parse_group_expr(args.expr)
    max_order = _max_order(args)
    for name in _ROUTES:
        _load(_ROUTE_MODULES[name])
    _load_families(expr)
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


# -- parser -------------------------------------------------------------------
#
# Each option is (dest, kind, default, help), where kind is int, a tuple of
# choices, or None for an on/off flag.  Each command is (handler, help,
# (positional, its choices or None), {long option: option}); a handler named
# by a string is the function of the command's name in that module.

_PROG = "thetadim"
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
        "commands",
        "emit a parameter sweep as CSV",
        ("family", ("d4p", "t8_3k", "zn")),
        {
            "max-p": ("max_p", int, 15, "largest p of the d4p sweep"),
            "max-k": ("max_k", int, 9, "largest k of the t8_3k sweep"),
            "max-n": ("max_n", int, 60, "largest n of the zn sweep"),
            "max-order": _MAX_ORDER,
        },
    ),
    "classes": ("commands", "dump conjugacy class data", ("expr", None), {}),
    "chartab": (
        "commands",
        "print the character table",
        ("expr", None),
        {"csv": ("csv", None, False, "print the table as CSV")},
    ),
}
# options that may not be given together, in a command that has both
_EXCLUSIVE = ("json", "csv")


def _handler(command: str):
    """The function that runs `command`, loading the module that defines it."""
    handler = _COMMANDS[command][0]
    return getattr(_load(handler), command) if isinstance(handler, str) else handler


class _UsageError(Exception):
    """A refused command line; `command` selects the usage line printed with it."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _scan(args: list[str], flags: dict[str, str], longs: dict[str, bool], command=None):
    """([(long name, value)], positional arguments) of `args`, by the rules
    and messages of the standard `getopt` module.

    `longs` maps each long option to whether it takes a value, given as
    `--opt=value` or as the next argument, and an option may be named by a
    unique prefix; `flags` maps each one-letter flag to its long option, and
    flags may be bundled.  `--` ends the options.  Without a `command`, the
    first argument that is no option ends them too, as a lone `-` or `--`
    does, and is kept (getopt); with one, options and positional arguments
    mix (gnu_getopt) and `-` is positional.  A refused option raises
    _UsageError for `command`.
    """
    opts, positionals = [], []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg in ("-", "--") or not arg.startswith("-"):
            if command is None:
                return opts, args[i - 1 :]
            if arg == "--":
                return opts, positionals + args[i:]
            positionals.append(arg)
        elif arg.startswith("--"):
            given, eq, value = arg[2:].partition("=")
            names = [given] if given in longs else [n for n in longs if n.startswith(given)]
            if len(names) != 1:
                problem = "not a unique prefix" if names else "not recognized"
                raise _UsageError(f"option --{given} {problem}", command)
            name = names[0]
            if longs[name] and not eq:
                if i == len(args):
                    raise _UsageError(f"option --{name} requires argument", command)
                value = args[i]
                i += 1
            elif eq and not longs[name]:
                raise _UsageError(f"option --{name} must not have an argument", command)
            opts.append((name, value))
        else:
            for letter in arg[1:]:
                if letter not in flags:
                    raise _UsageError(f"option -{letter} not recognized", command)
                opts.append((flags[letter], ""))
    return opts, positionals


def _print_help(command: str | None) -> None:
    print(_load("commands").help_text(command))


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The parsed command line, or None once help has been printed.

    Options before the command are -h and -v; the command's own options may
    come before or after its one positional argument.  Any other command line
    raises _UsageError.
    """
    opts, rest = _scan(argv, {"h": "help", "v": "verbose"}, {"help": False, "verbose": False})
    if any(name == "help" for name, _ in opts):
        _print_help(None)
        return None
    if not rest:
        raise _UsageError("a command is required")
    command, *rest = rest
    if command not in _COMMANDS:
        raise _UsageError(f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    _, _, (positional, choices), options = _COMMANDS[command]
    longs = {"help": False} | {name: spec[1] is not None for name, spec in options.items()}
    sub_opts, positionals = _scan(rest, {"h": "help"}, longs, command)
    if any(name == "help" for name, _ in sub_opts):
        _print_help(command)
        return None

    values = {"verbose": len(opts), "command": command}
    values.update((dest, default) for dest, _, default, _ in options.values())
    for name, arg in sub_opts:
        dest, kind, _, _ = options[name]
        if kind is None:
            arg = True
        elif kind is int:
            try:
                arg = int(arg)
            except ValueError:
                raise _UsageError(f"--{name}: invalid int value {arg!r}", command) from None
        elif arg not in kind:
            choose = ", ".join(kind)
            raise _UsageError(f"--{name}: invalid choice {arg!r} (choose from {choose})", command)
        values[dest] = arg
    if all(values.get(name) for name in _EXCLUSIVE):
        both = " and ".join(f"--{n}" for n in _EXCLUSIVE)
        raise _UsageError(f"{both} exclude each other", command)
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
        code = EXIT_OK if args is None else _handler(args.command)(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except _UsageError as exc:
        prog = _PROG if exc.command is None else f"{_PROG} {exc.command}"
        print(_load("commands").usage(exc.command), file=sys.stderr)
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
