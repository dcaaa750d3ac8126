"""Command line front end: parsing, route dispatch, compute and verify.

Usage: thetadim [-h] [-v] {compute,verify,table,classes,chartab} ...
`thetadim -h` lists the commands and `thetadim <command> -h` a command's
options; help goes to standard output and exits 0.  Long options take the
`--opt value` and `--opt=value` forms and unique prefixes of their names;
the flags -h and -v may be bundled (`-vh`).  A command's options may come
before or after its argument, and `--` ends the options.

Module layout: this module parses every command line (`_scan`,
`_parse_args`) and runs `compute` and `verify`.  Each route lives in the
module that its row of `_ROUTES` names and is imported when it runs.  `table`,
`classes` and `chartab`, and the help and usage text, live in `commands`,
which the dispatch table `_COMMANDS` names; it is loaded only for those
commands, -h and a usage error.  `_SWEEPS` holds `table`'s families, for the
parser and for `commands.table`.  `verify` builds its one multiplication
table and that table's class data before any route runs, and hands both to
each route by value; under -v it logs their build time, or their refusal.
`conjugacy` is imported by the routes that read class data, when they run,
and each atom family's module by the first layer that meets the atom
(`normal_form.family`).  So a process compiles the code of its own command,
route and families alone: the closed form loads no class code, and a
class-level route (class-mode burnside, chars, `classes` and `chartab`)
builds no table; it loads the table layer `group_core` only for a binary
polyhedral atom, whose rule that layer keeps.

Entries: `run` is the process entry, which the `thetadim` command and
`python -m thetadim` call; `main(argv)` is the in-process one, for tests and
library callers, and returns the exit code.  `run` is `main` on the
process's arguments followed by `gc.freeze()`, which moves every object the
process made into the collector's permanent generation, so that the
interpreter's collections at exit do not walk the cycles of every loaded
module, function and class (about 3 ms a call).  The process still ends by
`sys.exit`: atexit handlers and the flush of the standard streams run, and
the exit codes are those below.

Standard output carries data only; diagnostics go to standard error.  Exit
codes: 0 success, 1 usage or constraint error, 2 cross-check mismatch,
3 resource budget exceeded, or memory ran out (a `MemoryError` anywhere ends
in the one line `resource limit: out of memory`), 4 internal check failed
(an integrality, alignment or character invariant such as the Brauer or
Frobenius-Schur count did not hold; this is a bug, reported as one line
instead of a traceback),
141 standard output closed by its reader (as in `thetadim classes ... | head`;
128 + SIGPIPE, the status a shell reports for a writer ended by a closed pipe).
Each route is bounded by the budget that bounds its memory.
group_core.TABLE_MAX_ENTRIES (10^6, so order 1000) bounds the orbits and
diagrams routes and verify's shared table, on which burnside counts pairs: a
multiplication table beyond it, a single atom's included, exits with code 3
before any product is taken.  conjugacy.CLASS_DATA_MAX_ORDER (10^7) bounds
the whole order on `classes` and each atom's order on the class-level routes,
class-mode burnside (on an expression, which `compute` always passes, and
verify's past the table budget) and chars: past it, exit code 3 comes before
any class data is built.  Those routes multiply their atoms' moment vectors
(conjugacy.moments, conjugacy.moment_dims) and compose no product's classes,
so a product costs the sum of its atoms.  They refuse with exit code 3 an
order of 12 * 10^L or more, whose answer is past the L digits `str` writes,
before any class data is built, and `_run` any report with a number past
them.  The chars route's first twisted trace is the sum of the real
characters, in integers at the class representatives
(characters.real_character_sums); it builds no table.  chartab, which builds
the character table, refuses one of more than
characters.CHAR_TABLE_MAX_CELLS (10^7) cells with exit code 3.  `table`
refuses a sweep of more than commands.TABLE_MAX_ROWS (10^5) rows with exit
code 3 before its header, and prints a row by its closed form alone once the
orders of its burnside checks would sum past commands.TABLE_MAX_CHECKED_ORDER
(5*10^6).  The closed form refuses, with exit code 3, an answer of more
digits than `str` writes (sys.get_int_max_str_digits, 4300 by default and
where the interpreter sets no limit).  This module alone turns an expression
into a table, and alone checks --max-order, an optional order cap on
burnside, orbits and diagrams (none by default) that lifts no budget: `_run`
refuses a larger order with exit code 3 before anything is built.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace

from .expr import GroupExpr, expr_to_string, parse_group_expr
from .normal_form import ResourceLimitError, check_printable, family, group_order, int_text, load
from .report import CSV_HEADER, DimensionReport, csv_row, render_text, to_json

TYPE_CHECKING = False
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
    "run",
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

# -- computation routes -------------------------------------------------------
#
# Each route takes one group and returns (order, classes, d1, d2, dim, z2);
# _run times it and builds the report.  Closed and chars take the expression,
# orbits and diagrams its table, and burnside either: it counts a table pair
# by pair and reduces an expression by classes.  The orbits and diagrams
# routes leave classes and z2 as None for _run to fill from the class data of
# their table, which verify computes once for both.  A route imports the
# library functions it calls when it runs, so a process loads only its
# route's modules, and a tracer that rebinds a function in its defining
# module sees every call.


def _closed(expr: GroupExpr):
    from .closed_forms import closed_class_count, closed_dims, closed_order, spec_from_expr

    spec = spec_from_expr(expr)
    # every case's answer is at least order^2 / 584, so past order 584 an order
    # too long to print bounds the answer, before any polynomial is evaluated
    dim = order = closed_order(spec)
    if int_text(order).isdigit():
        # closed_dims has checked dim - ker against the closed inversion-orbit count
        dim, ker = closed_dims(spec)
    check_printable(dim)  # or the order, a bound past the digits str writes
    return order, closed_class_count(spec), None, None, dim, dim - ker


def _chars(expr: GroupExpr):
    from .characters import d2_char_formula

    order, num_classes, d1, d2, dim, _, z2 = d2_char_formula(expr)
    return order, num_classes, d1, d2, dim, z2


def _burnside(group: FiniteGroup | GroupExpr):
    from .burnside import burnside_dims

    r = burnside_dims(group)
    return r.order, r.num_classes, r.d1, r.d2, r.dim_full, r.dim_full - r.dim_ker


def _orbits(group: FiniteGroup):
    from .burnside import orbit_count_dims

    return group.order, None, None, None, orbit_count_dims(group), None


def _diagrams(group: FiniteGroup):
    from .diagrams import dim_A2

    return group.order, None, None, None, dim_A2(group), None


# each route: the module it imports when it runs, and its function
_ROUTES = {
    "closed": ("closed_forms", _closed),
    "chars": ("characters", _chars),
    "burnside": ("burnside", _burnside),
    "orbits": ("burnside", _orbits),
    "diagrams": ("diagrams", _diagrams),
}
METHODS = ("auto", *_ROUTES)


def _load_families(expr: GroupExpr) -> None:
    """Import the family module of each atom of `expr`, which every route but
    the closed form reads, so that its loading is not timed as a route's work."""
    for atom in expr.atoms:
        family(atom.kind)


def _run(name, expr, max_order=None, table=None, classes=None) -> DimensionReport:
    """Route `name` on `expr` as a timed report.  An order above `max_order`,
    the --max-order cap, refuses burnside, orbits and diagrams before anything
    is built.  Closed and chars see `expr`; orbits and diagrams `table`, or
    one built here (whose refusal is the route's); burnside counts `table`
    pair by pair, or else reduces `expr` by classes.  `classes`, the class
    data of `table` or else computed here, gives the class count and z2 of an
    enumeration route's report; it never feeds an enumerated dimension.
    verify passes the table and class data it built before any route ran, so
    that no route's time counts them.  The clock starts once the modules the
    route runs are loaded: its own, and for every route but the closed form
    `conjugacy` and the expression's families."""
    capped = name in ("burnside", "orbits", "diagrams") and max_order is not None
    if capped and (n := group_order(expr)) > max_order:
        raise ResourceLimitError(f"order {int_text(n)} exceeds --max-order {max_order}")
    module, route = _ROUTES[name]
    load(module)  # loading the route is not timed as its work
    if name != "closed":
        conjugacy = load("conjugacy")
        _load_families(expr)
    t0 = time.perf_counter()
    group = expr if name in ("closed", "chars") else table
    if group is None:  # burnside reduces `expr` by classes; a walk builds its table
        group = expr if name == "burnside" else load("group_core").group_from_expr(expr)
    order, num_classes, d1, d2, dim, z2 = route(group)
    # the class-level routes answer products of any order their atoms allow
    check_printable(max(order, dim, d1 or 0, d2 or 0))
    if num_classes is None:
        cd = conjugacy.compute_classes(group) if classes is None else classes
        num_classes, z2 = cd.num_classes, conjugacy.z2_orbit_count(cd)
    return DimensionReport(
        group=expr_to_string(expr),
        order=order,
        num_classes=num_classes,
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
    _info(args, f"computing {expr_to_string(expr)} (method {args.method})")
    if args.method == "auto":
        from .closed_forms import SphericalMatchError

        try:
            report = _run("closed", expr)
        except SphericalMatchError as exc:
            _info(args, f"closed form not applicable ({exc}); falling back to burnside")
            report = _run("burnside", expr, args.max_order)
    else:
        report = _run(args.method, expr, args.max_order)
    _emit(report, args)
    return EXIT_OK


# the report fields that verify compares over the routes that give them (d1
# and d2 only chars and burnside give), in the order a mismatch names them
_COMPARED = ("dim_cpi", "dim_ker_eps", "order", "num_classes", "d1", "d2", "dim_classhat_z2")


def _cmd_verify(args) -> int:
    from .closed_forms import SphericalMatchError
    from .conjugacy import compute_classes
    from .group_core import group_from_expr

    expr = parse_group_expr(args.expr)
    for module, _ in _ROUTES.values():
        load(module)
    _load_families(expr)
    # the shared table and its class data are built before any route's clock
    # starts, and timed under -v; past the entries budget `table` stays None,
    # and each route that needs one meets the refusal itself
    table = classes = None
    if args.max_order is None or group_order(expr) <= args.max_order:
        t0 = time.perf_counter()
        try:
            table = group_from_expr(expr)
            classes = compute_classes(table)
        except ResourceLimitError as exc:
            _info(args, f"shared table refused: {exc}")
        else:
            ms = (time.perf_counter() - t0) * 1000
            k = classes.num_classes
            _info(args, f"shared table: order {table.order}, {k} classes, {ms:.1f} ms")
    lines = [f"group {expr_to_string(expr)}"]
    computed: list[DimensionReport] = []
    for name in _ROUTES:
        _info(args, f"running {name} on {expr_to_string(expr)}")
        try:
            rep = _run(name, expr, args.max_order, table, classes)
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
    code = EXIT_OK
    for field in _COMPARED:
        reported = [(rep.method, v) for rep in computed if (v := getattr(rep, field)) is not None]
        if len({value for _, value in reported}) > 1:
            code = EXIT_MISMATCH
            print(f"MISMATCH: {field}")
            for method, value in reported:
                print(f"  {method}: {value}")
    if code == EXIT_OK:
        rep = computed[0]
        print(f"agree: dim {rep.dim_cpi}, kernel {rep.dim_ker_eps} ({len(computed)} methods)")
    return code


# -- parser -------------------------------------------------------------------
#
# Each option is (dest, kind, default, help), where kind is int, a tuple of
# choices, or None for an on/off flag.  Each command is (handler, help,
# (positional, its choices or None), {long option: option}); a handler named
# by a string is the function of the command's name in that module.

_PROG = "thetadim"
_MAX_ORDER = ("max_order", int, None, "order cap of the burnside, orbits and diagrams routes")
# each table sweep: the parameter that its --max-<letter> option bounds, that
# option's default, and the expression of one row
_SWEEPS = {
    "d4p": ("p", 15, "Dstar({})"),
    "t8_3k": ("k", 9, "Tprime({})"),
    "zn": ("n", 60, "Z({})"),
}
# the sweep that each table option --max-<letter> bounds
_SWEEP_OF = {f"max-{x}": family for family, (x, _, _) in _SWEEPS.items()}
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
        "emit a CSV sweep row by row; a mismatch follows the rows printed",
        ("family", tuple(_SWEEPS)),
        {
            f"max-{x}": (f"max_{x}", int, default, f"largest {x} of the {family} sweep")
            for family, (x, default, _) in _SWEEPS.items()
        }
        | {"max-order": _MAX_ORDER},
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
    return getattr(load(handler), command) if isinstance(handler, str) else handler


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
    print(load("commands").help_text(command))


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
            # ASCII digits after an optional -: int() also takes "٣", "1_0", " 3"
            digits = arg.removeprefix("-")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(arg)
                arg = int(arg)  # refuses more digits than it converts
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
    for name, _ in sub_opts:  # a table option bounds one sweep, and no other
        if _SWEEP_OF.get(name, positionals[0]) != positionals[0]:
            raise _UsageError(f"--{name} bounds the {_SWEEP_OF[name]} sweep", command)
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
        print(load("commands").usage(exc.command), file=sys.stderr)
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed standard output: send what is still buffered to
        # devnull so that the interpreter's final flush stays quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> int:
    """The process entry: `main` on sys.argv, then `gc.freeze()`, so that the
    collections at interpreter exit skip every object this process made."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
