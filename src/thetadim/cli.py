"""Command line front end: route dispatch, verification, and table emission.

Standard output carries data only; diagnostics go to standard error.  Exit
codes: 0 success, 1 usage or constraint error, 2 cross-check mismatch,
3 resource budget exceeded, 4 internal check failed (an integrality,
alignment or character invariant such as the Brauer or Frobenius-Schur count
did not hold; this is a bug, reported as one line instead of a traceback).
THETA_DIM_MAX_ORDER overrides the brute-force order budgets; an explicit
--max-order flag wins over the environment.  Neither lifts
group_core.TABLE_MAX_ENTRIES (10^6): a multiplication table beyond it, a
single atom's included, exits with code 3.  The chars route and chartab
refuse a character table of more than characters.CHAR_TABLE_MAX_CELLS (10^7)
cells with exit code 3.  Only chartab builds that table: the chars route
takes the class data and d2 from characters.d2_char_formula, which sums the
real rows alone (characters.real_character_sums).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .burnside import (
    DEFAULT_ORBIT_MAX_ORDER,
    DEFAULT_PAIR_MAX_ORDER,
    burnside_dims,
    orbit_count_dims,
)
from .characters import d2_char_formula, table_for
from .closed_forms import (
    SphericalMatchError,
    closed_class_count,
    closed_dims,
    closed_order,
    closed_z2_orbit,
    spec_from_expr,
)
from .conjugacy import class_data_for, compute_classes, d1_class_formula, z2_orbit_count
from .diagrams import DEFAULT_DIAGRAM_MAX_ORDER, dim_A2
from .expr import GroupExpr, expr_to_string, parse_group_expr
from .group_core import FiniteGroup, ResourceLimitError, group_from_expr, group_order
from .report import CSV_HEADER, DimensionReport, csv_row, render_text, to_json

__all__ = [
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

METHODS = ("auto", "closed", "chars", "burnside", "orbits", "diagrams")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _budgets(args) -> dict[str, int]:
    """Order budget of each enumeration route, keyed by route name."""
    override = getattr(args, "max_order", None)
    if override is None:
        env = os.environ.get("THETA_DIM_MAX_ORDER")
        if env is not None:
            try:
                override = int(env)
            except ValueError:
                print(f"ignoring non-integer THETA_DIM_MAX_ORDER={env!r}", file=sys.stderr)
    if override is not None:
        return dict.fromkeys(("burnside", "orbits", "diagrams"), override)
    return {
        "burnside": DEFAULT_PAIR_MAX_ORDER,
        "orbits": DEFAULT_ORBIT_MAX_ORDER,
        "diagrams": DEFAULT_DIAGRAM_MAX_ORDER,
    }


# -- computation routes -------------------------------------------------------
#
# Each route returns (order, classes, d1, d2, dim, z2); _run times it and
# builds the report.  The orbits and diagrams routes leave classes and z2 as
# None for _run to fill from the class data of their table, which verify
# computes once for both.  Routes call library functions through this module's
# globals, so a tracer that rebinds those names sees every call.


def _closed(expr: GroupExpr, budgets):
    spec = spec_from_expr(expr)
    dim, _ = closed_dims(spec)
    return closed_order(spec), closed_class_count(spec), None, None, dim, closed_z2_orbit(spec)


def _chars(expr: GroupExpr, budgets):
    cd, d2 = d2_char_formula(expr)
    d1 = d1_class_formula(cd)
    dim = (d1 + d2) / 2
    if dim.denominator != 1:
        raise AssertionError(f"(d1+d2)/2 is not an integer for {expr_to_string(expr)}")
    return cd.order, cd.num_classes, d1, d2, int(dim), z2_orbit_count(cd)


def _burnside(group: FiniteGroup | GroupExpr, budgets):
    r = burnside_dims(group, mode="auto", max_order=budgets["burnside"])
    return r.order, r.num_classes, r.d1, r.d2, int(r.dim_full), int(r.dim_full - r.dim_ker)


def _enumerated(group: FiniteGroup, dim: int):
    return group.order, None, None, None, dim, None


def _orbits(group: FiniteGroup | GroupExpr, budgets):
    return _enumerated(group, orbit_count_dims(group, max_order=budgets["orbits"]))


def _diagrams(group: FiniteGroup | GroupExpr, budgets):
    return _enumerated(group, dim_A2(group, max_order=budgets["diagrams"]))


_ROUTES = {
    "closed": _closed,
    "chars": _chars,
    "burnside": _burnside,
    "orbits": _orbits,
    "diagrams": _diagrams,
}


def _table_within(expr: GroupExpr, budget: int) -> FiniteGroup | GroupExpr:
    """The table group of `expr`, or `expr` itself when its order exceeds `budget`
    or its table would exceed the entries budget.  The routes refuse the bare
    expression themselves; burnside reduces it by classes or builds its own table.
    """
    try:
        return group_from_expr(expr) if group_order(expr) <= budget else expr
    except ResourceLimitError:
        return expr


def _run(name: str, expr: GroupExpr, budgets, group=None, classes_of=None) -> DimensionReport:
    """Route `name` as a timed report; closed and chars see only `expr`, the others
    `group`, the `_table_within` result verify shares, or else their own.
    `classes_of(table)` gives the class data an enumeration route's report needs;
    verify passes a memo of `compute_classes` so its table's classes are found once.
    Class data never feeds an enumerated dimension."""
    t0 = time.perf_counter()
    if name in ("closed", "chars"):
        group = expr
    elif group is None:
        group = expr if name == "burnside" else _table_within(expr, budgets[name])
    order, classes, d1, d2, dim, z2 = _ROUTES[name](group, budgets)
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
    budgets = _budgets(args)
    _info(args, f"computing {expr_to_string(expr)} (method {args.method})")
    if args.method == "auto":
        try:
            report = _run("closed", expr, budgets)
        except SphericalMatchError as exc:
            _info(args, f"closed form not applicable ({exc}); falling back to burnside")
            report = _run("burnside", expr, budgets)
    else:
        report = _run(args.method, expr, budgets)
    _emit(report, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    expr = parse_group_expr(args.expr)
    budgets = _budgets(args)
    group = _table_within(expr, max(budgets["orbits"], budgets["diagrams"]))
    classes_of = functools.lru_cache(maxsize=1)(compute_classes)
    lines = [f"group {expr_to_string(expr)}"]
    computed: list[DimensionReport] = []
    for name in _ROUTES:
        _info(args, f"running {name} on {expr_to_string(expr)}")
        try:
            rep = _run(name, expr, budgets, group, classes_of)
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
    budgets = _budgets(args)
    lines = [CSV_HEADER]
    for param, expr_text in _table_rows(args):
        expr = parse_group_expr(expr_text)
        closed = _run("closed", expr, budgets)
        dims = (closed.dim_cpi, closed.dim_ker_eps)
        try:
            check = _run("burnside", expr, budgets)
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


def _cmd_classes(args) -> int:
    expr = parse_group_expr(args.expr)
    cd = class_data_for(expr)
    print(
        f"group {expr_to_string(expr)}  order {cd.order}"
        f"  classes {cd.num_classes}"
    )
    labels = cd.labels
    width = max(len(l) for l in labels)
    width = max(width, len("representative"))
    print(f"{'idx':>4} {'size':>5}  {'representative':<{width}}  square  cube  inverse")
    for c in range(cd.num_classes):
        print(
            f"{c:>4} {cd.sizes[c]:>5}  {labels[c]:<{width}}"
            f"  {cd.square_class[c]:>6}  {cd.cube_class[c]:>4}  {cd.inverse_class[c]:>7}"
        )
    return EXIT_OK


def _cmd_chartab(args) -> int:
    table = table_for(parse_group_expr(args.expr))
    cd = table.class_data
    sizes = [str(cd.sizes[c]) for c in range(cd.num_classes)]
    cells = [[str(v) for v in row] for row in table.values]
    if args.csv:
        print("name," + ",".join(table.class_labels))
        print("size," + ",".join(sizes))
        for name, row in zip(table.row_names, cells):
            print(name + "," + ",".join(row))
        return EXIT_OK
    name_w = max(len(n) for n in table.row_names + ["size", table.group_name])
    col_w = [
        max([len(table.class_labels[c]), len(sizes[c])] + [len(r[c]) for r in cells])
        for c in range(cd.num_classes)
    ]

    def fmt(head, entries):
        return (
            f"{head:<{name_w}}  "
            + "  ".join(f"{e:>{col_w[c]}}" for c, e in enumerate(entries))
        )
    print(fmt(table.group_name, table.class_labels))
    print(fmt("size", sizes))
    for name, row in zip(table.row_names, cells):
        print(fmt(name, row))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thetadim",
        description=(
            "Exact dimension computations for group algebras of spherical "
            "space-form groups, by closed forms, characters, fixed-point "
            "counting, and orbit enumeration."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute both dimensions for an expression")
    p.add_argument("expr", help='e.g. "Z(5) x Dstar(4)" or "Istar"')
    p.add_argument("--method", choices=METHODS, default="auto")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")
    p.add_argument("--max-order", type=int, dest="max_order")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run every applicable method and compare")
    p.add_argument("expr")
    p.add_argument("--max-order", type=int, dest="max_order")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="emit a parameter sweep as CSV")
    p.add_argument("family", choices=["d4p", "t8_3k", "zn"])
    p.add_argument("--max-p", type=int, default=15, dest="max_p")
    p.add_argument("--max-k", type=int, default=9, dest="max_k")
    p.add_argument("--max-n", type=int, default=60, dest="max_n")
    p.add_argument("--max-order", type=int, dest="max_order")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classes", help="dump conjugacy class data")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("chartab", help="print the character table")
    p.add_argument("expr")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_chartab)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    try:
        return args.func(args)
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
