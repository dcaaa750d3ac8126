"""Command-line front end: exit codes, output formats, budget plumbing."""

import contextlib
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import thetadim.characters as characters
import thetadim.cli as cli
import thetadim.commands as commands
import thetadim.burnside as burnside
import thetadim.conjugacy as conjugacy
import thetadim.cyclo as cyclo
import thetadim.family_dstar as family_dstar
import thetadim.family_polyhedral as family_polyhedral
import thetadim.family_tprime as family_tprime
import thetadim.family_z as family_z
import thetadim.group_core as group_core
from catalogs import RANDOM_PRODUCTS_500
from oracles import ReferenceUsageError, reference_parser
from test_golden_cli import mask
from thetadim.cli import main
from thetadim.closed_forms import closed_dims, spec_from_expr
from thetadim.cyclo import from_int
from thetadim.expr import expr_to_string
from thetadim.group_core import FiniteGroup, group_from_expr
from thetadim.normal_form import ResourceLimitError, group_order, int_text, power
from thetadim.report import CSV_HEADER


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_text_output(capsys):
    rc, out, err = run(capsys, "compute", "Tstar")
    assert rc == 0
    assert "group" in out and "Tstar" in out
    assert "dim full" in out and "15" in out
    assert "dim kernel" in out and "10" in out
    assert err == ""


@pytest.mark.parametrize(
    "method,expect_d1",
    [
        ("closed", False),
        ("chars", True),
        ("burnside", True),
        ("orbits", False),
        ("diagrams", False),
    ],
)
def test_compute_methods_agree(capsys, method, expect_d1):
    rc, out, _ = run(capsys, "compute", "Dstar(3)", "--method", method, "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["dim_Cpi"] == 11
    assert data["dim_ker_eps"] == 6
    assert (data["d1"] is not None) == expect_d1


def test_json_schema(capsys):
    rc, out, _ = run(capsys, "compute", "Z(12)", "--method", "burnside", "--json")
    assert rc == 0
    data = json.loads(out)
    assert list(data) == [
        "group",
        "order",
        "num_classes",
        "d1",
        "d2",
        "dim_Cpi",
        "dim_ker_eps",
        "dim_classhat_Z2",
        "method",
        "millis",
    ]
    assert data["group"] == "Z(12)"
    assert data["order"] == 12
    assert data["num_classes"] == 12
    assert data["d1"] == 31
    assert data["d2"] == 7
    assert data["dim_Cpi"] == 19
    assert data["dim_ker_eps"] == 12
    assert data["dim_classhat_Z2"] == 7
    assert isinstance(data["millis"], float)


def test_csv_output_and_header(capsys):
    rc, out, _ = run(capsys, "compute", "Tstar", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER == "param,dim_Cpi,dim_ker_eps,method"
    assert lines[1] == "Tstar,15,10,closed"


def test_csv_param_never_contains_commas(capsys):
    rc, out, _ = run(capsys, "compute", "Dprime(1,3)", "--csv")
    assert rc == 0
    row = out.splitlines()[1]
    assert row.count(",") == 3
    assert row.startswith("Dprime(1;3),")


def test_json_and_csv_are_mutually_exclusive(capsys):
    rc, _, err = run(capsys, "compute", "Tstar", "--json", "--csv")
    assert rc == 1
    assert "usage" in err.lower()


def test_syntax_error_exit_code(capsys):
    rc, _, err = run(capsys, "compute", "Z(5) + Tstar")
    assert rc == 1
    assert "error" in err.lower()
    assert "byte 5" in err


def test_unknown_family_and_bad_parameters(capsys):
    assert run(capsys, "compute", "Foo(3)")[0] == 1
    assert run(capsys, "compute", "Z(0)")[0] == 1
    assert run(capsys, "compute", "Dprime(1,4)")[0] == 1


def test_unknown_subcommand_and_flag(capsys):
    assert run(capsys, "frobnicate", "Z(3)")[0] == 1
    assert run(capsys, "compute", "Z(3)", "--frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_resource_exit_code(capsys):
    rc, _, err = run(capsys, "compute", "Z(1001)", "--method", "orbits")
    assert rc == 3
    assert err == "resource limit: Z(1001) needs 1002001 table entries, budget is 1000000.\n"


def test_chars_cell_budget_exit_code_and_verify_skip(capsys, monkeypatch):
    """The chars route's one budget is the class-data order; chartab keeps the cell budget."""
    rc, out, err = run(capsys, "compute", "Z(100000)", "--method", "chars", "--json")
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert (data["dim_Cpi"], data["dim_ker_eps"]) == closed_dims(spec_from_expr("Z(100000)"))
    rc, out, _ = run(capsys, "verify", "Z(100000)")
    assert rc == 0
    assert "  chars     dim" in out and "  burnside  dim" in out
    assert out.splitlines()[-1].endswith("(3 methods)")

    def refuse(*args):
        raise AssertionError("computed classes over the class-data budget")

    monkeypatch.setattr(conjugacy, "compute_classes", refuse)
    rc, out, err = run(capsys, "compute", "Z(10000001)", "--method", "chars")
    assert (rc, out) == (3, "")
    assert "class-data budget 10000000" in err
    rc, out, err = run(capsys, "chartab", "Z(400) x Z(400)")
    assert (rc, out) == (3, "")
    assert "cells" in err


def test_max_order_flag_does_not_lift_the_entries_budget(capsys):
    # a single atom's table is refused on the orbit and diagram routes alike
    for argv in (
        ("compute", "--method", "orbits", "Z(1001)", "--max-order", "2000"),
        ("compute", "--method", "diagrams", "Z(1001)", "--max-order", "2000"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (3, "")
        assert "budget is 1000000" in err
    # the orbit walk holds n(n+1)/2 states, so orders past 180 fit
    argv = ("compute", "--method", "orbits", "Z(181)", "--max-order", "1000", "--json")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    report = json.loads(out)
    assert (report["dim_Cpi"], report["dim_ker_eps"]) == (2821, 2730)
    assert closed_dims(spec_from_expr("Z(181)")) == (2821, 2730)


def test_max_order_flag_lifts_budget(capsys):
    rc, out, _ = run(capsys, "compute", "Z(151)", "--method", "orbits", "--json", "--max-order", "151")
    assert rc == 0
    assert json.loads(out)["dim_Cpi"] == 1976


# (method, expression, cap): an order above the cap is refused with one
# message before anything is built, and one at the cap answers
MAX_ORDER_CASES = [
    ("burnside", "Z(20)", 10),
    ("orbits", "Z(20)", 10),
    ("diagrams", "Z(20)", 10),
    ("burnside", "Z(150)", 100),
    ("burnside", "Z(2025)", 2025),
    ("burnside", "Z(5000)", 2000),
    ("burnside", "Z(2) x Z(2)", 3),
    ("burnside", "Z(10000001)", 5),
    ("burnside", "Z(7) x Istar", 100),
    ("orbits", "Z(151)", 150),
    ("orbits", "Z(151)", 151),
    ("diagrams", "Z(121)", 120),
    ("diagrams", "Z(121)", 121),
]


@pytest.mark.parametrize("method,expr,cap", MAX_ORDER_CASES)
@pytest.mark.parametrize("command", ["compute", "verify"])
def test_max_order_caps_burnside_orbits_and_diagrams(capsys, monkeypatch, command, method, expr, cap):
    n = group_order(expr)
    if n > cap:
        _refuse_tables_and_class_data(monkeypatch, n)
    argv = ["--method", method] if command == "compute" else []
    rc, out, err = run(capsys, command, *argv, expr, "--max-order", str(cap))
    message = f"order {n} exceeds --max-order {cap}"
    if command == "compute" and n > cap:
        assert (rc, out, err) == (3, "", f"resource limit: {message}\n")
    elif command == "compute":
        assert rc == 0 and f"dim full       {burnside.burnside_dims(expr).dim_full}" in out
    else:
        line = next(line for line in out.splitlines() if line.startswith(f"  {method} "))
        assert (line == f"  {method:<9} skipped: {message}") == (n > cap), line


def _refuse_tables_and_class_data(monkeypatch, n):
    """Refuse the multiplication table of order `n`, its class data and
    class-mode burnside, so that a capped route builds nothing; the chars
    route may still tabulate a binary polyhedral atom and take its classes."""
    real_init, real_classes = FiniteGroup.__init__, conjugacy.compute_classes

    def guarded(self, rows, *args, **kwargs):
        if len(rows) == n:
            raise AssertionError(f"built a multiplication table of order {n}")
        real_init(self, rows, *args, **kwargs)

    def no_table_classes(group):
        if isinstance(group, FiniteGroup) and group.order == n:
            raise AssertionError(f"computed the classes of a table of order {n}")
        return real_classes(group)

    def no_classes(expr):
        raise AssertionError("burnside reduced by classes")

    monkeypatch.setattr(FiniteGroup, "__init__", guarded)
    monkeypatch.setattr(conjugacy, "compute_classes", no_table_classes)
    monkeypatch.setattr(burnside, "atom_classes", no_classes)


def test_verify_under_the_cap_builds_no_table(capsys, monkeypatch):
    # closed and chars still answer; the capped routes build nothing
    _refuse_tables_and_class_data(monkeypatch, 20)
    rc, out, err = run(capsys, "verify", "Z(20)", "--max-order", "10")
    assert (rc, err) == (0, "")
    for name in ("burnside", "orbits", "diagrams"):
        assert f"  {name:<9} skipped: order 20 exceeds --max-order 10\n" in out
    assert out.splitlines()[-1] == "agree: dim 44, kernel 33 (2 methods)"


def test_compute_auto_falls_back_for_non_spherical(capsys):
    rc, out, _ = run(capsys, "compute", "Z(2) x Z(2)", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["method"] == "burnside"
    assert data["dim_Cpi"] == 5
    assert data["dim_ker_eps"] == 1


def test_verify_agreement(capsys):
    rc, out, _ = run(capsys, "verify", "Dstar(6)")
    assert rc == 0
    for name in ("closed", "chars", "burnside", "orbits", "diagrams"):
        assert name in out
    assert "agree: dim 30, kernel 21 (5 methods)" in out


def test_verify_skips_over_budget_routes(capsys):
    # past the table's entries budget the walks are skipped with its message,
    # and burnside reduces by classes
    rc, out, _ = run(capsys, "verify", "Z(1001)")
    assert rc == 0
    for name in ("orbits", "diagrams"):
        assert f"  {name:<9} skipped: Z(1001) needs 1002001 table entries, budget is 1000000." in out
    assert "  burnside  dim" in out
    assert out.splitlines()[-1].endswith("(3 methods)")


def test_verify_skips_closed_form_for_non_spherical(capsys):
    rc, out, _ = run(capsys, "verify", "Z(4) x Dstar(3)")
    assert rc == 0
    assert "closed" in out and "skipped" in out
    assert "agree: dim 86, kernel 70 (4 methods)" in out


def test_verify_reports_mismatch(capsys, monkeypatch):
    # corrupt one route to prove disagreement is detected and coded 2
    module, real = cli._ROUTES["orbits"]

    def lying_route(group):
        order, classes, d1, d2, dim, z2 = real(group)
        return order, classes, d1, d2, dim + 1, z2

    monkeypatch.setitem(cli._ROUTES, "orbits", (module, lying_route))
    rc, out, _ = run(capsys, "verify", "Dstar(2)")
    assert rc == 2
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "index,field",
    [(0, "order"), (1, "num_classes"), (2, "d1"), (3, "d2"), (4, "dim_cpi"), (5, "dim_classhat_z2")],
)
def test_verify_names_each_field_that_one_route_misreports(capsys, monkeypatch, index, field):
    # the chars route reports every field; one of its answers is off by one
    module, real = cli._ROUTES["chars"]

    def lying_route(group):
        answer = list(real(group))
        answer[index] += 1
        return tuple(answer)

    monkeypatch.setitem(cli._ROUTES, "chars", (module, lying_route))
    rc, out, _ = run(capsys, "verify", "Dstar(2)")
    assert rc == cli.EXIT_MISMATCH
    assert f"\nMISMATCH: {field}\n" in out
    assert "agree:" not in out
    if field == "num_classes":
        routes = "".join(f"  {name}: {6 if name == 'chars' else 5}\n" for name in cli._ROUTES)
        assert f"MISMATCH: num_classes\n{routes}" in out
    if field == "d1":
        # only chars and burnside report d1
        assert "MISMATCH: d1\n  chars: 10\n  burnside: 9\n" in out


def test_verify_builds_one_table(capsys, monkeypatch):
    # burnside, orbits and diagrams share one table; closed and chars build none
    built = []
    real_init = FiniteGroup.__init__

    def counting(self, rows, *args, **kwargs):
        built.append(len(rows))
        real_init(self, rows, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    rc, out, _ = run(capsys, "verify", "Dstar(6)")
    assert rc == 0
    assert "agree: dim 30, kernel 21 (5 methods)" in out
    assert built == [24]


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["compute", "--method", "chars", "Z(7) x Istar"], 0),
        (["compute", "--method", "burnside", "Z(5) x Tstar"], 0),
        (["classes", "Istar"], 0),
        (["chartab", "Ostar"], 0),
        (["verify", "Z(5) x Tstar"], 1),
    ],
)
def test_only_the_walks_tabulate_a_polyhedral_atom(capsys, monkeypatch, argv, tables):
    # a polyhedral atom is the rule of its coset action: class-level work
    # builds no table of it, and verify builds only the one its walks share
    group_core._enumerated.cache_clear()
    calls = []
    real = group_core._tabulate

    def counting(*args, **kwargs):
        calls.append(args[0].family_tag)
        return real(*args, **kwargs)

    # counted wherever a library module binds it
    for name, module in list(sys.modules.items()):
        if name.startswith("thetadim.") and getattr(module, "_tabulate", None) is real:
            monkeypatch.setattr(module, "_tabulate", counting)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == tables, calls


@pytest.mark.parametrize(
    "expr, built_orders, methods",
    [("Z(1000)", [1000], 5), ("Z(1001)", [], 3)],
)
def test_verify_shares_a_table_whenever_it_fits_the_entries_budget(
    capsys, monkeypatch, expr, built_orders, methods
):
    # no order cap: the one table is built whenever its entries fit, and past
    # the budget none is, so burnside reduces by classes and the walks skip
    built = []
    real_init = FiniteGroup.__init__

    def counting(self, rows, *args, **kwargs):
        built.append(len(rows))
        real_init(self, rows, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    rc, out, _ = run(capsys, "verify", expr)
    assert rc == 0
    assert out.splitlines()[-1].endswith(f"({methods} methods)")
    assert built == built_orders


def test_verify_times_no_route_for_the_shared_table(capsys, monkeypatch):
    # verify builds its table and the table's class data before the first
    # route's clock starts, so a slow table build shows in no route line
    real = group_core._tabulate

    def slow(*args, **kwargs):
        time.sleep(0.1)
        return real(*args, **kwargs)

    monkeypatch.setattr(group_core, "_tabulate", slow)
    rc, out, _ = run(capsys, "verify", "Z(12)")
    assert rc == 0
    millis = [float(line.split()[-2]) for line in out.splitlines() if line.endswith(" ms")]
    assert len(millis) == 5 and max(millis) < 100, out


def test_verify_finds_the_classes_of_its_table_once(capsys, monkeypatch):
    # orbits and diagrams read the class count and z2 off one computation of
    # the table's classes; the chars route takes those of the atom's rule
    calls = []
    real = conjugacy.compute_classes

    def counting(group):
        calls.append((type(group).__name__, group.order))
        return real(group)

    # cli imports compute_classes from conjugacy when verify runs
    monkeypatch.setattr(conjugacy, "compute_classes", counting)
    rc, out, _ = run(capsys, "verify", "Dstar(6)")
    assert rc == 0
    assert "agree: dim 30, kernel 21 (5 methods)" in out
    assert sorted(calls) == [("FiniteGroup", 24), ("NormalForm", 24)]


def test_verify_finds_the_classes_of_an_order_1000_table_once(capsys, monkeypatch):
    # burnside counts the pairs of the largest table and finds no classes;
    # orbits and diagrams read the table's classes off one computation, and
    # the chars route's own call on the Z(1000) rule stays
    calls = []
    real = conjugacy.compute_classes

    def counting(group):
        calls.append(type(group).__name__)
        return real(group)

    monkeypatch.setattr(conjugacy, "compute_classes", counting)
    rc, out, _ = run(capsys, "verify", "Z(1000)")
    assert rc == 0
    assert out.splitlines()[-1] == "agree: dim 83834, kernel 83333 (5 methods)"
    assert sorted(calls) == ["FiniteGroup", "NormalForm"]


def test_table_binary_dihedral_prefix(capsys):
    rc, out, _ = run(capsys, "table", "d4p", "--max-p", "3")
    assert rc == 0
    assert out.splitlines() == [
        CSV_HEADER,
        "1,4,1,closed+burnside",
        "2,9,4,closed+burnside",
        "3,11,6,closed+burnside",
    ]


def test_table_tower_prefix(capsys):
    rc, out, _ = run(capsys, "table", "t8_3k", "--max-k", "2")
    assert rc == 0
    assert out.splitlines() == [
        CSV_HEADER,
        "1,15,10,closed+burnside",
        "2,78,66,closed+burnside",
    ]


def test_a_table_mismatch_follows_the_rows_already_printed(capsys, monkeypatch):
    real = commands._run

    def lying_run(name, expr, *args):
        report = real(name, expr, *args)
        if name == "burnside" and expr_to_string(expr) == "Dstar(3)":
            report = report._replace(dim_cpi=report.dim_cpi + 1)
        return report

    monkeypatch.setattr(commands, "_run", lying_run)
    rc, out, err = run(capsys, "table", "d4p", "--max-p", "5")
    assert rc == cli.EXIT_MISMATCH
    assert out.splitlines() == [CSV_HEADER, "1,4,1,closed+burnside", "2,9,4,closed+burnside"]
    assert err == "mismatch at Dstar(3): closed (11, 6) vs burnside (12, 6)\n"


def test_a_sweep_past_the_row_budget_is_refused_before_its_header():
    # the child that would run the sweep instead is stopped by the timeout
    message = "a sweep of 1000000000000 rows exceeds the row budget 100000"
    argv = ("table", "zn", "--max-n", "1000000000000")
    assert _run_limited(*argv, timeout=2) == (cli.EXIT_RESOURCE, "", f"resource limit: {message}\n")


def test_the_row_budget_edge(capsys, monkeypatch):
    monkeypatch.setattr(commands, "TABLE_MAX_ROWS", 3)
    rc, out, err = run(capsys, "table", "d4p", "--max-p", "4")
    assert (rc, out, err) == (
        cli.EXIT_RESOURCE,
        "",
        "resource limit: a sweep of 4 rows exceeds the row budget 3\n",
    )
    rc, out, _ = run(capsys, "table", "d4p", "--max-p", "3")
    assert rc == 0 and len(out.splitlines()) == 4


def test_rows_past_the_summed_order_budget_are_closed(capsys, monkeypatch):
    # Dstar(1..3) have orders 4, 8 and 12: a budget of 24 checks them, and
    # the first row past it, Dstar(4), is printed as its closed form alone
    monkeypatch.setattr(commands, "TABLE_MAX_CHECKED_ORDER", 24)
    rc, out, _ = run(capsys, "table", "d4p", "--max-p", "5")
    assert rc == 0
    assert out.splitlines() == [
        CSV_HEADER,
        "1,4,1,closed+burnside",
        "2,9,4,closed+burnside",
        "3,11,6,closed+burnside",
        "4,18,11,closed",
        "5,20,13,closed",
    ]


def test_table_cyclic_prefix(capsys):
    rc, out, _ = run(capsys, "table", "zn", "--max-n", "4")
    assert rc == 0
    assert out.splitlines() == [
        CSV_HEADER,
        "1,1,0,closed+burnside",
        "2,2,0,closed+burnside",
        "3,3,1,closed+burnside",
        "4,4,1,closed+burnside",
    ]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["zn", "--max-p", "3", "--max-n", "4"], "--max-p bounds the d4p sweep"),
        (["d4p", "--max-k=2"], "--max-k bounds the t8_3k sweep"),
        (["--max-n", "5", "t8_3k", "--max-order", "10"], "--max-n bounds the zn sweep"),
    ],
)
def test_a_table_option_of_another_sweep_is_a_usage_error(capsys, argv, message):
    rc, out, err = run(capsys, "table", *argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines() == [commands.usage("table"), f"thetadim table: error: {message}"]


def test_classes_dump(capsys):
    rc, out, _ = run(capsys, "classes", "Dstar(2)")
    assert rc == 0
    assert "order 8" in out and "classes 5" in out
    assert "square" in out and "cube" in out and "inverse" in out


def test_classes_holds_no_label_per_class(monkeypatch):
    # Z(50000) has a class per element; a list of their labels would hold
    # about 3 MB while the rows print
    cd = conjugacy.class_data_for("Z(50000)")
    monkeypatch.setattr(conjugacy, "class_data_for", lambda expr: cd)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["classes", "Z(50000)"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 500_000


def test_chartab_text_and_csv(capsys):
    rc, out, _ = run(capsys, "chartab", "Dstar(2)")
    assert rc == 0
    assert "V2_1" in out
    rc, out, _ = run(capsys, "chartab", "Dstar(2)", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("name,")
    assert lines[1].startswith("size,")
    assert any(line.startswith("V2_1,2,") for line in lines)


def test_verbose_logs_to_stderr(capsys):
    rc, out, err = run(capsys, "-v", "compute", "Tstar")
    assert rc == 0
    assert err != ""
    assert "15" in out


@pytest.mark.parametrize(
    "expr, logged",
    [
        ("Z(12)", r"shared table: order 12, 12 classes, [0-9]+\.[0-9] ms"),
        (
            "Z(13) x Istar",
            r"shared table refused: product of orders 13 and 120 needs 2433600 table "
            r"entries, budget is 1000000\.",
        ),
    ],
)
def test_verbose_verify_reports_its_shared_build(capsys, expr, logged):
    # the shared table is built before any route's clock, so -v times it once;
    # standard output is the same but for the route timings
    quiet = run(capsys, "verify", expr)
    rc, out, err = run(capsys, "-v", "verify", expr)
    assert (rc, mask(out)) == (quiet[0], mask(quiet[1]))
    builds = [line for line in err.splitlines() if line.startswith("shared table")]
    assert len(builds) == 1 and re.fullmatch(logged, builds[0]), err


def _verify_sweep_exprs():
    exprs = [f"Z({n})" for n in range(1, 61)]
    exprs += [f"Dstar({p})" for p in range(1, 16)]
    exprs += [f"Dprime({k},{p})" for k in range(0, 3) for p in (3, 5, 7, 9)]
    exprs += ["Tstar", "Tprime(1)", "Tprime(2)", "Tprime(3)", "Ostar", "Istar"]
    exprs += RANDOM_PRODUCTS_500
    return exprs


@pytest.mark.parametrize("expr", _verify_sweep_exprs())
def test_verify_sweep_agrees(capsys, expr):
    rc, out, _ = run(capsys, "verify", expr)
    assert rc == 0
    # all sweep members satisfy the space-form constraints, so the closed
    # route must participate in the agreement
    assert "closed" in out
    assert "agree: dim" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "Dstar(3)", "--method", "chars"],
        ["verify", "Dstar(3)"],
        ["chartab", "Dstar(3)"],
    ],
)
def test_internal_check_failure_exit_code(capsys, monkeypatch, argv):
    # chartab: zeroing i makes two non-real rows of Dstar(3) look real, so the
    # Brauer count check of the table fails; chars, which verify runs: one
    # more square root per class breaks the Frobenius-Schur count of the sums
    monkeypatch.setattr(cyclo, "sqrt_minus_one", lambda: from_int(0))
    roots = conjugacy.square_root_counts
    monkeypatch.setattr(characters, "square_root_counts", lambda cd: [r + 1 for r in roots(cd)])
    rc, _, err = run(capsys, *argv)
    assert rc == cli.EXIT_INTERNAL == 4
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal check failed: Dstar(3):")
    assert "Traceback" not in err


def _chars_large_pool() -> list[str]:
    # the benchmark's chars_large catalog, every pool member of every slot
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [expr for slot in workloads.WORKLOADS["chars_large"][1] for expr in slot]


def test_chars_route_builds_no_full_character_table(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the chars route built a full character table")

    # the CLI imports table_for from characters when chartab runs, so the
    # patch on the defining module covers every caller
    monkeypatch.setattr(characters, "table_for", refuse)
    monkeypatch.setattr(characters, "_product_table", refuse)
    pool = _chars_large_pool()
    assert "Z(2000)" in pool and "Z(13) x Istar" in pool
    for expr in pool:
        rc, out, err = run(capsys, "compute", expr, "--method", "chars", "--json")
        assert (rc, err) == (0, ""), expr
        data = json.loads(out)
        want = closed_dims(spec_from_expr(expr))
        assert (data["dim_Cpi"], data["dim_ker_eps"]) == want, expr


def _doctored(monkeypatch, module: str, edit):
    """Replace a family's real sums so that they pass through `edit`."""
    family = importlib.import_module(f"thetadim.{module}")
    original = family.real_sums

    def real_sums(atom, group, cd):
        return edit(*original(atom, group, cd))

    monkeypatch.setattr(family, "real_sums", real_sums)


def _drop_a_row(pairs, count):
    return pairs, count - 1


def _add_a_row(pairs, count):
    return pairs, count + 1


def _shift_one_to_plus(pairs, count):
    # S+ + S- is unchanged, so only the Frobenius-Schur count can see it
    (plus, minus), *rest = pairs
    return [(plus + 1, minus - 1), *rest], count


def _raise_both(pairs, count):
    # S+ - S- is unchanged, so only the norm of the real rows can see it
    (plus, minus), *rest = pairs
    return [(plus + 1, minus + 1), *rest], count


@pytest.mark.parametrize(
    "module,edit,expr,check",
    [
        ("family_dstar", _drop_a_row, "Dstar(4)", "self-inverse classes"),
        ("family_dstar", _shift_one_to_plus, "Dstar(4)", "Frobenius-Schur count"),
        ("family_tprime", _shift_one_to_plus, "Tprime(2)", "Frobenius-Schur count"),
        ("family_polyhedral", _shift_one_to_plus, "Istar", "Frobenius-Schur count"),
        ("family_z", _add_a_row, "Z(5)", "self-inverse classes"),
        ("family_dprime", _raise_both, "Dprime(1,5)", "norm"),
    ],
    ids=["drop-row", "flip-nu-dstar", "flip-nu-tprime", "flip-nu-istar", "non-real-row", "norm-dprime"],
)
def test_doctored_real_rows_fail_a_named_check(capsys, monkeypatch, module, edit, expr, check):
    _doctored(monkeypatch, module, edit)
    rc, out, err = run(capsys, "compute", expr, "--method", "chars")
    assert (rc, out) == (cli.EXIT_INTERNAL, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"internal check failed: {expr}:")
    assert check in lines[0]
    # only the integer sums are doctored, and chartab reads the rows
    assert run(capsys, "chartab", expr)[0] == 0


def test_a_degree_that_is_not_an_integer_fails_a_named_check(capsys, monkeypatch):
    # z_5^0 doctored to z_5 puts z_5 at the identity class of every row of Z(5)
    real_zeta = cyclo.zeta
    monkeypatch.setattr(cyclo, "zeta", lambda n, k=1: real_zeta(n, k or 1))
    rc, out, err = run(capsys, "chartab", "Z(5)")
    assert (rc, out, err) == (
        cli.EXIT_INTERNAL,
        "",
        "internal check failed: Z(5): row V_0 has degree 1*z(5)^1, not an integer\n",
    )


def _doctor_tprime(monkeypatch):
    monkeypatch.setattr(family_tprime, "_TPRIME_SIZES", [1, 1, 6, 4, 4, 4, 3])


def _doctor_istar(monkeypatch):
    layout = dict(family_polyhedral._POLYHEDRAL["Istar"], sizes=[1, 1, 30, 20, 20, 12, 12, 12, 11])
    monkeypatch.setitem(family_polyhedral._POLYHEDRAL, "Istar", layout)


@pytest.mark.parametrize("command", [["compute", "--method", "chars"], ["chartab"], ["verify"]])
@pytest.mark.parametrize(
    "expr,doctor", [("Tprime(2)", _doctor_tprime), ("Istar", _doctor_istar)], ids=["Tprime", "Istar"]
)
def test_alignment_failure_is_an_internal_check(capsys, monkeypatch, command, expr, doctor):
    doctor(monkeypatch)
    rc, out, err = run(capsys, *command, expr)
    assert (rc, out) == (cli.EXIT_INTERNAL, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"internal check failed: {expr}:")
    assert "do not match" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["compute", "--method", "burnside"], ["compute", "--method", "chars"], ["classes"], ["chartab"]],
)
def test_every_class_level_command_checks_each_atom_class_count(capsys, monkeypatch, argv):
    # one class more than Z(5) has: chartab's cell budget reads the doctored
    # count, and every command meets the check once the classes are found
    monkeypatch.setattr(family_z, "class_count", lambda atom: atom.params[0] + 1)
    rc, out, err = run(capsys, *argv, "Z(5)")
    assert (rc, out, err) == (
        cli.EXIT_INTERNAL,
        "",
        "internal check failed: Z(5): 5 classes, expected 6\n",
    )


@pytest.mark.parametrize(
    "expr,spherical",
    [("Tprime(10000000)", True), ("Dprime(1000000000,3)", True), ("Z(2) x Z(20000000)", False)],
)
def test_both_class_level_routes_refuse_alike(capsys, expr, spherical):
    refusal = run(capsys, "compute", "--method", "burnside", expr)
    assert run(capsys, "compute", "--method", "chars", expr) == refusal
    rc, out, err = refusal
    assert (rc, out) == (cli.EXIT_RESOURCE, "") and len(err.splitlines()) == 1
    assert "exceeds the class-data budget 10000000" in err
    # the closed form is named where it answers
    assert err.endswith("; use the closed-form route instead\n") == spherical


@pytest.mark.parametrize("method", ["burnside", "chars"])
@pytest.mark.parametrize(
    "expr,kinds", [("Z(7) x Istar", ["Z", "Istar"]), ("Z(11) x Dstar(9)", ["Z", "Dstar"])]
)
def test_each_atom_rule_is_built_once_per_call(capsys, monkeypatch, method, expr, kinds):
    built = Counter()
    for module in (family_z, family_dstar, family_polyhedral):

        def counted(atom, model=module.model):
            built[atom.kind] += 1
            return model(atom)

        monkeypatch.setattr(module, "model", counted)
    assert run(capsys, "compute", "--method", method, expr)[0] == 0
    assert built == Counter(kinds)


# -- integers past the interpreter's limit on printed digits -----------------


@pytest.fixture
def digit_limit():
    """A low limit on the digits of a printed integer, 640, the least the
    interpreter allows, so that the answers past it are quick to compute."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def _last_printable_tprime(limit: int) -> int:
    """The largest k for which Tprime(k)'s dimension has at most `limit` digits."""
    k = 1
    while closed_dims(spec_from_expr(f"Tprime({k + 1})"))[0] < 10**limit:
        k += 1
    return k


def test_an_answer_too_long_to_print_is_refused(capsys, digit_limit):
    k = _last_printable_tprime(digit_limit)
    dim, ker = closed_dims(spec_from_expr(f"Tprime({k})"))
    rc, out, err = run(capsys, "compute", f"Tprime({k})")
    assert (rc, err) == (0, "")
    assert f"dim full       {dim}\n" in out
    message = f"the answer is 10^{digit_limit} or more, too long to print"
    rc, out, err = run(capsys, "compute", f"Tprime({k + 1})")
    assert (rc, out, err) == (cli.EXIT_RESOURCE, "", f"resource limit: {message}\n")
    # a sweep ends at the first such answer
    rc, out, err = run(capsys, "table", "t8_3k", "--max-k", str(k + 1), "--max-order", "10")
    assert (rc, out, err) == (cli.EXIT_RESOURCE, "", f"resource limit: {message}\n")
    rc, out, _ = run(capsys, "table", "t8_3k", "--max-k", str(k), "--max-order", "10")
    assert rc == 0 and out.splitlines()[-1] == f"{k},{dim},{ker},closed"


@pytest.mark.parametrize("method", ["burnside", "chars"])
def test_class_level_routes_refuse_a_product_answer_too_long_to_print(
    capsys, monkeypatch, method, digit_limit
):
    message = f"resource limit: the answer is 10^{digit_limit} or more, too long to print\n"

    def refuse(*args):
        raise AssertionError("computed classes of a product whose answer is too long to print")

    # an order of 12 * 10^640 or more bounds the answer, read off the expression
    expr = " x ".join(["Z(10000000)"] * 93)
    with monkeypatch.context() as patch:
        patch.setattr(conjugacy, "compute_classes", refuse)
        assert run(capsys, "compute", "--method", method, expr) == (cli.EXIT_RESOURCE, "", message)
    # an order of 2^1100, about 10^331, gives an answer of about 10^661
    expr = " x ".join(["Z(2)"] * 1100)
    assert run(capsys, "compute", "--method", method, expr) == (cli.EXIT_RESOURCE, "", message)
    expr = " x ".join(["Z(2)"] * 500)
    rc, out, err = run(capsys, "compute", "--method", method, expr, "--json")
    assert (rc, err) == (0, "") and json.loads(out)["order"] == 2**500


def _assert_int_text_edges(limit: int) -> None:
    # below 2^(3L) = 8^L < 10^L a number prints without 10^L being computed;
    # from there to 10^L it is compared with 10^L, and prints up to 10^L - 1
    assert (2 ** (3 * limit) - 1).bit_length() == 3 * limit
    for n in (2 ** (3 * limit) - 1, 2 ** (3 * limit), 10**limit - 1):
        assert int_text(n) == str(n)
    assert int_text(10**limit - 1) == "9" * limit
    assert int_text(10**limit) == f"10^{limit} or more"


def test_int_text_edges_under_the_default_limit():
    _assert_int_text_edges(sys.get_int_max_str_digits())


def test_int_text_edges_under_a_lowered_limit(digit_limit):
    _assert_int_text_edges(digit_limit)


def test_the_default_limit_refuses_tprime_5000_and_prints_tprime_4000(capsys):
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    message = f"the answer is 10^{limit} or more, too long to print"
    rc, out, err = run(capsys, "compute", "Tprime(5000)")
    assert (rc, out, err) == (cli.EXIT_RESOURCE, "", f"resource limit: {message}\n")
    rc, out, _ = run(capsys, "compute", "Tprime(4000)", "--json")
    assert rc == 0
    assert json.loads(out)["dim_Cpi"] == closed_dims(spec_from_expr("Tprime(4000)"))[0]


def test_verify_skips_every_route_of_an_answer_too_long_to_print(capsys):
    big = "10^4300 or more"
    rc, out, err = run(capsys, "verify", "Tprime(5000)")
    assert (rc, err) == (cli.EXIT_RESOURCE, "no method ran within the configured budgets\n")
    lines = out.splitlines()
    assert lines[0] == "group Tprime(5000)"
    assert lines[1] == f"  closed    skipped: the answer is {big}, too long to print"
    assert lines[2].startswith("  chars     skipped: order ") and "class-data budget" in lines[2]
    assert lines[3].endswith("class-data budget 10000000; use the closed-form route instead")
    for line, name in zip(lines[4:], ("orbits", "diagrams")):
        assert line == f"  {name:<9} skipped: Tprime(5000) needs {big} table entries, budget is 1000000."
    # an order itself past the limit is named by the same bound
    rc, out, err = run(capsys, "verify", "Tprime(10000)", "--max-order", "10")
    assert rc == cli.EXIT_RESOURCE
    hint = "; use the closed-form route instead"
    assert f"  chars     skipped: order {big} exceeds the class-data budget 10000000{hint}\n" in out
    assert f"  burnside  skipped: order {big} exceeds --max-order 10\n" in out


def test_running_out_of_memory_is_a_resource_refusal(capsys, monkeypatch):
    # an allocation that fails inside a route ends in one typed line, not a traceback
    def exhausted(expr):
        raise MemoryError

    monkeypatch.setitem(cli._ROUTES, "chars", ("characters", exhausted))
    rc, out, err = run(capsys, "compute", "--method", "chars", "Z(5)")
    assert (rc, out, err) == (cli.EXIT_RESOURCE, "", "resource limit: out of memory\n")


def test_a_parameter_past_the_digit_limit_is_a_syntax_error(capsys):
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "compute", "Z(" + "1" * (limit + 1) + ")")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: syntax error at byte 2: an integer of more than {limit} digits\n"
    # a parameter of `limit` digits is an integer, read as such
    rc, out, err = run(capsys, "compute", "--method", "burnside", "Z(" + "1" * limit + ")")
    assert (rc, out) == (cli.EXIT_RESOURCE, "")
    assert "class-data budget" in err


def test_an_exponent_sized_power_is_named_by_its_bound():
    limit = sys.get_int_max_str_digits()
    big = f"10^{limit} or more"
    assert power(3, 4 * limit - 1) == 3 ** (4 * limit - 1)
    # past exponent 4L the power has more than L digits and is not taken
    assert power(2, 4 * limit) == 10**limit
    assert int_text(power(2, 4 * limit)) == int_text(2 ** (4 * limit)) == big
    assert int_text(group_order("Dprime(1000000000000,3) x Z(5)")) == big


# a child that runs the command line under a 1 GB address-space limit and 3 s
# of CPU time, so that a power taken from an exponent-sized parameter (2^k is
# 125 GB at k = 10^12) ends the child at once instead of exhausting memory
_LIMITED = """
import resource, runpy, sys

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (3, 3))
sys.argv[0] = "thetadim"
runpy.run_module("thetadim", run_name="__main__")
"""


def _run_limited(*argv, timeout=None, **env):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


_BIG = "10^4300 or more"
_CLASS_DATA = f"order {_BIG} exceeds the class-data budget 10000000"
# the class-level routes' refusal of a spherical expression names the closed form
_HINTED = f"{_CLASS_DATA}; use the closed-form route instead"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compute", "Dprime(100000000,3)"], f"the answer is {_BIG}, too long to print"),
        (["compute", "--method", "burnside", "Dprime(1000000000,3)"], _HINTED),
        (["compute", "--method", "chars", "Tprime(10000000)"], _HINTED),
        # a sweep is refused at its last parameter, before its first row
        (["table", "t8_3k", "--max-k", "30000"], f"the answer is {_BIG}, too long to print"),
        (["table", "t8_3k", "--max-k", "1000000000000"], f"the answer is {_BIG}, too long to print"),
    ],
)
def test_an_exponent_sized_parameter_is_refused_before_its_power_is_taken(argv, message):
    assert _run_limited(*argv) == (cli.EXIT_RESOURCE, "", f"resource limit: {message}\n")


@pytest.fixture
def no_digit_limit():
    """No interpreter limit on the digits of a printed integer."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_with_no_interpreter_limit_the_default_bound_stands(capsys, no_digit_limit):
    assert int_text(10**4300 - 1) == "9" * 4300
    assert int_text(10**4300) == _BIG
    assert power(3, 4 * 4300) == 10**4300
    message = f"resource limit: the answer is {_BIG}, too long to print\n"
    assert run(capsys, "compute", "Tprime(5000)") == (cli.EXIT_RESOURCE, "", message)
    rc, out, _ = run(capsys, "compute", "Tprime(4000)", "--json")
    assert rc == 0
    assert json.loads(out)["dim_Cpi"] == closed_dims(spec_from_expr("Tprime(4000)"))[0]


def test_with_no_interpreter_limit_an_exponent_sized_parameter_is_refused_at_once():
    argv = ["compute", "--method", "chars", "Tprime(1000000000000)"]
    got = _run_limited(*argv, PYTHONINTMAXSTRDIGITS="0")
    assert got == (cli.EXIT_RESOURCE, "", f"resource limit: {_HINTED}\n")


def _refusals(expr: str) -> dict[str, str]:
    tables = f"{expr} needs {_BIG} table entries, budget is 1000000."
    return {
        "closed": f"the answer is {_BIG}, too long to print",
        "chars": _HINTED,
        "burnside": _HINTED,
        "orbits": tables,
        "diagrams": tables,
    }


@pytest.mark.parametrize("expr", ["Tprime(3000000)", "Dprime(1000000000000,3)", "Tprime(1000000000000)"])
def test_verify_skips_every_route_of_an_exponent_sized_parameter(expr):
    lines = [f"group {expr}"]
    lines += [f"  {name:<9} skipped: {why}" for name, why in _refusals(expr).items()]
    out = "\n".join(lines) + "\n"
    err = "no method ran within the configured budgets\n"
    assert _run_limited("verify", expr) == (cli.EXIT_RESOURCE, out, err)


@pytest.mark.parametrize("expr", ["Dprime(1000000000000,3)", "Tprime(1000000000000)"])
@pytest.mark.parametrize("route", ["closed", "chars", "burnside", "orbits", "diagrams", "classes", "chartab"])
def test_every_route_refuses_an_exponent_sized_parameter_at_once(expr, route):
    refusals = _refusals(expr) | {
        "classes": _CLASS_DATA,
        "chartab": f"character table of {expr} needs {_BIG} cells, budget is 10000000",
    }
    argv = [route, expr] if route in ("classes", "chartab") else ["compute", "--method", route, expr]
    assert _run_limited(*argv) == (cli.EXIT_RESOURCE, "", f"resource limit: {refusals[route]}\n")


@pytest.mark.parametrize("command", [["compute", "--method", "chars"], ["chartab"], ["verify"]])
def test_invalid_parameters_are_a_usage_error(capsys, command):
    rc, out, err = run(capsys, *command, "Dprime(30,4)")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "expr,message",
    [
        ("Z(\u00b2)", "syntax error at byte 2: expected an integer"),
        ("Z(3\u00b2)", "syntax error at byte 3: expected , or )"),
        ("Z(\u0663)", "syntax error at byte 2: expected an integer"),
    ],
    ids=["superscript", "trailing-superscript", "arabic-indic"],
)
def test_a_digit_outside_ascii_is_a_syntax_error(capsys, expr, message):
    rc, out, err = run(capsys, "compute", expr)
    assert (rc, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


# -- parser -------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")

PARSER_EDGE_CASES = [
    ["compute", "Z(3)", "--method=chars"],
    ["compute", "Z(3)", "--meth", "chars"],
    ["-vv", "compute", "Z(3)"],
    ["-v", "--verb", "verify", "Z(3)", "--max-order=7"],
    ["compute", "Z(3)", "-v"],
    ["compute", "Z(3)", "--max-order", "x"],
    ["compute", "Z(3)", "--max-order", "-5"],
    ["compute", "Z(3)", "--json", "--csv"],
    ["compute", "Z(3)", "Z(4)"],
    ["compute", "--", "Z(3)"],
    ["compute", "--method", "chars", "--", "Z(3)"],
    ["--", "compute", "Z(3)"],
    [],
    ["-v"],
    ["table", "zn", "--max", "3"],
    ["table", "zn", "--max-o", "4", "--max-n=5"],
    ["compute", "Z(3)", "--m", "chars"],
    ["compute", "Z(3)", "--j"],
    ["compute", "Z(3)", "--json=1"],
    ["compute", "Z(3)", "--method"],
    ["compute", "Z(3)", "--method", "chars", "--method", "closed"],
    ["compute"],
    ["comp", "Z(3)"],
    ["classes", "Z(3)", "--csv"],
    ["chartab", "--csv", "Z(3)"],
    ["-vh"],
    ["-hv"],
    ["--verbose=1", "compute", "Z(3)"],
    ["-x", "compute", "Z(3)"],
    ["compute", "-"],
    ["compute", "Z(3)", "--max-order="],
    ["compute", "Z(3)", "--"],
    ["compute", "--", "Z(3)", "--json"],
    ["compute", "Z(3)", "--max-order", "\u0663"],
    ["table", "zn", "--max-n", "1_0"],
    ["table", "t8_3k", "--max-k", " 3"],
    ["table", "d4p", "--max-p=\u00b2"],
]


def _golden_argvs():
    with GOLDEN.open() as fh:
        return [json.loads(line)["argv"] for line in fh if line.strip()]


def _new_parse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = cli._parse_args(list(argv))
    except cli._UsageError:
        return cli.EXIT_USAGE
    return "help" if args is None else vars(args)


def _reference_parse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(reference_parser().parse_args(list(argv)))
    except ReferenceUsageError:
        return cli.EXIT_USAGE
    except SystemExit as exc:  # argparse exits 0 once it has printed help
        assert exc.code == 0
        return "help"


@pytest.mark.parametrize(
    "argv", _golden_argvs() + PARSER_EDGE_CASES, ids=lambda argv: " ".join(argv) or "<none>"
)
def test_parser_matches_the_argparse_reference(argv):
    """Same command, values and defaults, help from both, or a usage refusal
    from both."""
    assert _new_parse(argv) == _reference_parse(argv)


@pytest.mark.parametrize(
    "argv",
    [argv for argv in PARSER_EDGE_CASES if _reference_parse(argv) == cli.EXIT_USAGE],
    ids=lambda argv: " ".join(argv) or "<none>",
)
def test_usage_errors_print_a_usage_line_and_exit_1(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    first, second = err.splitlines()
    assert first.startswith("usage: thetadim")
    assert second.startswith("thetadim") and ": error: " in second


@pytest.mark.parametrize("value", ["\u0663", "1_0", " 3", "\u00b2"])
@pytest.mark.parametrize(
    "argv,option",
    [
        (["compute", "--method", "burnside", "Z(5)"], "max-order"),
        (["table", "zn"], "max-n"),
        (["table", "t8_3k"], "max-k"),
        (["table", "d4p"], "max-p"),
    ],
    ids=["compute", "table-zn", "table-t8_3k", "table-d4p"],
)
def test_an_int_option_takes_ascii_digits_only(capsys, argv, option, value):
    # int() alone takes other Unicode digits, underscores and whitespace
    rc, out, err = run(capsys, *argv, f"--{option}", value)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines()[1] == (
        f"thetadim {argv[0]}: error: --{option}: invalid int value {value!r}"
    )


def test_an_int_option_past_the_digit_limit_is_a_usage_error(capsys):
    value = "1" * (sys.get_int_max_str_digits() + 1)
    rc, out, err = run(capsys, "compute", "Z(5)", "--max-order", value)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines()[1].startswith("thetadim compute: error: --max-order: invalid int")


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["-v", "--he"], ["compute", "-h"], ["table", "zn", "--help"]]
)
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.startswith("usage: thetadim")
    command = next((a for a in argv if not a.startswith("-")), None)
    if command is None:
        assert all(name in out for name in ("compute", "verify", "table", "classes", "chartab"))
        assert "thetadim <command> -h" in out
    else:
        assert out.startswith(f"usage: thetadim {command} [-h]")
        assert "--max-order N" in out


# -- broken pipe, class-data cap, integrality ---------------------------------


@pytest.mark.parametrize("argv", [["classes", "Z(100000)"], ["chartab", "Z(11) x Dstar(9)"]])
def test_a_closed_stdout_pipe_ends_quietly(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetadim", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in err and err == ""


# runs `python -m thetadim argv` with an atexit probe registered first, which
# reports whether the process entry froze the collector's objects
_EXIT_PROBE = """
import atexit, gc, runpy, sys

atexit.register(lambda: print(f"frozen {gc.get_freeze_count() > 0}", file=sys.stderr))
sys.argv[0] = "thetadim"
runpy.run_module("thetadim", run_name="__main__")
"""


@pytest.mark.parametrize("argv,code", [(["compute", "Z(5)"], 0), (["compute", "Z(0)"], 1)])
def test_the_process_entry_freezes_and_exits_through_sys_exit(argv, code):
    """`run` freezes once `main` returns, and the process still ends through
    sys.exit: its exit code, its output and the atexit handlers all stand."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_PROBE, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "frozen True"
    if code == 0:
        assert "dim full       5" in proc.stdout


def test_main_in_process_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert main(["compute", "Z(5)"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)


@pytest.mark.parametrize("argv", [["classes", "Tprime(14)"], ["classes", "Z(10000001)"]])
def test_classes_refuses_orders_past_the_class_data_cap(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (cli.EXIT_RESOURCE, "")
    assert "class-data budget 10000000" in err


def test_the_class_data_cap_is_read_off_the_order_and_no_budget_lifts_it(capsys, monkeypatch):
    assert conjugacy.CLASS_DATA_MAX_ORDER == 10**7
    monkeypatch.setattr(conjugacy, "CLASS_DATA_MAX_ORDER", 120)
    assert conjugacy.class_data_for("Istar").num_classes == 9
    with pytest.raises(ResourceLimitError, match="class-data budget 120"):
        conjugacy.class_data_for("Z(121)")
    # class-mode burnside under an explicit order cap meets the same cap
    argv = ("compute", "Z(400)", "--method", "burnside", "--max-order", "1000")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (cli.EXIT_RESOURCE, "")
    assert "class-data budget 120" in err
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_class_routes_answer_below_the_class_data_cap(capsys):
    # order 1,728,000: chars and class-mode burnside under an explicit order
    # cap multiply their atoms' moment vectors and agree
    expr = "Istar x Istar x Istar"
    for argv in (("--method", "chars"), ("--method", "burnside", "--max-order", "2000000")):
        rc, out, _ = run(capsys, "compute", expr, *argv, "--json")
        assert rc == 0, argv
        data = json.loads(out)
        assert (data["order"], data["dim_Cpi"], data["dim_ker_eps"]) == (1728000, 3176448, 3175719)


@pytest.mark.parametrize("expr", ["Z(7) x Istar", "Z(11) x Dstar(9)"])
def test_class_level_routes_compose_no_product_class_data(capsys, monkeypatch, expr):
    # the routes multiply their atoms' moment vectors; `classes` and
    # `chartab`, which print the product's classes, still compose them
    calls = []
    for module in (conjugacy, characters):

        def counting(cd1, cd2, real=module.product_class_data):
            calls.append(cd1.order * cd2.order)
            return real(cd1, cd2)

        monkeypatch.setattr(module, "product_class_data", counting)
    for method in ("burnside", "chars"):
        assert run(capsys, "compute", "--method", method, expr)[0] == 0
    assert calls == []
    for command in ("classes", "chartab"):
        assert run(capsys, command, expr)[0] == 0
    assert calls == [group_order(expr)] * 2


@pytest.mark.parametrize("expr", ["Z(9973) x Dstar(5000)", "Z(1000) x Z(1000) x Z(10)"])
@pytest.mark.parametrize("method", ["burnside", "chars"])
def test_class_level_routes_answer_past_the_class_data_cap_of_a_product(capsys, method, expr):
    # orders 199,460,000 and 10^7: each atom is within the cap, and the
    # product costs the sum of its atoms
    start = time.perf_counter()
    rc, out, err = run(capsys, "compute", "--method", method, expr, "--json")
    assert (rc, err) == (0, "")
    assert time.perf_counter() - start < 1
    data = json.loads(out)
    assert data["order"] == group_order(expr)
    if expr.startswith("Z(9973)"):
        assert (data["dim_Cpi"], data["dim_ker_eps"]) == closed_dims(spec_from_expr(expr))
        assert (data["dim_Cpi"], data["dim_ker_eps"]) == (414668501272960, 414668476322999)
    else:  # not spherical: the other class-level route is the check
        other = "chars" if method == "burnside" else "burnside"
        rc, out, _ = run(capsys, "compute", "--method", other, expr, "--json")
        fields = ("num_classes", "d1", "d2", "dim_Cpi", "dim_ker_eps", "dim_classhat_Z2")
        assert rc == 0 and [json.loads(out)[f] for f in fields] == [data[f] for f in fields]


def test_burnside_integrality_check_exits_4(capsys, monkeypatch):
    # a plain sum that |G|^2 does not divide, on each path: compute reduces
    # the expression by classes, verify counts the pairs of its table
    message = "d1 for Z(3) is not a nonnegative integer: 1/54"
    for argv, group, name, fake in (
        # a moment vector whose plain sum is 1
        (("compute", "--method", "burnside", "Z(3)"), "Z(3)", "moments", lambda cd, t: (3, 3, 1, 1) + (0,) * 7),
        (("verify", "Z(3)"), group_from_expr("Z(3)"), "_naive_sums", lambda g: (1, 0, 0, 0, 3)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(burnside, name, fake)
            with pytest.raises(AssertionError, match=re.escape(message)):
                burnside.burnside_dims(group)
            rc, out, err = run(capsys, *argv)
        assert (rc, out) == (cli.EXIT_INTERNAL, ""), argv
        assert err == f"internal check failed: {message}\n"


def test_chars_dimension_integrality_check_exits_4(capsys, monkeypatch):
    # the chars route checks (d1 + d2)/2 with burnside's helper and message:
    # 6|G|^2 = 54 more in the plain sum is one more in d1
    real = characters.moments

    def one_more_d1(cd, t):
        vector = real(cd, t)
        return (*vector[:3], vector[3] + 54, *vector[4:])

    monkeypatch.setattr(characters, "moments", one_more_d1)
    rc, out, err = run(capsys, "compute", "--method", "chars", "Z(3)")
    assert (rc, out) == (cli.EXIT_INTERNAL, "")
    assert err == "internal check failed: dim for Z(3) is not an integer: 7/2\n"


@pytest.mark.parametrize("expr", ["Z(301)", "Dstar(125)"])
def test_verify_counts_the_pairs_of_every_table_it_builds(capsys, monkeypatch, expr):
    # above order 300 as below, burnside counts the table's pairs once and
    # reduces nothing by classes
    calls = []
    real = burnside._naive_sums

    def counting(group):
        calls.append(group.order)
        return real(group)

    def no_classes(expr):
        raise AssertionError("burnside reduced by classes")

    monkeypatch.setattr(burnside, "_naive_sums", counting)
    monkeypatch.setattr(burnside, "atom_classes", no_classes)
    rc, out, _ = run(capsys, "verify", expr)
    assert rc == 0
    assert out.splitlines()[-1].endswith("(5 methods)")
    assert calls == [group_order(expr)]


# -- route timing -------------------------------------------------------------

_FIRST_CLOCK_READ = """
import contextlib, io, json, sys
import thetadim.cli as cli

real = cli.time.perf_counter
seen = []


def clock():
    if not seen:
        seen.append(sorted(m for m in sys.modules if m.startswith("thetadim.")))
    return real()


cli.time.perf_counter = clock
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, seen[0]]))
"""

ROUTE_MODULES = {
    "closed": "closed_forms",
    "chars": "characters",
    "burnside": "burnside",
    "orbits": "burnside",
    "diagrams": "diagrams",
}


def _modules_at_first_clock_read(*argv: str) -> set[str]:
    """The thetadim modules loaded when `thetadim argv` first reads the clock,
    in a fresh interpreter, so that no earlier test has imported them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_CLOCK_READ, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    code, loaded = json.loads(out)
    assert code == 0, argv
    return set(loaded)


@pytest.mark.parametrize("method", sorted(ROUTE_MODULES))
def test_a_route_is_timed_after_its_module_is_loaded(method):
    # a route's time is its work: the import of its module comes before the clock
    loaded = _modules_at_first_clock_read("compute", "--method", method, "Dstar(9)")
    assert f"thetadim.{ROUTE_MODULES[method]}" in loaded


def test_verify_loads_every_route_module_before_timing_any():
    loaded = _modules_at_first_clock_read("verify", "Dstar(9)")
    assert {f"thetadim.{m}" for m in ROUTE_MODULES.values()} <= loaded
