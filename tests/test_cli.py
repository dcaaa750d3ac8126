"""Command-line front end: exit codes, output formats, budget plumbing."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import thetadim.characters as characters
import thetadim.cli as cli
import thetadim.burnside as burnside
import thetadim.conjugacy as conjugacy
import thetadim.cyclo as cyclo
import thetadim.family_polyhedral as family_polyhedral
import thetadim.family_tprime as family_tprime
from catalogs import RANDOM_PRODUCTS_500
from oracles import ReferenceUsageError, reference_parser
from thetadim.cli import main
from thetadim.closed_forms import closed_dims, spec_from_expr
from thetadim.cyclo import from_int
from thetadim.group_core import FiniteGroup, ResourceLimitError, group_from_expr
from thetadim.normal_form import group_order
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

    monkeypatch.setattr(characters, "compute_classes", refuse)
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


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("THETA_DIM_MAX_ORDER", "10")
    rc, _, err = run(capsys, "compute", "Z(20)", "--method", "burnside")
    assert rc == 3
    assert "10" in err
    # an explicit flag wins over the environment
    rc, out, _ = run(capsys, "compute", "Z(20)", "--method", "burnside", "--json", "--max-order", "50")
    assert rc == 0
    assert json.loads(out)["dim_Cpi"] == 44


def test_env_budget_ignored_when_malformed(capsys, monkeypatch):
    monkeypatch.setenv("THETA_DIM_MAX_ORDER", "lots")
    rc, _, err = run(capsys, "compute", "Z(4)", "--method", "burnside")
    assert rc == 0
    assert "THETA_DIM_MAX_ORDER" in err


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
    real = cli._ROUTES["orbits"]

    def lying_route(group, max_order):
        order, classes, d1, d2, dim, z2 = real(group, max_order)
        return order, classes, d1, d2, dim + 1, z2

    monkeypatch.setitem(cli._ROUTES, "orbits", lying_route)
    rc, out, _ = run(capsys, "verify", "Dstar(2)")
    assert rc == 2
    assert "MISMATCH" in out


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


def test_verify_finds_the_classes_of_its_table_once(capsys, monkeypatch):
    # orbits and diagrams read the class count and z2 off one computation
    calls = []
    real = conjugacy.compute_classes

    def counting(group):
        calls.append(group.order)
        return real(group)

    # cli imports compute_classes from conjugacy when verify runs
    monkeypatch.setattr(conjugacy, "compute_classes", counting)
    rc, out, _ = run(capsys, "verify", "Dstar(6)")
    assert rc == 0
    assert "agree: dim 30, kernel 21 (5 methods)" in out
    assert calls == [24]


def test_verify_finds_the_classes_of_an_order_1000_table_once(capsys, monkeypatch):
    # burnside counts the pairs of the largest table and finds no classes;
    # orbits and diagrams read the table's classes off one computation, and
    # the chars route's own call on the Z(1000) rule stays
    calls = []
    for module in (conjugacy, characters):

        def counting(group, real=module.compute_classes):
            calls.append(type(group).__name__)
            return real(group)

        monkeypatch.setattr(module, "compute_classes", counting)
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
    """Replace a family's characters so that its integer sums pass through `edit`."""
    family = importlib.import_module(f"thetadim.{module}")
    original = family.rows_and_sums

    def rows_and_sums(atom, group):
        rows, sums = original(atom, group)
        return rows, lambda cd: edit(*sums(cd))

    monkeypatch.setattr(family, "rows_and_sums", rows_and_sums)


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


@pytest.mark.parametrize("command", [["compute", "--method", "chars"], ["chartab"], ["verify"]])
def test_invalid_parameters_are_a_usage_error(capsys, command):
    rc, out, err = run(capsys, *command, "Dprime(30,4)")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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
    # cap compose the class data per atom and agree
    expr = "Istar x Istar x Istar"
    for argv in (("--method", "chars"), ("--method", "burnside", "--max-order", "2000000")):
        rc, out, _ = run(capsys, "compute", expr, *argv, "--json")
        assert rc == 0, argv
        data = json.loads(out)
        assert (data["order"], data["dim_Cpi"], data["dim_ker_eps"]) == (1728000, 3176448, 3175719)


def test_burnside_integrality_check_exits_4(capsys, monkeypatch):
    # a plain sum that |G|^2 does not divide, on each path: compute reduces
    # the expression by classes, verify counts the pairs of its table
    message = "d1 for Z(3) is not a nonnegative integer: 1/54"
    for argv, group, name, fake in (
        (("compute", "--method", "burnside", "Z(3)"), "Z(3)", "plain_trace_sums", lambda cd: (1, 0)),
        (("verify", "Z(3)"), group_from_expr("Z(3)"), "_naive_sums", lambda g: (1, 0, 0, 0, 3)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(burnside, name, fake)
            with pytest.raises(AssertionError, match=re.escape(message)):
                burnside.burnside_dims(group)
            rc, out, err = run(capsys, *argv)
        assert (rc, out) == (cli.EXIT_INTERNAL, ""), argv
        assert err == f"internal check failed: {message}\n"


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
    monkeypatch.setattr(burnside, "class_data_for", no_classes)
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
    env.pop("THETA_DIM_MAX_ORDER", None)
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
