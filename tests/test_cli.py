"""Command-line front end: exit codes, output formats, budget plumbing."""

import json

import pytest

import thetadim.characters as characters
import thetadim.cli as cli
from catalogs import RANDOM_PRODUCTS_500
from thetadim.cli import main
from thetadim.cyclo import from_rational
from thetadim.group_core import FiniteGroup
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
    rc, _, err = run(capsys, "compute", "Z(151)", "--method", "orbits")
    assert rc == 3
    assert "resource limit" in err


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
    rc, out, _ = run(capsys, "verify", "Z(500)")
    assert rc == 0
    assert "skipped" in out
    assert "agree: dim" in out


def test_verify_skips_closed_form_for_non_spherical(capsys):
    rc, out, _ = run(capsys, "verify", "Z(4) x Dstar(3)")
    assert rc == 0
    assert "closed" in out and "skipped" in out
    assert "agree: dim 86, kernel 70 (4 methods)" in out


def test_verify_reports_mismatch(capsys, monkeypatch):
    # corrupt one route to prove disagreement is detected and coded 2
    real = cli._ROUTES["orbits"]

    def lying_route(group, budgets):
        order, classes, d1, d2, dim, z2 = real(group, budgets)
        return order, classes, d1, d2, dim + 1, z2

    monkeypatch.setitem(cli._ROUTES, "orbits", lying_route)
    rc, out, _ = run(capsys, "verify", "Dstar(2)")
    assert rc == 2
    assert "MISMATCH" in out


def test_verify_builds_one_table(capsys, monkeypatch):
    # burnside, orbits and diagrams share one table; closed and chars build none
    built = []
    real_init = FiniteGroup.__init__

    def counting(self, order, *args, **kwargs):
        built.append(order)
        real_init(self, order, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    rc, out, _ = run(capsys, "verify", "Dstar(6)")
    assert rc == 0
    assert "agree: dim 30, kernel 21 (5 methods)" in out
    assert built == [24]


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
    # zeroing i makes two non-real rows of Dstar(3) look real, so the
    # library's Brauer count check fails inside the character layer
    monkeypatch.setattr(characters, "sqrt_minus_one", lambda: from_rational(0))
    rc, _, err = run(capsys, *argv)
    assert rc == cli.EXIT_INTERNAL == 4
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal check failed: Dstar(3):")
    assert "Traceback" not in err
