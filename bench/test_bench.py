"""Self-check of the benchmark itself.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ENV = run.child_env()
EXPECTED = workloads.load_expected()
VERIFY_CALL = ["verify", "Dprime(3,3)"]
COMPUTE_CALL = ["compute", "--method", "burnside", "Z(11) x Dstar(9)"]


def test_default_seed_gives_the_documented_catalogs():
    assert workloads.catalog("verify_small", 0)[0] == ["verify", "Z(120)"]
    assert [argv[-1] for argv in workloads.catalog("chars_large", 0)] == [
        "Z(2000)",
        "Z(1000)",
        "Dstar(250)",
        "Tprime(4)",
        "Z(7) x Istar",
        "Z(11) x Dstar(9)",
        "Dprime(2,27)",
        "Z(13) x Istar",
    ]


def test_catalogs_are_seeded_and_fully_covered_by_frozen_answers():
    for name in workloads.WORKLOADS:
        for seed in range(20):
            catalog = workloads.catalog(name, seed)
            assert catalog == workloads.catalog(name, seed)
            assert all(argv[-1] in EXPECTED for argv in catalog)
    assert set(workloads.all_groups()) == set(EXPECTED)


def test_right_answers_pass():
    _, attempted, failed, setup_failed = run.measure_end_to_end(
        [VERIFY_CALL, COMPUTE_CALL], EXPECTED, 0, ENV
    )
    assert (attempted, failed, setup_failed) == (2, 0, 0)


@pytest.mark.parametrize(
    "argv, field",
    [
        (VERIFY_CALL, "dim"),
        (VERIFY_CALL, "routes"),
        (VERIFY_CALL, "exit"),
        (COMPUTE_CALL, "kernel"),
    ],
)
def test_wrong_expected_value_counts_as_failed_call(argv, field):
    wrong = copy.deepcopy(EXPECTED)
    wrong[argv[-1]][field] += 1
    _, attempted, failed, _ = run.measure_end_to_end([argv], wrong, 0, ENV)
    assert (attempted, failed) == (1, 1)


def test_traced_run_counts_wrong_answers_too():
    wrong = copy.deepcopy(EXPECTED)
    wrong[COMPUTE_CALL[-1]]["dim"] += 1
    _, attempted, failed = run.measure_layers([COMPUTE_CALL], wrong, 0, ENV)
    assert (attempted, failed) == (1, 1)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["cli", "main", -1, 0.0, 0.010],
        ["characters", "table_for", 0, 0.001, 0.004],
        ["conjugacy", "compute_classes", 1, 0.002, 0.003],
        ["conjugacy", "z2_orbit_count", 0, 0.005, 0.006],
    ]
    assert layertrace.self_times_ms(spans) == pytest.approx(
        {"cli": 6.0, "characters": 2.0, "conjugacy": 2.0}
    )


def traced_report(argv: list[str]) -> dict:
    call = run.spawn([sys.executable, str(run.LAYERTRACE), "--trace", "--", *argv], ENV)
    assert call.exit_code == 0, call.stdout
    return json.loads(call.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv", [VERIFY_CALL, COMPUTE_CALL, ["compute", "--method", "chars", "Z(7) x Istar"]]
)
def test_layer_self_times_sum_to_main_time(argv):
    report = traced_report(argv)
    assert report["exit"] == 0 and report["missing"] == []
    selfs = layertrace.self_times_ms(report["spans"])
    assert set(selfs) <= set(layertrace.LAYERS)
    assert min(selfs.values()) >= 0
    assert sum(selfs.values()) == pytest.approx(report["main_ms"], rel=1e-9)


def test_nested_layer_calls_become_child_spans():
    spans = traced_report(["compute", "--method", "chars", "Z(7) x Istar"])["spans"]
    parents = {
        (spans[parent][0], layer)
        for layer, _, parent, _, _ in spans
        if parent >= 0
    }
    assert ("characters", "conjugacy") in parents  # product_class_data in table_for
    assert ("characters", "group_core") in parents  # family constructors in table_for
    assert ("group_core", "coset_enum") in parents  # Istar by coset enumeration


def test_missing_layer_function_is_reported():
    code = (
        "import layertrace;"
        "layertrace.LAYERS['conjugacy'].append(('conjugacy', 'no_such_function'));"
        "print(layertrace.install(layertrace.Tracer()))"
    )
    env = dict(ENV, PYTHONPATH=f"{run.SRC}:{run.LAYERTRACE.parent}")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['conjugacy.no_such_function']"
