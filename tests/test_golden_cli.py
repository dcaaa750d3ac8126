"""Golden CLI outputs: argv, exit code and stdout, frozen before a refactor.

`golden_cli.jsonl` holds one record per call, `{"argv", "exit", "stdout"}`,
with timings masked by `mask`.  Replaying every record through `cli.main`
pins the rule that a refactor keeps outputs and exit codes the same; a subset
is replayed through `python -m thetadim` too, so that the process entry keeps
them as well.  To add a call, append its record as produced by the code
before the change.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thetadim
from thetadim.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")

# a timing and the padding in front of it: the JSON "millis" value, the text
# report's "millis" line and the "<ms> ms" column of verify
_TIMINGS = [
    (re.compile(r'"millis": [0-9.e+-]+'), '"millis": <ms>'),
    (re.compile(r"^millis +\S+$", re.M), "millis <ms>"),
    (re.compile(r" +[0-9.]+ ms$", re.M), " <ms> ms"),
]


def mask(stdout: str) -> str:
    for pattern, repl in _TIMINGS:
        stdout = pattern.sub(repl, stdout)
    return stdout


def _records():
    with GOLDEN.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.mark.parametrize("record", _records(), ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_golden(capsys, record):
    rc = main(list(record["argv"]))
    out = capsys.readouterr().out
    assert (rc, mask(out)) == (record["exit"], record["stdout"])


def test_every_csv_record_has_one_width():
    # a field that holds a comma would split: CSV output is written unquoted
    records = [r for r in _records() if "--csv" in r["argv"] or r["argv"][:1] == ["table"]]
    assert len(records) > 20
    for record in records:
        widths = {len(row) for row in csv.reader(io.StringIO(record["stdout"]))}
        assert len(widths) <= 1, record["argv"]


# records replayed in a fresh process: every exit code, both output formats,
# and each command but compute at least once
PROCESS_REPLAY = [
    ("verify", "Dstar(2)"),
    ("compute", "Dstar(3)", "--method", "auto", "--json"),
    ("compute", "Z(500)", "--method", "burnside", "--csv"),
    ("table", "d4p", "--max-p", "4"),
    ("classes", "Tstar"),
    ("chartab", "--csv", "Tstar"),
    ("compute", "Z(20)", "--method", "burnside", "--max-order", "10"),
    ("compute", "Z(1001)", "--method", "orbits"),
    ("compute", "Z(5) + Tstar"),
    (),
]


def test_the_process_replay_covers_every_exit_code_and_format():
    records = {tuple(r["argv"]): r for r in _records()}
    chosen = [records[argv] for argv in PROCESS_REPLAY]
    assert {r["exit"] for r in chosen} == {0, 1, 3}
    words = {word for r in chosen for word in r["argv"]}
    assert {"--json", "--csv", "verify", "table", "classes", "chartab"} <= words


@pytest.mark.parametrize("argv", PROCESS_REPLAY, ids=" ".join)
def test_golden_records_replay_through_a_process(argv):
    record = next(r for r in _records() if tuple(r["argv"]) == argv)
    src = str(Path(thetadim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "thetadim", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, mask(proc.stdout)) == (record["exit"], record["stdout"])
