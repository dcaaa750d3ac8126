"""Golden CLI outputs: argv, exit code and stdout, frozen before a refactor.

`golden_cli.jsonl` holds one record per call, `{"argv", "exit", "stdout"}`,
with timings masked by `mask`.  Replaying every record through `cli.main`
pins the rule that a refactor keeps outputs and exit codes the same.  To add a
call, append its record as produced by the code before the change.
"""

import json
import re
from pathlib import Path

import pytest

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
def test_cli_output_matches_golden(capsys, monkeypatch, record):
    monkeypatch.delenv("THETA_DIM_MAX_ORDER", raising=False)
    rc = main(list(record["argv"]))
    out = capsys.readouterr().out
    assert (rc, mask(out)) == (record["exit"], record["stdout"])
