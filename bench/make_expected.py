"""Regenerate bench/expected.json, the frozen answers the benchmark checks against.

Usage (from the repository root): python3 bench/make_expected.py

For every pool member of every workload it runs `thetadim verify` and keeps
the agreed (dim, kernel) with the number of routes that ran, and the exit
code of each route the workloads call.  Where the closed form applies it
cross-checks the answer against closed_dims in this process.  Run it only
when a pool changes: the file is meant to stay fixed while the program
changes, so a wrong answer shows as a failed call.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))

from thetadim.closed_forms import SphericalMatchError, closed_dims, spec_from_expr  # noqa: E402


def expected_for(group: str, env) -> dict[str, int]:
    call = run.spawn([sys.executable, "-m", "thetadim", "verify", group], env)
    match = workloads.AGREE_LINE.search(call.stdout)
    if call.exit_code != 0 or match is None:
        raise SystemExit(f"verify {group} did not agree:\n{call.stdout}")
    dim, kernel, routes = (int(v) for v in match.groups())
    try:
        closed = closed_dims(spec_from_expr(group))
    except SphericalMatchError:
        closed = None
    if closed is not None and closed != (dim, kernel):
        raise SystemExit(f"{group}: verify gives {(dim, kernel)}, closed_dims {closed}")
    return {"dim": dim, "kernel": kernel, "exit": 0, "routes": routes}


def main() -> None:
    env = run.child_env()
    expected = {}
    for group in workloads.all_groups():
        expected[group] = expected_for(group, env)
        print(group, expected[group], flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
