"""thetadim benchmark: seeded catalogs of real CLI calls, checked and timed.

Usage (from the repository root):

    python3 bench/run.py --workload verify_small --seed 0 --seconds 42 --trace 0

Every call is a fresh `python -m thetadim ...` child run to completion before
the next starts (a closed loop with one client), because that is what a user
pays: module caches start cold in every CLI process.  The catalog repeats for
about --seconds; each call's time is the median over its repeats.

--trace 0 reports the end-to-end metrics: catalog_s (spawn-to-exit wall time
of the catalog), peak_rss_mb (largest peak RSS of one call) and setup_s (a
child that only imports thetadim), with both times scaled by the calibration
child below.  --trace 1 runs each call in a fresh child under
bench/layertrace.py and reports per-layer self times and work counts, plus the
tracing overhead against an untraced in-process run of the same call.  The
last line of standard output is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERTRACE = Path(__file__).resolve().with_name("layertrace.py")

# A fixed pure-Python child that never imports thetadim: interpreter start,
# an 8 MB list, integer arithmetic, indexing and dict stores.  It runs after
# every call, and its median time in a run measures how fast the shared
# machine is during that run.  That speed drifts by up to about 30% over
# minutes; the calibration tracks it to within about 8%.  So the timed
# metrics are scaled to a machine on which the calibration takes
# CALIBRATION_REF_S.  The program cannot change the calibration.
CALIBRATION = (
    "t = [0] * 1_000_000\n"
    "d = {}\n"
    "acc = 0\n"
    "for i in range(120_000):\n"
    "    j = (i * 2654435761) % 1_000_000\n"
    "    t[j] = i\n"
    "    acc += t[(j * 7) % 1_000_000] % 97\n"
    "    if i % 7 == 0:\n"
    "        d[i % 1024] = (acc, j)\n"
)
CALIBRATION_REF_S = 0.2
SETUP = "import thetadim"
# a single call that runs this long is killed and counted as failed
CALL_TIMEOUT_S = 150.0


@dataclass
class Call:
    wall_s: float
    exit_code: int
    stdout: str
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the budgets must be the CLI defaults for the frozen answers to hold
    env.pop("THETA_DIM_MAX_ORDER", None)
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> Call:
    """Run one child to completion; wall time is spawn to exit.

    Peak RSS and exit status come from os.wait4 on this child alone:
    RUSAGE_CHILDREN would give the running maximum over all earlier children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT
    )
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss)


def schedule(catalog: list[list[str]], seconds: float):
    """Yield (slot, argv) round-robin for about `seconds`.

    The first full pass always runs.  After it, a call starts only if its
    previous run would still fit before the deadline.
    """
    deadline = time.perf_counter() + seconds
    last = [0.0] * len(catalog)
    for n, (slot, argv) in enumerate(itertools.cycle(enumerate(catalog))):
        start = time.perf_counter()
        if n >= len(catalog) and start + last[slot] > deadline:
            return
        yield slot, argv
        last[slot] = time.perf_counter() - start


def report_failure(argv: list[str], problem: str, output: str) -> None:
    print(f"FAILED thetadim {' '.join(argv)}: {problem}", file=sys.stderr)
    for line in output.strip().splitlines()[-5:]:
        print(f"    {line}", file=sys.stderr)


def measure_end_to_end(catalog, expected, seconds, env):
    """Untraced calls, each followed by one setup child and one calibration child.

    Returns the metrics, the catalog calls attempted and failed, and the
    setup children that failed.
    """
    walls = defaultdict(list)
    rss = defaultdict(list)
    setup = []
    calibration = []
    attempted = failed = setup_failed = 0
    spawn([sys.executable, "-c", SETUP], env)  # writes the bytecode cache
    for slot, argv in schedule(catalog, seconds):
        call = spawn([sys.executable, "-m", "thetadim", *argv], env)
        attempted += 1
        problem = workloads.check_output(argv, call.exit_code, call.stdout, expected)
        if problem:
            failed += 1
            report_failure(argv, problem, call.stdout)
        walls[slot].append(call.wall_s)
        rss[slot].append(call.maxrss_kb)
        start = spawn([sys.executable, "-c", SETUP], env)
        setup_failed += start.exit_code != 0
        setup.append(start.wall_s)
        calibration.append(spawn([sys.executable, "-c", CALIBRATION], env).wall_s)
    wall_s = sum(statistics.median(w) for w in walls.values())
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    print(
        f"unscaled: catalog {wall_s:.4f} s, setup {statistics.median(setup):.4f} s;"
        f" calibration child {CALIBRATION_REF_S / speed:.4f} s"
    )
    metrics = {
        "catalog_s": (wall_s * speed, "s"),
        "peak_rss_mb": (max(statistics.median(r) for r in rss.values()) / 1024, "MB"),
        "setup_s": (statistics.median(setup) * speed, "s"),
    }
    return metrics, attempted, failed, setup_failed


def traced_call(argv: list[str], mode: str, expected, env) -> dict | None:
    """One call under bench/layertrace.py; its report, or None if the call failed."""
    call = spawn([sys.executable, str(LAYERTRACE), mode, "--", *argv], env)
    lines = call.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if call.exit_code == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        report_failure(argv, f"{mode} child did not report", call.stdout)
        return None
    problem = workloads.check_output(argv, result["exit"], result["stdout"], expected)
    if problem:
        report_failure(argv, problem, result["stdout"])
        return None
    return result


def measure_layers(catalog, expected, seconds, env):
    """Per-layer self times and counts, summed over the catalog.

    Each call runs twice, each time in a fresh child: traced, then untraced
    in-process for the overhead reference.
    """
    samples = defaultdict(lambda: defaultdict(list))
    attempted = failed = 0
    missing: set[str] = set()
    for slot, argv in schedule(catalog, seconds):
        attempted += 1
        traced = traced_call(argv, "--trace", expected, env)
        plain = traced_call(argv, "--plain", expected, env)
        if traced is None or plain is None:
            failed += 1
            continue
        missing.update(traced["missing"])
        per_call = samples[slot]
        selfs = layertrace.self_times_ms(traced["spans"])
        for layer in layertrace.LAYERS:
            per_call[layertrace.metric_name(layer)].append(selfs.get(layer, 0.0))
        for name, value in traced["counts"].items():
            per_call[name].append(value)
        per_call["traced_ms"].append(traced["main_ms"])
        per_call["plain_ms"].append(plain["main_ms"])

    def total(name):
        return sum(statistics.median(s[name]) for s in samples.values() if s[name])

    metrics = {}
    for layer in layertrace.LAYERS:
        name = layertrace.metric_name(layer)
        metrics[name] = (total(name), "ms")
    for name in layertrace.COUNT_NAMES:
        metrics[name] = (total(name), "count")
    plain_ms = total("plain_ms")
    overhead = total("traced_ms") / plain_ms - 1 if plain_ms else 0.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.missing_functions"] = (len(missing), "count")
    if missing:
        print(
            "trace: layer functions not found in thetadim: " + ", ".join(sorted(missing)),
            file=sys.stderr,
        )
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetadim" / "__init__.py").is_file():
        print(f"no thetadim sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    catalog = workloads.catalog(args.workload, args.seed)
    expected = workloads.load_expected()

    setup_failed = 0
    if args.trace:
        metrics, attempted, failed = measure_layers(catalog, expected, args.seconds, env)
        metrics["ops_failed_frac"] = (failed / attempted, "fraction")
    else:
        metrics, attempted, failed, setup_failed = measure_end_to_end(
            catalog, expected, args.seconds, env
        )

    print(f"workload {args.workload}, seed {args.seed}:")
    for call_argv in catalog:
        print(f"  thetadim {' '.join(call_argv)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if not args.trace:
        # 0 whenever the program is right, so it is no end-to-end metric; the
        # result line carries it as failed / attempted
        print(f"  {'ops_failed_frac':<34} {failed / attempted:>14.6g} fraction")
        # the setup children count as calls too
        attempted *= 2
        failed += setup_failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
