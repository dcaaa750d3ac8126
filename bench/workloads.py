"""Seeded catalogs of thetadim CLI calls, their frozen answers and the output check.

Each catalog slot holds a pool of like-sized groups of one family shape, all
inside the route's budgets (pair order <= 2000, product table <= 10^6 entries,
orbit order <= 150, diagram order <= 120).  Seed 0 takes the first member of
every pool, which is the default catalog; any other seed draws one member per
slot.  Pool members were kept only where their cost on the slot's routes is
close to the first member's, so that the seed varies the inputs without
varying the amount of work much.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# verify runs all five routes; everything here is of order <= 120
VERIFY_SLOTS = [
    ["Z(120)", "Z(119)", "Z(118)", "Z(117)", "Z(116)"],
    ["Dstar(30)", "Dstar(29)"],
    ["Dprime(2,7)"],
    ["Dprime(3,3)"],
    ["Istar"],
    ["Z(5) x Tstar"],
    ["Z(5) x Dstar(4)", "Z(7) x Dstar(3)", "Z(3) x Dstar(7)"],
    ["Z(7) x Dstar(4)"],
    # not spherical: no closed form, so verify runs four routes
    ["Z(3) x Tstar"],
    ["Z(6) x Z(10)", "Z(2) x Z(30)", "Z(3) x Z(21)"],
]

# orders 396-2000, inside the pair budget and the product-table budget
LARGE_SLOTS = [
    ["Z(2000)", "Z(1999)", "Z(1997)", "Z(1993)", "Z(1992)"],
    ["Z(1000)", "Z(998)", "Z(996)", "Z(992)"],
    ["Dstar(250)", "Dstar(248)", "Dstar(254)"],
    ["Tprime(4)"],
    # Z(11) x Istar would exceed the 10^6-entry product budget
    ["Z(7) x Istar"],
    ["Z(11) x Dstar(9)"],
    ["Dprime(2,27)", "Dprime(3,13)"],
]

# refused by burnside (product budget); chars composes its classes instead
CHARS_ONLY_SLOTS = [["Z(13) x Istar"]]

WORKLOADS = {
    "verify_small": (["verify"], VERIFY_SLOTS),
    "burnside_large": (["compute", "--method", "burnside"], LARGE_SLOTS),
    "chars_large": (["compute", "--method", "chars"], LARGE_SLOTS + CHARS_ONLY_SLOTS),
}


def catalog(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists for this seed, one per slot."""
    prefix, slots = WORKLOADS[workload]
    rng = random.Random(seed)
    return [[*prefix, pool[0] if seed == 0 else rng.choice(pool)] for pool in slots]


def all_groups() -> list[str]:
    """Every pool member of every workload, each once."""
    groups = []
    for _, slots in WORKLOADS.values():
        for pool in slots:
            groups.extend(g for g in pool if g not in groups)
    return groups


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict[str, int]]:
    """Frozen answers: group -> {"dim", "kernel", "exit", "routes"}."""
    with open(path) as fh:
        return json.load(fh)


AGREE_LINE = re.compile(r"^agree: dim (\d+), kernel (\d+) \((\d+) methods\)$", re.M)
_DIM = re.compile(r"^dim full\s+(\d+)$", re.M)
_KERNEL = re.compile(r"^dim kernel\s+(\d+)$", re.M)


def check_output(
    argv: list[str], exit_code: int, stdout: str, expected: dict[str, dict[str, int]]
) -> str | None:
    """Why one call's result is wrong, or None when it matches the frozen answer.

    verify must also report the expected number of routes run, so a change
    that makes verify skip a route fails instead of looking faster.
    """
    want = expected[argv[-1]]
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, expected {want['exit']}"
    if argv[0] == "verify":
        match = AGREE_LINE.search(stdout)
        if match is None:
            return "no agreement line in verify output"
        got = tuple(int(v) for v in match.groups())
        wanted = (want["dim"], want["kernel"], want["routes"])
        what = "(dim, kernel, routes)"
    else:
        dim, kernel = _DIM.search(stdout), _KERNEL.search(stdout)
        if dim is None or kernel is None:
            return "no dimension lines in compute output"
        got = (int(dim.group(1)), int(kernel.group(1)))
        wanted = (want["dim"], want["kernel"])
        what = "(dim, kernel)"
    if got != wanted:
        return f"{what} is {got}, expected {wanted}"
    return None
