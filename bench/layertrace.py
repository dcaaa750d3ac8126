"""Per-layer tracing of one thetadim CLI call, run in a fresh interpreter.

Usage: python bench/layertrace.py {--trace|--plain} -- <thetadim argv...>

The child imports thetadim, and with --trace replaces each public layer
function listed in LAYERS, wherever a thetadim module binds it, with a timing
wrapper.  Nested calls therefore become child spans: the compute_classes inside
burnside_dims, the family constructors inside table_for.  It then calls
cli.main(argv) with stdout captured and prints one JSON object: the exit code,
the captured stdout, the in-process main time, the spans, the work counts and
the layer functions it could not find.  With --plain nothing is wrapped, so the
main time is the untraced reference for the tracing overhead.

Spans live in memory until main returns.  A layer's self time is its span
duration minus the durations of its direct child spans, so the self times of
one call sum to the duration of the root cli.main span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import defaultdict

# layer label -> (module under thetadim, public function) pairs timed as that layer
LAYERS: dict[str, list[tuple[str, str]]] = {
    "expr": [("expr", "parse_group_expr"), ("expr", "expr_to_string")],
    "group_core": [
        ("group_core", name)
        for name in (
            "group_from_expr",
            "construct_family",
            "direct_product",
            "cyclic_group",
            "binary_dihedral_group",
            "dprime_group",
            "tprime_group",
            "tstar_group",
            "ostar_group",
            "istar_group",
        )
    ],
    "coset_enum": [
        ("coset_enum", "group_from_presentation"),
        ("coset_enum", "enumerate_cosets"),
    ],
    "conjugacy": [
        ("conjugacy", name)
        for name in (
            "compute_classes",
            "product_class_data",
            "d1_class_formula",
            "z2_orbit_count",
        )
    ],
    "characters": [("characters", "table_for"), ("characters", "d2_char_formula")],
    "burnside.sums": [("burnside", "burnside_dims")],
    "burnside.orbits": [("burnside", "orbit_count_dims")],
    "diagrams": [("diagrams", "dim_A2")],
    "closed_forms": [
        ("closed_forms", name)
        for name in (
            "spec_from_expr",
            "closed_dims",
            "closed_order",
            "closed_class_count",
            "closed_z2_orbit",
        )
    ],
    "cli": [("cli", "main")],
}

# group_core functions whose result is a freshly built multiplication table;
# group_from_expr and construct_family only dispatch to these
_TABLE_BUILDERS = {
    "direct_product",
    "cyclic_group",
    "binary_dihedral_group",
    "dprime_group",
    "tprime_group",
    "tstar_group",
    "ostar_group",
    "istar_group",
}


def metric_name(layer: str) -> str:
    """Per-layer self-time metric name: 'conjugacy.self_ms', 'burnside.sums_self_ms'."""
    return f"{layer}_self_ms" if "." in layer else f"{layer}.self_ms"


COUNT_NAMES = (
    "burnside.orbit_triples",
    "burnside.terms",
    "characters.cells",
    "conjugacy.compute_classes_calls",
    "conjugacy.elements_scanned",
    "diagrams.states",
    "group_core.table_entries",
)


class Tracer:
    """Spans and work counts of one traced call, kept in memory."""

    def __init__(self) -> None:
        # each span is [layer, function, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        # classes of the most recent class data built, for burnside.terms
        self._last_classes = 0

    def wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack
        name = fn.__name__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([layer, name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][3] = start
                spans[index][4] = end
            self._count(name, args, result)
            return result

        return timed

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name in _TABLE_BUILDERS:
            counts["group_core.table_entries"] += result.order**2
        elif name in ("compute_classes", "product_class_data"):
            self._last_classes = result.num_classes
            if name == "compute_classes":
                counts["conjugacy.compute_classes_calls"] += 1
                counts["conjugacy.elements_scanned"] += result.order
        elif name == "table_for":
            counts["characters.cells"] += result.class_data.num_classes**2
        elif name == "burnside_dims":
            n = result.order
            terms = n * n if result.mode == "naive" else self._last_classes**2
            counts["burnside.terms"] += terms
        elif name == "orbit_count_dims":
            n = args[0].order
            counts["burnside.orbit_triples"] += (n + 2) * (n + 1) * n // 6
        elif name == "dim_A2":
            counts["diagrams.states"] += args[0].order ** 2


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS wherever thetadim binds it.

    Returns the 'module.function' names that thetadim no longer defines, so a
    renamed or moved layer function is reported instead of its time silently
    landing in the caller's self time.
    """
    wrappers = {}
    missing = []
    for layer, functions in LAYERS.items():
        for module, name in functions:
            try:
                fn = getattr(importlib.import_module(f"thetadim.{module}"), name)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{name}")
                continue
            wrappers[id(fn)] = tracer.wrap(fn, layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "thetadim" and not mod_name.startswith("thetadim."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return missing


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (layer, _, _, start, end), inner in zip(spans, child):
        totals[layer] += (end - start - inner) * 1000
    return dict(totals)


def run(argv: list[str], traced: bool) -> dict:
    """Call thetadim's cli.main(argv) in this process and describe the call."""
    import thetadim.cli

    tracer = Tracer()
    missing = install(tracer) if traced else []
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = thetadim.cli.main(argv)
        except Exception as exc:  # an uncaught error leaves the CLI with exit 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    main_ms = (time.perf_counter() - start) * 1000
    if traced and tracer.spans:
        root = tracer.spans[0]
        main_ms = (root[4] - root[3]) * 1000
    return {
        "exit": code,
        "stdout": captured.getvalue(),
        "main_ms": main_ms,
        "spans": tracer.spans,
        "counts": tracer.counts if traced else {},
        "missing": missing,
    }


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("--trace", "--plain") or sys.argv[2] != "--":
        sys.exit("usage: layertrace.py {--trace|--plain} -- <thetadim argv...>")
    print(json.dumps(run(sys.argv[3:], sys.argv[1] == "--trace")))
