"""Package surface: the exported names are the ones README documents, and every
other name a submodule exports is used by library code."""

import ast
import doctest
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import thetadim

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_every_exported_name_is_documented_in_readme_library():
    section = _library_section()
    undocumented = [
        name for name in thetadim.__all__ if not re.search(rf"`{name}\b", section)
    ]
    assert undocumented == []


def test_readme_module_map_names_every_module():
    """Each bullet of README's module map starts with the modules it describes,
    up to its dash; together they are the package's modules, apart from
    `__init__` and `__main__`, and no others."""
    text = README.read_text()
    start = text.index("Module map (`src/thetadim/`):")
    block = text[start : text.index("\n\n", text.index("\n- ", start))]
    heads = re.findall(r"^- (.*?) —", block, re.M | re.S)
    named = [name for head in heads for name in re.findall(r"`(\w+)`", head)]
    modules = [
        path.stem
        for path in Path(thetadim.__file__).parent.glob("*.py")
        if not path.stem.startswith("__")
    ]
    assert sorted(named) == sorted(modules)


def _library_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(thetadim.__file__).parent.glob("*.py"))
    }


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return ast.literal_eval(node.value)
            except ValueError:  # computed, as thetadim.__all__ is
                return []
    return []


def _top_level_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module binds at top level by def, class or assignment,
    and those it binds by import."""
    defined, imported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return defined, imported


def test_every_submodule_export_is_defined_where_it_is_exported():
    """A submodule's `__all__` lists only names the module itself defines, so
    each name has one home; a name it imports is exported by its own module."""
    misplaced = []
    for stem, tree in _library_modules().items():
        defined, imported = _top_level_names(tree)
        misplaced += [
            f"{stem}.{name}"
            for name in _exports(tree)
            if name in imported or name not in defined
        ]
    assert misplaced == []


def _attribute_counts(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_submodule_export_is_used_by_library_code():
    """A name exported only for the tests belongs in tests/, not in the library.

    A use is a load of the name (or of an attribute so named) anywhere in the
    library outside the name's own top-level definition; imports and the
    strings of `__all__` do not count.  The same holds for the public methods
    and properties of library classes: each must be read as an attribute
    somewhere in the library outside its own body.
    """
    modules = _library_modules()
    users: dict[str, set[tuple[str, str]]] = {}
    for stem, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", "")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add((stem, owner))
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add((stem, owner))
    unused = [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in _exports(tree)
        if name not in thetadim.__all__ and not users.get(name, set()) - {(stem, name)}
    ]
    attributes = sum((_attribute_counts(tree) for tree in modules.values()), Counter())
    unused += [
        f"{stem}.{top.name}.{method.name}"
        for stem, tree in modules.items()
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for method in top.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and attributes[method.name] == _attribute_counts(method)[method.name]
    ]
    assert unused == []


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_orbit_and_diagram_walks_share_no_code():
    """verify's orbit and diagram routes must enumerate independently.

    Neither module imports the other, and neither walk references a library
    function or method: each takes a table and reads its rows, inverses and
    generators, so no batching helper can be shared through a third module
    either.
    """
    modules = _library_modules()
    assert "diagrams" not in _imported_modules(modules["burnside"])
    assert "burnside" not in _imported_modules(modules["diagrams"])
    library_functions = {
        node.name
        for tree in modules.values()
        for top in tree.body
        for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
        if isinstance(node, ast.FunctionDef)
    }
    for stem, name in (("burnside", "orbit_count_dims"), ("diagrams", "dim_A2")):
        nodes = list(ast.walk(_function(modules[stem], name)))
        # a local such as `inv` or `mul` is no reference to the method so named
        local = {node.arg for node in nodes if isinstance(node, ast.arg)}
        local |= {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
        local |= {
            node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        referenced = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        referenced |= {node.id for node in nodes if isinstance(node, ast.Name)} - local
        assert referenced & library_functions == set(), name


def test_naive_pair_sums_iterate_every_pair():
    """The naive burnside mode is the trusted reference, so its trace sums run
    over all n^2 pairs (g, h): a loop over range(n) nested in another, with no
    early exit."""
    tree = _function(_library_modules()["burnside"], "_naive_sums")

    def loops_over_all(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.For)
            and ast.unparse(node.target) == name
            and ast.unparse(node.iter) == "range(n)"
        )

    outer = next(node for node in ast.walk(tree) if loops_over_all(node, "g"))
    assert any(loops_over_all(node, "h") for node in ast.walk(outer))
    assert not any(isinstance(node, (ast.Break, ast.Return)) for node in ast.walk(outer))
    assert "n = group.order" in [ast.unparse(node) for node in tree.body]


def _module_aliases(nodes) -> tuple[dict[str, str], dict[str, str]]:
    """(name -> "module.name", variable -> module) for the imports among
    `nodes`: `from .m import f` binds f, and `from . import m` or
    `v = load("m")` binds a module, whose attributes are then resolved."""
    names, modules = {}, {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Assign) and _loaded_module(node.value):
            modules.update((t.id, _loaded_module(node.value)) for t in node.targets)
    return names, modules


def _loaded_module(node: ast.AST) -> str | None:
    """"m" for the expression `load("m")`, "family_*" for `family(...)`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "load" and isinstance(node.args[0], ast.Constant):
            return node.args[0].value
        if node.func.id == "family":
            return "family_*"
    return None


def _call_graph() -> dict[str, set[str]]:
    """Each library function, class, method and module constant, as
    "module.name" or "module.Class.method", mapped to the library names its
    body references.

    A name resolves within its module or through an import, at top level or
    at call time; an attribute of a module, imported or loaded, resolves in
    that module, and one of `family(kind)` in every family module.  A class
    references its bases and methods.  Annotations are not followed, and
    neither is a method called on an object, which is data the caller built.
    """
    modules = _library_modules()
    graph: dict[str, set[str]] = {}
    for stem, tree in modules.items():
        outside = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        top_names, top_modules = _module_aliases(n for s in outside for n in ast.walk(s))
        defined, _ = _top_level_names(tree)

        def references(body: list[ast.AST], args: ast.arguments | None = None) -> set[str]:
            nodes = [n for part in body for n in ast.walk(part)]
            names, loaded = _module_aliases(nodes)
            names, loaded = top_names | names, top_modules | loaded
            local = {n.arg for n in ([*ast.walk(args)] if args else []) + nodes if isinstance(n, ast.arg)}
            local |= {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            found = set()
            for n in nodes:
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
                    if n.id in names:
                        found.add(names[n.id])
                    elif n.id in defined:
                        found.add(f"{stem}.{n.id}")
                elif isinstance(n, ast.Attribute):
                    module = _loaded_module(n.value)
                    if isinstance(n.value, ast.Name) and n.value.id in loaded:
                        module = loaded[n.value.id]
                    if module == "family_*":
                        found.update(f"{m}.{n.attr}" for m in modules if m.startswith("family_"))
                    elif module is not None:
                        found.add(f"{module}.{n.attr}")
            return found

        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                graph[f"{stem}.{top.name}"] = references(top.body, top.args)
            elif isinstance(top, ast.ClassDef):
                methods = [n for n in top.body if isinstance(n, ast.FunctionDef)]
                graph[f"{stem}.{top.name}"] = references(top.bases) | {
                    f"{stem}.{top.name}.{m.name}" for m in methods
                }
                for m in methods:
                    graph[f"{stem}.{top.name}.{m.name}"] = references(m.body, m.args)
            elif isinstance(top, ast.Assign):
                for target in top.targets:
                    if isinstance(target, ast.Name) and target.id != "__all__":
                        graph[f"{stem}.{target.id}"] = references([top.value])
    return graph


def _closure(graph: dict[str, set[str]], entries: list[str]) -> set[str]:
    seen, stack = set(), list(entries)
    while stack:
        name = stack.pop()
        if name in graph and name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


# what the independent routes may share, each with why it cannot carry a wrong count
_SHARED = {
    "conjugacy.pair_average": "divides a sum by 6|G|^2 and checks the remainder",
    "conjugacy.half_sum": "halves d1 + d2 and checks the remainder",
    "normal_form.int_text": "formats a value, or names the bound past the digit limit",
    "normal_form.power": "takes 2^k or 3^k, or the bound past the digit limit",
    "normal_form.ResourceLimitError": "the record of a refusal, which carries no count",
    "burnside.BurnsideResult": "the record of a result, which computes nothing",
    "report.DimensionReport": "the record of a report, which computes nothing",
}
# the class-level layer and the table builder, which no independent route reaches
_CLASS_LAYER = ("conjugacy", "characters", "group_core", "coset_enum", "family_")
_INDEPENDENT = {
    "closed form": ["cli._closed"],
    "naive pair counting": ["burnside._naive_sums"],
    "orbit and diagram walks": ["burnside.orbit_count_dims", "diagrams.dim_A2"],
}


def test_the_independent_routes_share_no_code_past_group_construction():
    """The closed form, naive pair counting and the two walks check each other
    in verify, so what each computes must come from its own code.  Their
    closures in the static call graph are pairwise disjoint apart from
    `_SHARED`, and none reaches the class-level layer, whose class data and
    moment sums the character and class-mode burnside routes compute."""
    graph = _call_graph()
    assert set(_SHARED) <= set(graph)
    closures = {side: _closure(graph, entries) for side, entries in _INDEPENDENT.items()}
    assert {"closed_forms.closed_dims", "closed_forms.spec_from_expr"} <= closures["closed form"]
    for side, closure in closures.items():
        reached = sorted(name for name in closure - set(_SHARED) if name.startswith(_CLASS_LAYER))
        assert reached == [], side
    sides = list(closures)
    for i, first in enumerate(sides):
        for second in sides[i + 1 :]:
            shared = closures[first] & closures[second] - set(_SHARED)
            assert shared == set(), (first, second)


_INEXACT_MODULES = {"random", "fractions", "decimal", "statistics"}


def _inexact(tree: ast.AST) -> list[str]:
    """Each construct in `tree` through which a float or a sampled value could
    enter a computed value: a float literal, a true division, a call to
    `float` or `round`, or an import of a module of inexact or random
    numbers.  `Fraction` is among them: the library keeps every value an int."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            bad = True
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            bad = isinstance(node.op, ast.Div)
        elif isinstance(node, ast.Call):
            bad = isinstance(node.func, ast.Name) and node.func.id in ("float", "round")
        elif isinstance(node, ast.Import):
            bad = any(a.name.partition(".")[0] in _INEXACT_MODULES for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").partition(".")[0] in _INEXACT_MODULES
        else:
            bad = False
        if bad:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_guard_finds_every_inexact_construct():
    for source in (
        "x = 0.5",
        "x = a / b",
        "x /= 2",
        "x = float(a)",
        "x = round(a)",
        "import random",
        "import decimal as d",
        "from fractions import Fraction",
        "from statistics import mean",
    ):
        assert _inexact(ast.parse(source)), source
    assert _inexact(ast.parse("x = a // b * 1000 - (y := 2)\nimport math")) == []


def test_only_group_core_constructs_a_finite_group():
    """Every table is filled by `group_core._tabulate`, so no other module
    calls `FiniteGroup` or `_tabulate`; coset enumeration hands back a rule
    and imports nothing from `group_core`."""
    modules = _library_modules()
    builders = {
        stem
        for stem, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and {"FiniteGroup", "_tabulate"}
        & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    }
    assert builders == {"group_core"}
    assert "group_core" not in _imported_modules(modules["coset_enum"])


def test_the_library_computes_no_inexact_value():
    """Exactness is fixed: no float, true division, rounding or sampling
    anywhere in the library.  The report's `millis` is a `perf_counter`
    difference times the int 1000."""
    found = {stem: _inexact(tree) for stem, tree in _library_modules().items()}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_the_library_parses_as_python_3_10():
    """pyproject and README promise Python 3.10+, so no module may use the
    syntax of a later version, such as `except*` or a `type` statement."""
    for path in sorted(Path(thetadim.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    for later in ("try:\n    pass\nexcept* E:\n    pass\n", "type X = int\n"):
        with pytest.raises(SyntaxError):
            ast.parse(later, feature_version=(3, 10))


def _hard_exits(tree: ast.AST) -> list[str]:
    """Each use in `tree` of `_exit`, which ends the process without the
    interpreter's exit: no atexit handler, no flush of the standard streams,
    so `coverage run -m thetadim` and `python -m cProfile -m thetadim` would
    lose their output."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            bad = node.attr == "_exit"
        elif isinstance(node, ast.ImportFrom):
            bad = any(alias.name == "_exit" for alias in node.names)
        else:
            bad = False
        if bad:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_ends_the_process_without_the_interpreter_exit():
    for source in ("os._exit(0)", "import os as o\no._exit(1)", "from os import _exit as e"):
        assert _hard_exits(ast.parse(source)), source
    assert _hard_exits(ast.parse("import os, sys\nsys.exit(os.EX_OK)")) == []
    found = {stem: _hard_exits(tree) for stem, tree in _library_modules().items()}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.AST) -> list[str]:
    """Each use in `tree` of `os.environ`, `os.getenv` or their bytes forms:
    the command line's options are the program's only settings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            bad = node.attr in _ENVIRONMENT_NAMES
        elif isinstance(node, ast.ImportFrom):
            bad = any(alias.name in _ENVIRONMENT_NAMES for alias in node.names)
        else:
            bad = False
        if bad:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_reads_the_environment():
    for source in (
        "import os\nos.environ.get('X')",
        "import os as o\no.getenv('X')",
        "from os import environ",
        "from os import getenv as g",
        "os.environb[b'X']",
    ):
        assert _environment_reads(ast.parse(source)), source
    assert _environment_reads(ast.parse("import os\nos.dup2(os.open(os.devnull, 1), 1)")) == []
    found = {stem: _environment_reads(tree) for stem, tree in _library_modules().items()}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_the_installed_command_and_python_m_share_the_process_entry():
    """Both `thetadim` and `python -m thetadim` end through `cli.run`.  The
    scripts table is read as text: Python 3.10 has no tomllib."""
    text = README.with_name("pyproject.toml").read_text()
    start = text.index("\n[project.scripts]\n") + 1
    end = text.find("\n[", start)
    section = text[start : end if end >= 0 else len(text)]
    assert re.findall(r'^(\S+) = "(.*)"$', section, re.M) == [("thetadim", "thetadim.cli:run")]
    nodes = {ast.unparse(node) for node in ast.walk(_library_modules()["__main__"])}
    assert {"from .cli import run", "sys.exit(run())"} <= nodes


def _child_env(**extra: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this thetadim."""
    src = str(Path(thetadim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}
    return env


def _loaded_after_start(code: str, *flags: str) -> set[str]:
    """Modules that `code` loads in a fresh interpreter started with `flags`,
    past the interpreter's own start-up; `code` runs with standard output
    captured.  The harness imports only `sys` and `io`, which every
    interpreter loads at start (`contextlib` would load `os`, `functools`,
    `collections` and `types` before `before` is taken)."""
    env = _child_env()
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "sys.stdout = io.StringIO()\n"
        f"{code}\n"
        "sys.stdout = sys.__stdout__\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def _cli_call(*argv: str, code: int = 0) -> str:
    return f"import thetadim.cli\nassert thetadim.cli.main({list(argv)!r}) == {code}"


def test_a_process_loads_only_the_modules_its_route_runs():
    """Every CLI call is a fresh process, so start-up imports are paid each time.

    Modules the interpreter's own start-up already loaded do not count.
    """
    assert {m for m in _loaded_after_start("import thetadim") if m.startswith("thetadim.")} == set()

    loaded = _loaded_after_start("import thetadim.cli")
    assert "thetadim.cli" in loaded
    assert {"dataclasses", "inspect", "logging", "json"}.isdisjoint(loaded)

    # burnside reduces an expression by classes, at every order: no table
    loaded = _loaded_after_start(_cli_call("compute", "--method", "burnside", "Z(12)"))
    assert "thetadim.burnside" in loaded
    unused = {"argparse", "fractions", "decimal", "json"}
    unused |= {
        f"thetadim.{m}" for m in ("characters", "cyclo", "closed_forms", "diagrams", "group_core")
    }
    assert unused.isdisjoint(loaded)

    # the chars route sums its real characters in integers: no cyclotomic number
    loaded = _loaded_after_start(_cli_call("compute", "--method", "chars", "Z(12)"))
    assert "thetadim.characters" in loaded
    assert {"thetadim.burnside", "thetadim.diagrams", "thetadim.cyclo"}.isdisjoint(loaded)

    loaded = _loaded_after_start(_cli_call("verify", "Dstar(3)"))
    assert "thetadim.characters" in loaded and "thetadim.cyclo" not in loaded

    # help and a usage error load the module of the help text, and no route
    common = {f"thetadim.{m}" for m in ("cli", "commands", "expr", "normal_form", "report")}
    for argv, code in [(("-h",), 0), (("compute", "-h"), 0), (("no-such-command",), 1)]:
        loaded = _loaded_after_start(_cli_call(*argv, code=code))
        assert {m for m in loaded if m.startswith("thetadim.")} == common, argv

    # every dimension is an integer, found by checked integer division
    methods = ("auto", "closed", "chars", "burnside", "orbits", "diagrams")
    calls = [("compute", "--method", method, "Z(5) x Dstar(3)") for method in methods]
    calls += [
        ("compute", "Z(3) x Tstar"),  # auto falls back to burnside
        ("compute", "--json", "Dstar(3)"),
        ("verify", "Dstar(3)"),
        ("table", "d4p", "--max-p", "4"),
        ("classes", "Tstar"),
        ("chartab", "Dstar(3)"),
    ]
    for argv in calls:
        loaded = _loaded_after_start(_cli_call(*argv))
        assert {"fractions", "decimal", "numbers"}.isdisjoint(loaded), argv
        # compute and verify load no module of the other commands
        if argv[0] in ("compute", "verify"):
            assert "thetadim.commands" not in loaded, argv

    # class-level routes compile no table code, and no command line parser
    # from the standard library
    table_layer = {"thetadim.group_core", "array", "getopt", "gettext"}
    class_level = [
        ("compute", "--method", "burnside", "Z(2000)"),
        ("compute", "--method", "chars", "Dstar(250)"),
        ("classes", "Z(12)"),
        ("chartab", "Dstar(3)"),
    ]
    for argv in class_level:
        assert table_layer.isdisjoint(_loaded_after_start(_cli_call(*argv))), argv
    # a binary polyhedral atom, an enumeration route and verify build tables,
    # as lists of rows
    table_level = [
        ("compute", "--method", "chars", "Z(7) x Istar"),
        ("compute", "--method", "orbits", "Z(12)"),
        ("verify", "Dstar(3)"),
    ]
    for argv in table_level:
        loaded = _loaded_after_start(_cli_call(*argv))
        assert "thetadim.group_core" in loaded and "array" not in loaded, argv

    # the closed form needs no class data: closed, and auto before any fallback
    for argv in [("compute", "--method", "closed", "Z(12)"), ("compute", "Dstar(3)")]:
        assert "thetadim.conjugacy" not in _loaded_after_start(_cli_call(*argv)), argv

    # without `site` (python -S) a call pays for each standard module it
    # loads: none of these loads typing, re or enum, nor importlib (with
    # warnings) or os, and the closed form no functools
    shunned = {"typing", "re", "enum", "importlib", "warnings", "os"}
    assert shunned <= _loaded_after_start("import typing, importlib, os", "-S")
    for argv, also in [
        (("compute", "Z(5)"), {"functools"}),
        (("verify", "Z(120)"), set()),
        (("compute", "--method", "chars", "Z(7) x Istar"), set()),
    ]:
        assert (shunned | also).isdisjoint(_loaded_after_start(_cli_call(*argv), "-S")), argv
    assert "functools" in _loaded_after_start("import functools", "-S")

    # a process compiles only the family modules its expression names
    family_calls = {
        ("compute", "--method", "chars", "Z(12)"): {"family_z"},
        ("compute", "--method", "burnside", "Z(2000)"): {"family_z"},
        ("compute", "--method", "chars", "Z(7) x Istar"): {"family_z", "family_polyhedral"},
        ("verify", "Dstar(3)"): {"family_dstar"},
        ("chartab", "Dstar(3)"): {"family_dstar"},
    }
    for argv, families in family_calls.items():
        loaded = _loaded_after_start(_cli_call(*argv))
        assert {m for m in loaded if m.startswith("thetadim.family_")} == {
            f"thetadim.{m}" for m in families
        }, argv


# the calls whose loaded thetadim source README's Start-up section counts
_START_UP_COUNTS = {
    'classes "Tstar"': ("classes", "Tstar"),
    'compute --method chars "Z(7) x Istar"': ("compute", "--method", "chars", "Z(7) x Istar"),
    'verify "Istar"': ("verify", "Istar"),
}


def test_readme_start_up_line_counts_are_recounted():
    """Each line count that README's Start-up section states is the sum of the
    lines of the thetadim modules a fresh interpreter holds after that call."""
    text = README.read_text()
    start = text.index("### Start-up")
    section = " ".join(text[start : text.index("\n## ", start)].split())
    for label, argv in _START_UP_COUNTS.items():
        stated = re.search(re.escape(f"`{label}`") + r"(?: loads)? ([\d,]+)", section)
        assert stated, label
        loaded = _loaded_after_start(_cli_call(*argv))
        lines = sum(
            len(Path(importlib.import_module(m).__file__).read_text().splitlines())
            for m in loaded
            if m.partition(".")[0] == "thetadim"
        )
        assert int(stated.group(1).replace(",", "")) == lines, label


def test_lazy_exports_resolve_to_the_submodule_objects():
    import thetadim.burnside
    import thetadim.normal_form

    assert thetadim.burnside_dims is thetadim.burnside.burnside_dims
    assert thetadim.ResourceLimitError is thetadim.normal_form.ResourceLimitError
    assert set(thetadim.__all__) <= set(dir(thetadim))
    for name in thetadim.__all__:
        assert getattr(thetadim, name) is getattr(
            sys.modules[f"thetadim.{thetadim._MODULE_OF[name]}"], name
        )
    with pytest.raises(AttributeError, match="no_such_name"):
        thetadim.no_such_name


def _lazy_imports() -> list[tuple[str, str]]:
    """(module, name) of every `from .module import name` in the library that
    is not at the top of its module, and so runs only when it is reached."""
    found = []
    for tree in _library_modules().values():
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and id(node) not in top:
                found += [(node.module, alias.name) for alias in node.names]
    return found


# help for the program and for each command, then two usage errors; each line
# is the exit code and whether stdout and stderr begin with a usage line
_HELP_AND_USAGE = """
import contextlib, io, json
import thetadim.cli as cli

argvs = [["-h"]] + [[command, "-h"] for command in cli._COMMANDS]
for argv in argvs + [["compute"], ["no-such-command"]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    usage = [text.getvalue().startswith("usage: thetadim") for text in (out, err)]
    print(json.dumps([code, *usage]))
"""


def test_every_lazily_named_module_and_handler_resolves():
    """A name that is imported only when its code runs breaks only the process
    that runs it, so every one is resolved here: the names imported inside
    library functions, the route modules, and the handler of every command,
    some of which live in a module loaded only for them.  Help and usage text
    come from such a module too, so a fresh child that compiles every module
    anew prints them."""
    import thetadim.cli as cli

    lazy = _lazy_imports()
    assert ("group_core", "group_from_expr") in lazy
    for module, name in lazy:
        assert hasattr(importlib.import_module(f"thetadim.{module}"), name), (module, name)
    for module, route in cli._ROUTES.values():
        importlib.import_module(f"thetadim.{module}")
        assert callable(route), module
    for command in cli._COMMANDS:
        assert callable(cli._handler(command)), command
    # each family module, looked up by kind when its atom is first met
    import thetadim.expr as expr
    import thetadim.normal_form as normal_form

    for kind, (_, module) in expr.ATOMS.items():
        family = normal_form.family(kind)
        assert family is importlib.import_module(f"thetadim.{module}"), kind
        for name in ("model", "class_count", "character_rows", "real_sums"):
            assert callable(getattr(family, name, None)), (module, name)
    with pytest.raises(ValueError, match="unknown family 'Nope'"):
        normal_form.family("Nope")

    env = _child_env(PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", _HELP_AND_USAGE], env=env, capture_output=True, text=True, check=True
    ).stdout
    results = [json.loads(line) for line in out.splitlines()]
    helps = 1 + len(cli._COMMANDS)
    assert results == [[0, True, False]] * helps + [[1, False, True]] * 2


def test_readme_python_example_runs():
    """The Library example in README.md, run as a doctest, so it cannot go stale."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, len(test.examples)) and test.examples
