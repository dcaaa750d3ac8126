"""Exact dimension counts for theta-shaped diagram spaces over finite group algebras.

The package computes exactly, in integer arithmetic, the dimension of the
space of closed trivalent theta diagrams labeled by a finite group algebra,
together with the corresponding dimension for the augmentation ideal.  Five
routes are provided (closed formulas, character sums, fixed-point counting,
monomial-triple orbits and diagram enumeration) so that every number can be
cross-checked.

Each exported name is imported from its submodule on first access (PEP 562),
so `import thetadim` loads no submodule and a command line process loads only
the modules its route runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the documented library API; README's "Library" section names every entry
__all__ = [
    "BurnsideResult",
    "ResourceLimitError",
    "burnside_dims",
    "class_data_for",
    "closed_dims",
    "d1_class_formula",
    "d2_char_formula",
    "dim_A2",
    "group_from_expr",
    "orbit_count_dims",
    "parse_group_expr",
    "real_character_sums",
    "spec_from_expr",
    "table_for",
    "z2_orbit_count",
]

# the submodule that defines each exported name
_EXPORTS = {
    "burnside": ("BurnsideResult", "burnside_dims", "orbit_count_dims"),
    "characters": ("d2_char_formula", "real_character_sums", "table_for"),
    "closed_forms": ("closed_dims", "spec_from_expr"),
    "conjugacy": ("class_data_for", "d1_class_formula", "z2_orbit_count"),
    "diagrams": ("dim_A2",),
    "expr": ("parse_group_expr",),
    "group_core": ("group_from_expr",),
    "normal_form": ("ResourceLimitError",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
