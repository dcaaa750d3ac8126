"""Exact dimension counts for theta-shaped diagram spaces over finite group algebras.

The package computes, in exact rational arithmetic, the dimension of the space
of closed trivalent theta diagrams labeled by a finite group algebra, together
with the corresponding dimension for the augmentation ideal.  Four independent
routes are provided (closed formulas, character sums, fixed-point counting,
and explicit orbit enumeration) so that every number can be cross-checked.
"""

from .burnside import BurnsideResult, burnside_dims, orbit_count_dims
from .characters import CharacterTable, d2_char_formula, table_for
from .closed_forms import SphericalSpec, closed_dims, spec_from_expr
from .conjugacy import (
    ClassData,
    class_data_for,
    compute_classes,
    d1_class_formula,
    z2_orbit_count,
)
from .cyclo import CycloNumber, zeta
from .diagrams import dim_A2, normalize
from .expr import GroupExpr, parse_group_expr
from .group_core import (
    FiniteGroup,
    ResourceLimitError,
    construct_family,
    direct_product,
    group_from_expr,
    validate_spherical,
)

__version__ = "0.1.0"

__all__ = [
    "BurnsideResult",
    "CharacterTable",
    "ClassData",
    "CycloNumber",
    "FiniteGroup",
    "GroupExpr",
    "ResourceLimitError",
    "SphericalSpec",
    "burnside_dims",
    "class_data_for",
    "closed_dims",
    "compute_classes",
    "construct_family",
    "d1_class_formula",
    "d2_char_formula",
    "dim_A2",
    "direct_product",
    "group_from_expr",
    "normalize",
    "orbit_count_dims",
    "parse_group_expr",
    "spec_from_expr",
    "table_for",
    "validate_spherical",
    "z2_orbit_count",
    "zeta",
]
