"""Exact dimension counts for theta-shaped diagram spaces over finite group algebras.

The package computes, in exact rational arithmetic, the dimension of the space
of closed trivalent theta diagrams labeled by a finite group algebra, together
with the corresponding dimension for the augmentation ideal.  Five routes are
provided (closed formulas, character sums, fixed-point counting, monomial-triple
orbits and diagram enumeration) so that every number can be cross-checked.
"""

from .burnside import BurnsideResult, burnside_dims, orbit_count_dims
from .characters import d2_char_formula, real_character_sums, table_for
from .closed_forms import closed_dims, spec_from_expr
from .conjugacy import class_data_for, d1_class_formula, z2_orbit_count
from .diagrams import dim_A2
from .expr import parse_group_expr
from .group_core import ResourceLimitError, group_from_expr

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
