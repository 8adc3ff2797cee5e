"""A small exact Presburger engine (the reproduction's isl substitute).

Layers:

- ``linear``: integer affine expressions and constraints;
- ``omega``: exact integer feasibility (Pugh's Omega test) of integer rows;
- ``build``: translation from IR expressions (including ``//`` and ``%`` by
  constants) into linear forms and rows.
"""

from .build import (AffineBuilder, Linearizer, NonAffine, combine, relation,
                    try_affine)
from .linear import Affine, Infeasible, LinCon, fresh_var
from .omega import (any_feasible, append_row, clear_feasibility_cache,
                    feasibility_stats, feasible_rows, is_feasible)

__all__ = [
    "AffineBuilder", "Linearizer", "NonAffine", "combine", "relation",
    "try_affine",
    "Affine", "Infeasible", "LinCon", "fresh_var",
    "any_feasible", "append_row", "clear_feasibility_cache",
    "feasibility_stats", "feasible_rows", "is_feasible",
]
