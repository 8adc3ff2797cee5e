"""A small exact Presburger engine (the reproduction's isl substitute).

Layers:

- ``build``: translation from IR expressions (including ``//`` and ``%`` by
  constants) into linear forms and rows, the one constraint format;
- ``omega``: exact integer feasibility (Pugh's Omega test) of rows.
"""

from .build import Linearizer, NonAffine, combine, relation
from .omega import (UNKNOWN, any_feasible, append_row,
                    clear_feasibility_cache, feasibility_stats,
                    feasible_rows, is_feasible)

__all__ = [
    "Linearizer", "NonAffine", "combine", "relation",
    "UNKNOWN", "any_feasible", "append_row", "clear_feasibility_cache",
    "feasibility_stats", "feasible_rows", "is_feasible",
]
