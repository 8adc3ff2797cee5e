"""A small exact Presburger engine (the reproduction's isl substitute).

Layers:

- ``linear``: integer affine expressions and constraints;
- ``omega``: exact integer feasibility (Pugh's Omega test);
- ``iset``: basic/union sets and maps with intersect/compose/project and
  lexicographic-order helpers;
- ``build``: translation from IR expressions (including ``//`` and ``%`` by
  constants) into affine form.
"""

from .build import AffineBuilder, NonAffine, try_affine
from .iset import (BasicMap, BasicSet, IMap, ISet, eq_constraints,
                   lex_gt_constraints)
from .linear import Affine, Infeasible, LinCon, fresh_var
from .omega import (any_feasible, clear_feasibility_cache, feasibility_stats,
                    is_feasible)

__all__ = [
    "AffineBuilder", "NonAffine", "try_affine",
    "BasicMap", "BasicSet", "IMap", "ISet", "eq_constraints",
    "lex_gt_constraints",
    "Affine", "Infeasible", "LinCon", "fresh_var",
    "any_feasible", "clear_feasibility_cache", "feasibility_stats",
    "is_feasible",
]
