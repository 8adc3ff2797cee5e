"""Public entry points of the cost analysis.

``analyze_cost`` runs the static walker; every call is counted
(analyses, seconds) in the ``cost`` table,
``runtime.metrics.cost_stats()``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ...ir import AccessType, defined_tensors
from ...ir import expr as E
from ...ir import stmt as S
from .count import analyze
from .model import CostEstimate


def _resolve_target(backend: str, target):
    if target is not None:
        return target
    from ...autosched.target import default_target

    return default_target(backend)


def _as_func(func_or_program) -> S.Func:
    if isinstance(func_or_program, S.Func):
        return func_or_program
    func = getattr(func_or_program, "func", None)
    if isinstance(func, S.Func):
        return func
    raise TypeError(
        f"analyze_cost() needs a Func or Program, got "
        f"{type(func_or_program).__name__}")


def analyze_cost(func_or_program, backend: str = "pycode", target=None,
                 scalar_env: Optional[Dict[str, int]] = None) -> CostEstimate:
    """Cost-analyze a staged program or IR function (``ft.analyze_cost``).

    ``scalar_env`` maps shape variables / scalar parameters to concrete
    ints (see :func:`infer_scalar_env`); without it, symbolic loops fall
    back to ``count.ASSUMED_TRIP`` iterations and the estimate is
    approximate rather than sound.
    """
    from ...runtime import metrics

    t0 = time.perf_counter()
    env = {k: int(v) for k, v in (scalar_env or {}).items()}
    est = analyze(_as_func(func_or_program), backend,
                  _resolve_target(backend, target), env)
    metrics.COST.add("analyses")
    metrics.COST.add("time_s", time.perf_counter() - t0)
    return est


def perf_lint(func_or_program, backend: str = "pycode", target=None):
    """The FT5xx performance-lint findings (unfiltered; all info)."""
    from .lint import check_perf

    return check_perf(_as_func(func_or_program), backend=backend,
                      target=target)


def infer_scalar_env(func: S.Func, arrays=(),
                     scalars: Optional[dict] = None) -> Dict[str, int]:
    """Concrete values for ``func``'s shape variables, unified from the
    actual input arrays (positionally, like the driver binds them — or
    from a name-keyed mapping) plus explicit integer ``scalars``.
    Non-integer scalars are ignored."""
    env: Dict[str, int] = {}
    for k, v in (scalars or {}).items():
        if isinstance(v, (int, np.integer)) \
                and not isinstance(v, bool):
            env[k] = int(v)
    defs = defined_tensors(func.body)
    data_params = [p for p in func.params
                   if defs[p].atype in (AccessType.INPUT,
                                        AccessType.INOUT)]
    if isinstance(arrays, dict):
        arrays = [arrays.get(p) for p in data_params]
    for name, arr in zip(data_params, arrays):
        shape = getattr(arr, "shape", None)
        if shape is None:
            continue
        for dim_expr, actual in zip(defs[name].shape, shape):
            if isinstance(dim_expr, E.Var):
                env.setdefault(dim_expr.name, int(actual))
    return env
