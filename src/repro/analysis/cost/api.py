"""Public entry points of the cost analysis.

``analyze_cost``/``estimate_cost`` wrap the static walker with an
in-process memo and per-pass accounting: every invocation is recorded
under the pass name ``cost_model`` in ``pipeline_stats()``, exactly like
the lowering passes, and hit/miss/time counters live in
``runtime.metrics.cost_stats()``. The memo key is sid-inclusive — two
structurally identical funcs with different sids get separate entries so
the loop/stride rows always point at real statements of the analyzed
tree.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ...ir import AccessType, defined_tensors
from ...ir import expr as E
from ...ir import stmt as S
from ...ir.hashing import struct_hash
from ...state import BoundedMemo
from .count import analyze
from .model import CostEstimate

_MEMO = BoundedMemo("cost", 512)
clear_cost_memo = _MEMO.clear


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


def estimate_cost(func: S.Func, backend: str = "pycode", target=None,
                  scalar_env: Optional[Dict[str, int]] = None,
                  assumed_trip: int = 8) -> CostEstimate:
    """Memoized static cost estimate of one lowered/staged ``Func``."""
    from ...runtime import metrics

    target = _resolve_target(backend, target)
    env = {k: int(v) for k, v in (scalar_env or {}).items()}
    key = (struct_hash(func, include_sids=True), backend,
           target.cache_key(), tuple(sorted(env.items())), assumed_trip)
    t0 = time.perf_counter()
    est = _MEMO.get(key)
    hit = est is not None
    if not hit:
        est = analyze(func, backend, target, env, assumed_trip)
        _MEMO.put(key, est)
    dt = time.perf_counter() - t0
    metrics.record_pass_run("cost_model", dt, hit)
    metrics.COST.add("analyses")
    if hit:
        metrics.COST.add("memo_hits")
    metrics.COST.add("time_s", dt)
    return est


def analyze_cost(func_or_program, backend: str = "pycode", target=None,
                 scalar_env: Optional[Dict[str, int]] = None,
                 assumed_trip: int = 8) -> CostEstimate:
    """Cost-analyze a staged program or IR function (``ft.analyze_cost``).

    ``scalar_env`` maps shape variables / scalar parameters to concrete
    ints (see :func:`infer_scalar_env`); without it, symbolic loops fall
    back to ``assumed_trip`` iterations and the estimate is approximate
    rather than sound.
    """
    return estimate_cost(_as_func(func_or_program), backend=backend,
                         target=target, scalar_env=scalar_env,
                         assumed_trip=assumed_trip)


def perf_lint(func_or_program, backend: str = "pycode", target=None):
    """The FT5xx performance-lint findings (unfiltered; all info)."""
    from .lint import check_perf

    return check_perf(_as_func(func_or_program), backend=backend,
                      target=target)


def cost_model_pass(func: S.Func) -> S.Func:
    """The ``cost_model`` pipeline pass: analyze, record, pass through.

    Registered in ``repro.pipeline`` as an uncacheable identity pass so
    any pipeline can interpose the analysis and its timing shows up in
    ``pipeline_stats()`` next to the lowering passes.
    """
    estimate_cost(func)
    return func


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
