"""``repro.analysis.cost`` — the static cost-model analysis.

A measurement-free estimate of what a lowered function will do at run
time: symbolic trip counts, arithmetic by dtype class, per-tensor memory
traffic with innermost-stride classification, and exploited parallelism
per backend — folded into a comparable :class:`CostEstimate` (dominance
partial order + scalar time proxy). Consumed three ways:
``ft.analyze_cost()`` / ``python -m repro.verify --cost``; the schedule
search's dominance pruner (``autosched.search.screen``); and the FT5xx
performance lint (:mod:`.lint`). See docs/PERFORMANCE.md ("Cost model & tuner pruning").

Only the light data model loads eagerly; the walker, lint and API load
on first use so ``import repro.analysis`` stays cheap.
"""

from .model import (COUNT_FIELDS, CostEstimate, Counts, LoopCost,
                    TensorTraffic, op_category)

_LAZY = ("analyze_cost", "perf_lint", "infer_scalar_env")

_LAZY_FRONTIER = ("frontier_order",)


def __getattr__(name):
    if name in _LAZY:
        from . import api

        return getattr(api, name)
    if name in _LAZY_FRONTIER:
        from . import frontier

        return getattr(frontier, name)
    if name == "check_perf":
        from .lint import check_perf

        return check_perf
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "COUNT_FIELDS", "CostEstimate", "Counts", "LoopCost", "TensorTraffic",
    "op_category", "check_perf",
] + list(_LAZY) + list(_LAZY_FRONTIER)
