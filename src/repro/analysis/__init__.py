"""Program analyses: accesses, dependences, symbolic bounds, and the
whole-program verifier (``repro.analysis.verify``)."""

from .access import Access, collect_accesses
from .bounds import (BoundsCtx, bound_candidates, const_bounds,
                     tightest_bounds)
from .deps import (Dependence, DepAnalyzer, DirItem, analysis_cache_stats,
                   analyze, analyzer_for)
from .verify import Diagnostic, Diagnostics, verify

__all__ = [
    "Access", "collect_accesses",
    "BoundsCtx", "bound_candidates", "const_bounds", "tightest_bounds",
    "Dependence", "DepAnalyzer", "DirItem", "analysis_cache_stats",
    "analyze", "analyzer_for",
    "Diagnostic", "Diagnostics", "verify",
    "CostEstimate", "analyze_cost", "estimate_cost", "perf_lint",
]


def __getattr__(name):
    # the cost model loads lazily: it pulls in the access/bounds layers
    # plus the scheduler's target table, none of which `import
    # repro.analysis` itself should pay for
    if name in ("CostEstimate", "Counts", "analyze_cost", "estimate_cost",
                "perf_lint", "infer_scalar_env", "clear_cost_memo"):
        from . import cost

        return getattr(cost, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
