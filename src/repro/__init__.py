"""repro — a from-scratch Python reproduction of *FreeTensor: A Free-Form
DSL with Holistic Optimizations for Irregular Tensor Programs* (PLDI 2022).

Quickstart::

    import numpy as np
    import repro as ft

    @ft.transform
    def add(a: ft.Tensor[("n",), "f32", "input"],
            b: ft.Tensor[("n",), "f32", "input"]):
        y = ft.empty(a.shape(0), "f32")
        for i in range(a.shape(0)):
            y[i] = a[i] + b[i]
        return y

    print(add(np.ones(4, np.float32), np.ones(4, np.float32)))

See README.md for the architecture overview and DESIGN.md for how this
reproduction maps onto the paper.
"""

import sys as _sys

# Deeply-nested staged programs (partial evaluation of recursion, unrolled
# loops) exceed CPython's default recursion limit.
if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)

from .errors import (ADError, BackendError, DependenceViolation,
                     FreeTensorError, InvalidProgram, InvalidSchedule,
                     SimulatedOOM, StagingError, VerificationError)
from .frontend import (Program, Size, Tensor, TensorRef, capture, create_var,
                       empty, inline, label, ones, transform, zeros)
from .frontend.tensor import (ceil, cos, erf, exp, floor, log, sigmoid, sin,
                              sqrt, tan, tanh)
from .frontend.tensor import ft_abs as abs  # noqa: A001 - mirrors paper DSL
from .frontend.tensor import ft_max as max  # noqa: A001
from .frontend.tensor import ft_min as min  # noqa: A001

__version__ = "1.0.0"

__all__ = [
    "ADError", "BackendError", "DependenceViolation", "FreeTensorError",
    "InvalidProgram", "InvalidSchedule", "SimulatedOOM", "StagingError",
    "VerificationError", "verify",
    "Program", "Size", "Tensor", "TensorRef", "capture", "create_var",
    "empty", "inline", "label", "ones", "transform", "zeros",
    "ceil", "cos", "erf", "exp", "floor", "log", "sigmoid", "sin", "sqrt",
    "tan", "tanh", "abs", "max", "min",
    "analyze_cost", "perf_lint",
    "build_cache_stats", "clear_build_cache", "clear_compile_caches",
    "compile_cache_stats",
    "__version__",
]


def clear_compile_caches():
    """Reset every compile-path cache: the build cache, the per-pass
    pipeline cache, the dependence-feasibility memo, the Omega
    feasibility memo, the cost-estimate memo and the serving layer's
    batched-program memo."""
    from .analysis import clear_analysis_cache
    from .analysis.cost.api import clear_cost_memo
    from .pipeline import clear_pass_cache
    from .polyhedral import clear_feasibility_cache
    from .runtime.driver import clear_build_cache
    from .serving.batching import clear_batching_memo

    clear_build_cache()
    clear_pass_cache()
    clear_analysis_cache()
    clear_feasibility_cache()
    clear_cost_memo()
    clear_batching_memo()


def compile_cache_stats():
    """Hit/miss counters for all compile-path caches (see
    docs/PERFORMANCE.md). ``disk`` covers the persistent cross-process
    store (``repro.cache``); the rest are in-process."""
    from .analysis import analysis_cache_stats
    from .pipeline import pass_cache_stats
    from .polyhedral import feasibility_stats
    from .runtime.driver import bind_cache_stats, build_cache_stats
    from .runtime.metrics import disk_cache_stats

    return {
        "build": build_cache_stats(),
        "bind": bind_cache_stats(),
        "passes": pass_cache_stats(),
        "deps": analysis_cache_stats(),
        "omega": feasibility_stats(),
        "disk": disk_cache_stats(),
    }


def __getattr__(name):
    # Heavier subsystems load lazily so `import repro` stays fast.
    if name in ("libop", "verify"):
        import importlib

        return importlib.import_module("." + name, __name__)
    if name == "Schedule":
        from .schedule.schedule import Schedule

        return Schedule
    if name in ("analyze_cost", "perf_lint"):
        from .analysis import cost

        return getattr(cost, name)
    if name in ("build_cache_stats", "clear_build_cache"):
        from .runtime import driver

        return getattr(driver, name)
    if name == "pipeline":
        import importlib

        return importlib.import_module(".pipeline", __name__)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
