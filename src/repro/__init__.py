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
from ._lazy import lazy_exports as _lazy_exports
from .state import clear_memos, reset_stats
from .state import stats as _stats

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
    "compile_cache_stats", "reset_stats", "stats",
    "__version__",
]


#: reset every compile-path cache — every memo declared anywhere in the
#: package (``repro.state``'s registry); counters are kept
clear_compile_caches = clear_memos


def stats(name=None):
    """A snapshot of every process-wide counter table, ``{group: {key:
    value}}`` — or of the one table ``name`` (see docs/PERFORMANCE.md).
    All twelve groups are promised, with zeros, before this process has
    compiled anything, so the layers that declare them are loaded first
    — what a cold ``build()`` would load."""
    from . import analysis, pipeline  # noqa: F401
    from .runtime import driver, metrics  # noqa: F401

    return _stats(name)


def compile_cache_stats():
    """Hit/miss counters for all compile-path caches: the compile-path
    slice of ``repro.stats()``. ``disk`` covers the persistent
    cross-process store (``repro.cache``); the rest are in-process."""
    return {group: stats(group) for group in
            ("build", "bind", "passes", "deps", "omega", "disk")}


# Heavier subsystems load lazily so `import repro` stays fast; the
# submodules (`repro.libop`, `repro.verify`, `repro.pipeline`, ...)
# resolve on first use like the names below.
__getattr__ = _lazy_exports(__name__, globals(), {
    "Schedule": ".schedule.schedule",
    "analyze_cost": ".analysis.cost", "perf_lint": ".analysis.cost",
    "build_cache_stats": ".runtime.driver",
    "clear_build_cache": ".runtime.driver",
})
