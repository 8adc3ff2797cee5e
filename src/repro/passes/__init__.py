"""Lowering passes applied between staging and code generation.

The individual transformations live here; the *sequence* they run in is
owned by the pass manager (``repro.pipeline``), which adds the lowering
memo, per-pass timing and instrumentation. ``lower()`` remains the stable
convenience entry for "run the standard lowering pipeline".
"""

from .cleanup import remove_dead_writes
from .flatten import flatten_stmt_seq
from .make_reduction import make_reduction
from .prune import prune_branches
from .simplify_pass import simplify, simplify_expr


def lower(func):
    """The standard lowering pipeline (no scheduling decisions):
    flatten statement sequences, canonicalise self-updates into
    reductions, fold/simplify expressions and control flow, and drop dead
    writes.

    Equivalent to ``repro.pipeline.lowering_pipeline().run(func)`` — a
    tree already lowered in this process is served from the pass
    manager's lowering memo (disable with ``REPRO_NO_MEMO=1``).
    """
    from ..pipeline import lowering_pipeline

    return lowering_pipeline().run(func)


__all__ = [
    "flatten_stmt_seq", "make_reduction", "prune_branches",
    "remove_dead_writes", "simplify", "simplify_expr", "lower",
]
