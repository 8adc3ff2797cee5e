"""Backend capability declarations (:class:`BackendCaps`).

A capability table is *declared* by a :class:`~repro.backend.Backend`
object (one per registered backend, see ``repro.backend.registry``) and
*queried* through ``backend_caps(name, target)`` by every stage that
must reason about what a backend actually does with scheduled IR:

- the cost model (``repro.analysis.cost``) discounts sequential work by
  the parallel lane counts and vector widths declared here, and charges
  the silent plain-loop fallback through ``vec_feasible``;
- the structured searcher (``repro.autosched.search.space``) offers
  ``parallel`` knobs only when :meth:`schedule_parallel_kind` reports an
  annotation the backend honours — no backend-name string dispatch;
- the race verifier's FT203 memory-scope check reads the scope rules the
  backend's :class:`~repro.backend.Backend` declares;
- the persistent caches fold ``caps_version`` (on the Backend object)
  into their keys, so changing a declaration invalidates stale entries.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple


class BackendCaps:
    """What a (backend, target) pair actually does with parallel/vector
    annotations — the capability table behind the cost model's
    exploited-parallelism axis (see docs/PERFORMANCE.md).

    ``capacity(kind)`` is the hardware lane count a ``For`` bound to
    parallel kind ``kind`` is spread over: 1 means the annotation is a
    no-op on this backend, None means effectively unbounded (every
    iteration gets a lane). ``vector_width`` is the SIMD width applied to
    ``vectorize`` loops; None means the whole loop becomes one vector
    kernel (the NumPy lowering). ``vec_feasible`` is the backend's own
    legality predicate for honouring a ``vectorize`` marking on a given
    ``For`` (None = always honoured): the code generators silently fall
    back to plain loops on shapes they cannot vectorize, and the cost
    model must model that fallback, not the annotation. ``stride_matters``
    is False on backends whose per-element cost is interpretation
    overhead rather than memory latency.

    ``parallel_ann_kind`` is the annotation kind a generic schedule
    "make this loop parallel" decision binds to on this backend
    (``openmp``, ``cuda.blockIdx.x``, ...; None when no annotation buys
    anything). ``memory_scopes`` are the :class:`~repro.ir.MemType`
    values the backend can address. ``vec_kernel_seq`` /
    ``vec_whole_width`` override the cost model's default dispatch
    overhead and per-element discount for whole-loop vector kernels
    (None = model defaults).
    """

    __slots__ = ("backend", "vector_width", "stride_matters", "_parallel",
                 "vec_feasible", "parallel_ann_kind", "memory_scopes",
                 "vec_kernel_seq", "vec_whole_width")

    def __init__(self, backend: str, parallel: dict,
                 vector_width: Optional[int], stride_matters: bool,
                 vec_feasible: Optional[Callable] = None,
                 parallel_ann_kind: Optional[str] = None,
                 memory_scopes: Tuple[str, ...] = ("cpu",),
                 vec_kernel_seq: Optional[float] = None,
                 vec_whole_width: Optional[int] = None):
        self.backend = backend
        self._parallel = dict(parallel)
        self.vector_width = vector_width
        self.stride_matters = stride_matters
        self.vec_feasible = vec_feasible
        self.parallel_ann_kind = parallel_ann_kind
        self.memory_scopes = tuple(memory_scopes)
        self.vec_kernel_seq = vec_kernel_seq
        self.vec_whole_width = vec_whole_width

    def capacity(self, kind: str) -> Optional[int]:
        """Lane count for parallel kind ``kind`` (e.g. ``openmp``,
        ``cuda.blockIdx.x``); 1 when the backend ignores it."""
        for prefix, cap in self._parallel.items():
            if kind == prefix or kind.startswith(prefix + "."):
                return cap
        return 1

    def schedule_parallel_kind(self) -> Optional[str]:
        """The parallel kind a schedule-level ``parallel`` annotation
        should bind to, or None when the annotation would be a no-op
        (capacity 1) — the query that replaced the searcher's
        backend-name string dispatch."""
        kind = self.parallel_ann_kind
        if kind is None:
            return None
        cap = self.capacity(kind)
        if cap is not None and cap <= 1:
            return None
        return kind

    def __repr__(self):  # pragma: no cover
        return (f"BackendCaps({self.backend}, vec={self.vector_width}, "
                f"parallel={self._parallel})")
