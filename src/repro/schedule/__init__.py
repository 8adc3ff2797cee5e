"""Dependence-aware schedule transformations (paper Table 1); loaded on
first use (``repro._lazy``)."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "Schedule": ".schedule", "PARALLEL_KINDS": ".parallel_trans"})

__all__ = ["Schedule", "PARALLEL_KINDS"]
