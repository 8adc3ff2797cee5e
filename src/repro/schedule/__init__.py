"""Dependence-aware schedule transformations (paper Table 1) and the
replayable trace a session records; loaded on first use
(``repro._lazy``)."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "Schedule": ".schedule", "ScheduleTrace": ".trace",
    "PARALLEL_KINDS": ".parallel_trans"})

__all__ = ["Schedule", "ScheduleTrace", "PARALLEL_KINDS"]
