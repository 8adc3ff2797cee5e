"""Automatic scheduling: the paper's rule-based passes and the
schedule search used as the compile-time baseline (Table 2).

All but the target descriptions loads on first use (``repro._lazy``):
the rules drag in ``schedule``, ``analysis`` and ``polyhedral``."""

from .._lazy import lazy_exports
from .target import CPU, GPU, Target, default_target

__getattr__ = lazy_exports(__name__, globals(), {
    "TuneResult": ".search.tuner", "auto_fuse": ".rules",
    "auto_mem_type": ".rules", "auto_parallelize": ".rules",
    "auto_schedule": ".rules", "auto_unroll": ".rules",
    "auto_use_lib": ".rules", "auto_vectorize": ".rules",
    "MeasurementPool": ".search", "ScheduleSpace": ".search",
    "ScheduleTrace": ".search", "StructuredTuner": ".search",
})

__all__ = [
    "StructuredTuner", "TuneResult",
    "MeasurementPool", "ScheduleSpace", "ScheduleTrace",
    "auto_fuse", "auto_mem_type", "auto_parallelize", "auto_schedule",
    "auto_unroll", "auto_use_lib", "auto_vectorize",
    "CPU", "GPU", "Target", "default_target",
]
