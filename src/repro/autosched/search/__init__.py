"""``repro.autosched.search`` — structured schedule search with parallel
multi-process measurement (see docs/PERFORMANCE.md, "Structured search &
parallel measurement").

- :mod:`.space` — typed knobs (tile chains, legal reorder permutations,
  legality-gated annotations) extracted once per program;
- :mod:`.screen` — the dedup + dominance-pruning front-end, plus
  per-session input caching;
- :mod:`.measure` — the fault-isolated worker-process measurement pool;
- :mod:`.tuner` — :class:`StructuredTuner` tying them together.

Submodules load lazily (``repro._lazy``), on first use of a name.
"""

from ..._lazy import lazy_exports

_LAZY = {
    "StructuredTuner": ".tuner",
    "ScheduleSpace": ".space",
    "Knob": ".space",
    "CandidateScreen": ".screen",
    "MeasurementPool": ".measure",
}

__getattr__ = lazy_exports(__name__, globals(), _LAZY)

__all__ = list(_LAZY)
