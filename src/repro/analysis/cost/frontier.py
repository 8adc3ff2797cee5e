"""Frontier ordering over cost estimates.

PR 7 used :class:`~repro.analysis.cost.model.CostEstimate` only as a
*pruner* (dominance against the incumbent). The structured searcher
(``repro.autosched.search``) also needs it as an *ordering*: each
generation screens a batch of candidates and measures only the most
promising few. This module provides that ordering.

:func:`frontier_order` takes a list of ``CostEstimate | None`` and returns
**indices** into it. ``None`` estimates (screening disabled, or the
estimate failed) sort after every real estimate but are never dropped —
ordering is advisory, candidates must not silently disappear here. Ties
and ``None`` groups keep submission order, which is what makes the
searcher's winner independent of measurement-worker count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .model import CostEstimate


def frontier_order(estimates: Sequence[Optional[CostEstimate]]
                   ) -> List[int]:
    """Indices of ``estimates`` from most to least promising.

    Primary key is ``time_proxy`` ascending; ``None`` estimates go last;
    equal keys keep their input order (stable sort).
    """
    def key(i: int):
        e = estimates[i]
        return (0, e.time_proxy) if e is not None else (1, 0.0)

    return sorted(range(len(estimates)), key=key)

