"""The static screening front-end of the schedule search.

One :class:`CandidateScreen` per tuning session decides, before any
compile, which candidates are worth measuring:

1. *dedup* — structurally identical candidates (sid-less
   ``struct_hash``) are measured once; repeats are skipped.
2. *dominance pruning* — each candidate is cost-analyzed
   (``repro.analysis.cost``) and skipped when the incumbent best's
   estimate is at least as good on **every** axis. A candidate that is
   better on *any* axis is still measured, so a sound estimate never
   hides a potential winner.

The screen also owns the per-session scalar environment and the
**per-session measurement inputs**: ``make_inputs()`` runs once and
every measurement binds the same arrays (which is what lets worker
processes receive the arrays once at fork time).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ...ir import Func
from ...ir.hashing import struct_hash


class CandidateScreen:
    """Per-session dedup + dominance pruning + cached inputs/estimates."""

    def __init__(self, base: Func, make_inputs: Callable[[], tuple],
                 backend: str, target, scalars: dict):
        self.base = base
        self.make_inputs = make_inputs
        self.backend = backend
        self.target = target
        self.scalars = scalars
        self._seen: set = set()
        self._scalar_env: Optional[dict] = None
        self._inputs: Optional[tuple] = None
        #: times ``make_inputs`` actually ran (should stay at 1/session)
        self.input_regens = 0
        self.reset()

    def reset(self):
        """Start a fresh session."""
        self.best_est = None
        self._seen.clear()

    # -- cached per-session state ------------------------------------------
    def inputs(self) -> tuple:
        """The measurement inputs, materialized once per session."""
        if self._inputs is None:
            self._inputs = tuple(self.make_inputs())
            self.input_regens += 1
        return self._inputs

    def scalar_env(self) -> dict:
        # Shape variables (loop bounds) are not in ``self.scalars`` —
        # recover them from the one materialized input set every
        # measurement binds, so symbolic candidates are compared under
        # their real trip counts.
        if self._scalar_env is None:
            from ...analysis.cost import infer_scalar_env

            try:
                arrays = self.inputs()
            except Exception:
                arrays = ()
            self._scalar_env = infer_scalar_env(self.base, arrays,
                                                self.scalars)
        return self._scalar_env

    # -- estimates ---------------------------------------------------------
    def estimate(self, func: Func):
        # Estimate the standard-lowered tree, not the raw candidate: the
        # backend compiles post-make_reduction/simplify IR, and vectorize
        # feasibility (BackendCaps.vec_feasible) depends on those forms.
        # The lowering memo shares this lowering with the subsequent
        # build of any candidate that survives screening.
        from ...analysis.cost import analyze_cost
        from ...errors import FreeTensorError
        from ...pipeline import lowering_pipeline

        try:
            func = lowering_pipeline().run(func)
        except FreeTensorError:  # pragma: no cover - fails in measure too
            pass
        return analyze_cost(func, backend=self.backend, target=self.target,
                            scalar_env=self.scalar_env())

    def screen(self, cand: Func) -> Tuple[str, object]:
        """Decide a candidate's fate before compiling it.

        Returns ``(verdict, estimate)`` with verdict one of ``"measure"``
        (go compile+measure), ``"dedup_skips"`` or ``"cost_pruned"``.
        """
        from ...runtime import metrics

        h = struct_hash(cand)  # sid-less: same structure, same schedule
        if h in self._seen:
            metrics.record_tuner_candidate("dedup_skips")
            return "dedup_skips", None
        self._seen.add(h)
        est = self.estimate(cand)
        if self.best_est is not None \
                and self.best_est.dominates_or_equal(est):
            metrics.record_tuner_candidate("cost_pruned")
            return "cost_pruned", est
        return "measure", est

    def accept(self, est):
        """Record the estimate of a new incumbent best (tightens the
        dominance pruner for later rounds)."""
        if est is not None:
            self.best_est = est
