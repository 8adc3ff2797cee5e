"""The schedule searcher: a structured evolutionary search over the typed
knob space, the reproduction's stand-in for the TVM/Ansor tuning loop of
the paper's Table 2 (every candidate is compiled and measured).

:class:`StructuredTuner` searches coherent points of a
:class:`~repro.autosched.search.space.ScheduleSpace`:

1. **generate** — each generation draws a batch of knob assignments:
   mutations and crossovers of the surviving population plus a slice of
   fresh random exploration (generation 0 seeds the batch with the
   identity assignment so the unscheduled base is always a measured
   baseline);
2. **screen** — every realized candidate passes the session's
   :class:`~repro.autosched.search.screen.CandidateScreen` (struct-hash
   dedup + dominance pruning, ``REPRO_NO_COST_PRUNE=1`` to disable);
3. **rank** — screening survivors are ordered by the cost model's
   ``time_proxy`` (``analysis.cost.frontier_order``) and only the top-k
   are measured; the rest are counted as ``frontier_skips``;
4. **measure** — the top-k go through a
   :class:`~repro.autosched.search.measure.MeasurementPool` of worker
   processes (``workers=1`` measures serially in-process). Results fold
   back in submission order with strict ``<`` winner updates, and all
   RNG draws happen in the generate step — so the same seed yields the
   same winner at any worker count (given identical measured values;
   the determinism tests pin measurements with
   ``REPRO_TUNE_FAKE_MEASURE=1``).

The result is a plain :class:`TuneResult` whose ``best_trace`` replays
the winning schedule.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Tuple

import time

from ...errors import FreeTensorError
from ...ir.hashing import struct_hash
from ...schedule import Schedule
from ..target import default_target
from .measure import (MeasurementPool, OK, TIMEOUT, fake_measure_enabled,
                      pool_size)
from .screen import CandidateScreen
from .space import ScheduleSpace
from .trace import ScheduleTrace


class TuneResult:
    """Outcome of a tuning session."""

    def __init__(self, best_func, best_time: float,
                 round_times: List[float], measure_times: List[float],
                 dedup_skips: int = 0, cost_pruned: int = 0,
                 best_trace: Optional[ScheduleTrace] = None,
                 frontier_skips: int = 0, invalid: int = 0,
                 timeouts: int = 0):
        self.best_func = best_func
        self.best_time = best_time
        #: wall-clock share of each drawn candidate (its generation's
        #: wall-clock split evenly over the generation's draws)
        self.round_times = round_times
        #: measured candidate runtimes
        self.measure_times = measure_times
        #: candidates skipped because they were a structural repeat
        self.dedup_skips = dedup_skips
        #: candidates skipped because the incumbent's estimate dominated
        self.cost_pruned = cost_pruned
        #: replayable schedule trace of the winner (None when nothing
        #: was measured)
        self.best_trace = best_trace
        #: candidates that survived screening but ranked below the
        #: measurement top-k
        self.frontier_skips = frontier_skips
        #: knob assignments that failed to realize into a schedule
        self.invalid = invalid
        #: measurements killed on the worker-pool deadline
        self.timeouts = timeouts

    @property
    def rounds(self) -> int:
        return len(self.round_times)

    @property
    def measured(self) -> int:
        """Candidates that were actually compiled and measured."""
        return len(self.measure_times)

    @property
    def total_time(self) -> float:
        return sum(self.round_times)

    @property
    def time_per_round(self) -> float:
        return self.total_time / max(1, self.rounds)


class StructuredTuner:
    """Cost-frontier-guided evolutionary search over typed schedule knobs,
    with parallel multi-process measurement."""

    def __init__(self, program_or_func, make_inputs: Callable[[], tuple],
                 backend: str = "pycode", rounds: int = 64,
                 batch: int = 16, topk: Optional[int] = None,
                 population: int = 8, explore_prob: float = 0.25,
                 crossover_prob: float = 0.3, seed: int = 0,
                 repeats: int = 1, scalars: Optional[dict] = None,
                 workers: Optional[int] = None,
                 timeout_s: Optional[float] = None, target=None):
        self.base = Schedule(program_or_func).func
        self.make_inputs = make_inputs
        self.backend = backend
        #: total candidate budget (knob assignments drawn)
        self.rounds = rounds
        self.batch = max(1, batch)
        self.generations = max(1, math.ceil(rounds / self.batch))
        self.topk = topk if topk is not None else max(2, self.batch // 4)
        self.population = population
        self.explore_prob = explore_prob
        self.crossover_prob = crossover_prob
        self.rng = random.Random(seed)
        self.repeats = repeats
        self.scalars = scalars or {}
        self.workers = pool_size(workers)
        self.timeout_s = timeout_s
        self.target = target or default_target(backend)
        self.screen = CandidateScreen(self.base, make_inputs, backend,
                                      self.target, self.scalars)
        self.space = ScheduleSpace.extract(self.base, backend,
                                           self.target)

    # -- generation --------------------------------------------------------
    def _draw_batch(self, generation: int, pool: List[tuple],
                    budget: int) -> List[dict]:
        """Knob assignments for one generation (all RNG happens here, so
        the search path is independent of measurement timing)."""
        n = min(self.batch, budget)
        out: List[dict] = []
        if generation == 0:
            # the identity assignment: always measure the base schedule
            out.append(self.space.default_assignment())
        while len(out) < n:
            if not pool or self.rng.random() < self.explore_prob:
                out.append(self.space.random_assignment(self.rng))
            elif len(pool) >= 2 \
                    and self.rng.random() < self.crossover_prob:
                i = self.rng.randrange(len(pool))
                j = self.rng.randrange(len(pool))
                out.append(self.space.crossover(pool[i][1], pool[j][1],
                                                self.rng))
            else:
                parent = pool[self.rng.randrange(len(pool))][1]
                steps = 1 + (self.rng.random() < 0.3)
                out.append(self.space.mutate(parent, self.rng,
                                             steps=steps))
        return out

    # -- the search loop ---------------------------------------------------
    def tune(self) -> TuneResult:
        from ...analysis.cost import frontier_order
        from ...runtime import metrics

        best_func, best_time = self.base, float("inf")
        best_trace: Optional[ScheduleTrace] = None
        round_times: List[float] = []
        measure_times: List[float] = []
        dedup_skips = cost_pruned = frontier_skips = invalid = 0
        timeouts = 0
        #: (measured_time, assignment, func, trace), best first
        pool_members: List[tuple] = []
        seen_keys = set()
        fake_mode = fake_measure_enabled()
        self.screen.reset()

        with MeasurementPool(self.workers, self.backend,
                             self.screen.inputs(), self.scalars,
                             self.repeats, self.timeout_s) as mpool:
            budget = self.rounds
            for gen in range(self.generations):
                if budget <= 0:
                    break
                t0 = time.perf_counter()
                batch = self._draw_batch(gen, pool_members, budget)
                budget -= len(batch)
                metrics.SEARCH.add("generations")
                metrics.SEARCH.add("assignments", len(batch))

                # realize + screen every assignment, in draw order
                survivors = []  # (assignment, func, trace, est)
                for a in batch:
                    key = self.space.assignment_key(a)
                    if key in seen_keys:
                        dedup_skips += 1
                        metrics.record_tuner_candidate("dedup_skips")
                        continue
                    seen_keys.add(key)
                    try:
                        func, trace = self.space.realize(a)
                    except FreeTensorError:
                        invalid += 1
                        metrics.record_tuner_candidate("invalid")
                        continue
                    verdict, est = self.screen.screen(func)
                    if verdict == "dedup_skips":
                        dedup_skips += 1
                    elif verdict == "cost_pruned":
                        cost_pruned += 1
                    else:
                        survivors.append((a, func, trace, est))

                # rank survivors on the cost frontier; measure the top-k
                order = frontier_order([s[3] for s in survivors])
                chosen = order[:self.topk]
                skipped = len(order) - len(chosen)
                frontier_skips += skipped
                for _ in range(skipped):
                    metrics.record_tuner_candidate("frontier_skips")

                entries = []
                for idx in chosen:
                    _a, func, _tr, est = survivors[idx]
                    fake = None
                    if fake_mode:
                        # deterministic pseudo-time, computed in the
                        # parent so every worker count sees identical
                        # "timings": the cost model's proxy when
                        # screening is on, else a structural hash (the
                        # winner is then arbitrary but reproducible)
                        if est is not None:
                            fake = float(est.time_proxy)
                        else:
                            fake = 1.0 + int(struct_hash(func),
                                             16) % 10**9 / 1e9
                    entries.append((func, fake))
                outcomes = mpool.measure_batch(entries)

                # fold back in submission order (determinism)
                for (idx, (outcome, payload)) in zip(chosen, outcomes):
                    a, func, trace, est = survivors[idx]
                    if outcome == OK:
                        metrics.record_tuner_candidate("measured")
                        t = float(payload)
                        measure_times.append(t)
                        pool_members.append((t, a, func, trace))
                        if t < best_time:
                            best_time, best_func = t, func
                            best_trace = trace
                            self.screen.accept(est)
                    elif outcome == TIMEOUT:
                        timeouts += 1
                        metrics.record_tuner_candidate(
                            "measure_timeout")
                    else:
                        metrics.record_tuner_candidate("measure_failed")
                pool_members.sort(key=lambda p: p[0])
                del pool_members[self.population:]

                # one round_times entry per drawn candidate, so
                # ``rounds`` counts the budget spent
                gen_wall = time.perf_counter() - t0
                round_times.extend([gen_wall / len(batch)] * len(batch))

        metrics.record_best_trace(
            best_trace.as_json() if best_trace is not None else None)
        return TuneResult(best_func, best_time, round_times,
                          measure_times, dedup_skips=dedup_skips,
                          cost_pruned=cost_pruned,
                          best_trace=best_trace,
                          frontier_skips=frontier_skips,
                          invalid=invalid, timeouts=timeouts)
