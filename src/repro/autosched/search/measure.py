"""Parallel candidate measurement: a task definition over the worker pool.

Measuring candidates serially in-process means a miscompiled candidate
that segfaults or loops forever kills the whole tuning session, and
wall-clock is the sum of every measurement. :class:`MeasurementPool`
runs measurements on the fork-worker pool of :mod:`repro.runtime.pool`
instead (its docstring states the crash/hang/respawn protocol once):

- **isolation** — each candidate is compiled + run inside a worker; a
  crash or a hang is folded back as a *failed/timeout outcome for that
  one candidate* and a replacement worker is forked, so the session
  always survives;
- **shared artifacts** — workers inherit ``REPRO_CACHE_DIR`` and serve
  repeat compiles from the PR 4 on-disk store, so ``gcc_runs`` does not
  scale with worker count (each distinct candidate is compiled by
  whichever worker gets there first; the rest hit the shared ``.so``
  store). Workers report their per-task ``gcc_runs`` / ``native_hits``
  deltas back to the parent, folded into
  ``runtime.metrics.pool_stats()``;
- **determinism** — results return in *submission order* regardless of
  completion order, so the searcher's fold (and therefore the winner) is
  identical at any worker count given identical measured values;
- **deadline** — ``timeout_s`` (default 60) bounds each candidate; a
  worker past it is killed and the candidate counted as a timeout.

Environment knob (see docs/PERFORMANCE.md):

- ``REPRO_TUNE_FAKE_MEASURE=1`` — compile-only mode: the pool returns
  the deterministic pseudo-time the searcher attached to each task
  (derived from the cost model's ``time_proxy``) instead of wall-clock.
  Used by the determinism tests and the shared-store test, where real
  timings would be noise.

Fault injection for the isolation tests (``repro.runtime.pool.fault``,
``crash:<hash-prefix|*>`` / ``hang:<prefix|*>``): a worker about to
measure a candidate whose sid-less ``struct_hash`` matches the prefix
exits without cleanup or hangs instead.
"""

from __future__ import annotations

import functools
import os
import time
from typing import List, Optional, Sequence, Tuple

from ...ir import Func
from ...ir.hashing import struct_hash
from ...runtime.pool import FAILED, OK, TIMEOUT, WorkerPool, fault_spec, inject

DEFAULT_TIMEOUT_S = 60.0


def pool_size(workers: Optional[int] = None) -> int:
    """Resolve a worker count: the explicit argument, else 1 (serial)."""
    return max(1, int(workers or 1))


def fake_measure_enabled() -> bool:
    return os.environ.get("REPRO_TUNE_FAKE_MEASURE") == "1"


def _injected_fault(func: Func) -> Optional[str]:
    kind, pattern = fault_spec()
    if kind and (pattern == "*" or struct_hash(func).startswith(pattern)):
        return kind
    return None


def format_failure(backend: str, exc: BaseException) -> str:
    """One consistent rendering of a candidate compile/run failure, so
    the serial path and the pool workers agree on the backend name
    (fault-injection logs vs ``pool_stats()``)."""
    return f"{backend}: {type(exc).__name__}: {exc}"


def measure_once(func: Func, backend: str, inputs: Sequence,
                 scalars: dict, repeats: int,
                 fake_time: Optional[float] = None) -> float:
    """Compile + measure one candidate in the current process.

    With ``fake_time`` set (fake-measure mode) the candidate is still
    fully compiled — exercising the shared compile caches — but not run;
    the deterministic pseudo-time is returned instead.
    """
    from ...runtime.driver import build

    exe = build(func, backend=backend)
    if fake_time is not None:
        return float(fake_time)
    exe(*inputs, **scalars)  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        exe(*inputs, **scalars)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_task(backend: str, inputs: tuple, scalars: dict, repeats: int,
                  task) -> Tuple[bool, object, int, int]:
    """The pool handler: measure one ``(func, fake_time)`` task inside a
    worker; returns ``(ok, seconds | message, gcc_runs, native_hits)``.

    The worker receives only the backend *name*; the Backend object is
    resolved from the registry inside the fork (``build()`` queries
    it), so whatever the parent registered under that name is what the
    worker runs."""
    from ...runtime import metrics

    func, fake_time = task
    inject(_injected_fault(func))
    before = metrics.disk_cache_stats()
    try:
        ok, payload = True, measure_once(func, backend, inputs, scalars,
                                         repeats, fake_time)
    except Exception as e:  # noqa: BLE001 - isolation is the point
        ok, payload = False, format_failure(backend, e)
    after = metrics.disk_cache_stats()
    return (ok, payload, int(after["gcc_runs"] - before["gcc_runs"]),
            int(after["native_hits"] - before["native_hits"]))


class MeasurementPool:
    """``k`` persistent worker processes measuring candidates.

    With ``workers <= 1`` the pool degenerates to serial in-process
    measurement (no subprocesses at all) — the honest 1-worker baseline
    the speedup gate compares against.
    """

    def __init__(self, workers: Optional[int] = None,
                 backend: str = "pycode", inputs: Sequence = (),
                 scalars: Optional[dict] = None, repeats: int = 1,
                 timeout_s: Optional[float] = None):
        from ...backend import find_backend
        from ...runtime import metrics

        self.workers = pool_size(workers)
        b = find_backend(backend)
        #: the registry object's name (not the caller's spelling), so
        #: pool metrics and worker failure payloads agree
        self.backend = b.name if b is not None else backend
        self.inputs = tuple(inputs)
        self.scalars = dict(scalars or {})
        self.repeats = repeats
        self.timeout_s = timeout_s if timeout_s is not None \
            else DEFAULT_TIMEOUT_S
        self._pool: Optional[WorkerPool] = None
        if self.workers >= 2:
            self._pool = WorkerPool(
                functools.partial(_measure_task, self.backend, self.inputs,
                                  self.scalars, self.repeats),
                self.workers, self.timeout_s,
                on_respawn=functools.partial(metrics.POOL.add,
                                             "worker_respawns"))
        metrics.POOL.add("sessions")
        metrics.POOL["backend"] = self.backend
        metrics.POOL["max_workers"] = max(metrics.POOL["max_workers"],
                                          self.workers)

    # -- measurement -------------------------------------------------------
    def measure_batch(self, entries: Sequence[Tuple[Func, Optional[float]]]
                      ) -> List[Tuple[str, object]]:
        """Measure ``(func, fake_time)`` entries; returns one
        ``(outcome, payload)`` per entry **in submission order** —
        ``("ok", seconds)``, ``("failed", message)`` or
        ``("timeout", None)``."""
        from ...runtime import metrics

        t0 = time.perf_counter()
        if self._pool is None:
            out = [self._measure_serial(func, fake) for func, fake in
                   entries]
        else:
            out = []
            for outcome, payload in self._pool.map(entries):
                if outcome == OK:  # the handler's own verdict + deltas
                    ok, payload, gcc, native = payload
                    metrics.POOL.add("worker_gcc_runs", gcc)
                    metrics.POOL.add("worker_native_hits", native)
                    outcome = OK if ok else FAILED
                out.append((outcome, payload))
        outcomes = [outcome for outcome, _ in out]
        metrics.POOL.add("tasks", len(out))
        metrics.POOL.add("task_failures", outcomes.count(FAILED))
        metrics.POOL.add("task_timeouts", outcomes.count(TIMEOUT))
        metrics.POOL.add("measure_time_s", time.perf_counter() - t0)
        return out

    def _measure_serial(self, func: Func, fake: Optional[float]
                        ) -> Tuple[str, object]:
        try:
            return OK, measure_once(func, self.backend, self.inputs,
                                    self.scalars, self.repeats, fake)
        except Exception as e:  # noqa: BLE001 - match worker isolation
            return FAILED, format_failure(self.backend, e)

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "MeasurementPool":
        return self

    def __exit__(self, *exc):
        self.close()
