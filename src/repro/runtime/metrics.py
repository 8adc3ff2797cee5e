"""Process-wide counter tables: the disk store, the verifier, the cost
model, the tuner and its search, the worker pool and the server.

Each table is one group of ``repro.stats()``. The simulated device that
counts kernels, traffic, FLOPs and footprint for Figures 16-18 lives in
:mod:`repro.runtime.gpusim`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List

from ..state import Counters

# ---------------------------------------------------------------------------
# Process-wide counter tables. Each is a ``repro.state.Counters`` — one
# group of ``repro.stats()``, zeroed by ``repro.reset_stats()`` — and the
# ``*_stats`` / ``reset_*`` names below are bindings of its methods. A
# ``record_*`` function exists only where one event moves several keys
# or picks the key; everything else is ``TABLE.add(key)`` at the site.
# ---------------------------------------------------------------------------

#: persistent (on-disk) compile-cache counters (see repro.cache and
#: docs/PERFORMANCE.md): IR entry hits/misses with lookup/store latency,
#: native-artifact (.so) reuse vs fresh gcc runs
DISK = Counters(
    "disk",
    ir_hits=0,            # IR entries served from disk
    ir_misses=0,          # disk lookups that found nothing
    ir_stores=0,          # IR entries written
    ir_corrupt=0,         # truncated/garbled entries treated as misses
    ir_unserializable=0,  # funcs the serializer refused to store
    lookup_time_s=0.0,
    store_time_s=0.0,
    native_hits=0,        # compiled .so found in the shared store
    native_misses=0,
    gcc_runs=0,           # actual C-compiler subprocess invocations
    gcc_time_s=0.0,
    evictions=0,          # entries removed by LRU GC
)
disk_cache_stats = DISK.snapshot


def record_disk_lookup(hit: bool, seconds: float = 0.0):
    DISK.add("ir_hits" if hit else "ir_misses")
    DISK.add("lookup_time_s", seconds)


def record_disk_store(seconds: float = 0.0):
    DISK.add("ir_stores")
    DISK.add("store_time_s", seconds)


def record_gcc_run(seconds: float):
    DISK.add("gcc_runs")
    DISK.add("gcc_time_s", seconds)


#: verifier pass/fail counters (published by the CI verify-workloads job)
VERIFIER = Counters("verifier", runs=0, passed=0, failed=0, errors=0,
                    warnings=0)
verifier_stats = VERIFIER.snapshot
reset_verifier_stats = VERIFIER.reset


def record_verifier_run(n_errors: int, n_warnings: int):
    """Account one ``repro.verify`` run; a run with any error-severity
    finding counts as failed."""
    VERIFIER.add("runs")
    VERIFIER.add("errors", int(n_errors))
    VERIFIER.add("warnings", int(n_warnings))
    VERIFIER.add("failed" if n_errors else "passed")


#: cost-model counters (see repro.analysis.cost and docs/PERFORMANCE.md
#: "Cost model & tuner pruning")
COST = Counters(
    "cost",
    analyses=0,     # analyze_cost calls
    time_s=0.0,
)
cost_stats = COST.snapshot
reset_cost_stats = COST.reset


#: tuner screening counters, plus the last finished session's winning
#: schedule trace
TUNER = Counters(
    "tuner",
    candidates=0,       # schedules drawn by a tuner
    dedup_skips=0,      # structurally identical to an earlier candidate
    cost_pruned=0,      # dominated by the incumbent's estimate
    frontier_skips=0,   # survived screening but ranked below top-k
    invalid=0,          # knob assignment failed to realize (illegal)
    measured=0,         # actually compiled + run
    measure_failed=0,   # compile/run raised (illegal candidate)
    measure_timeout=0,  # worker hung/crashed and was killed
    best_trace=None,    # ``ScheduleTrace.as_json()`` of the last winner
)
tuner_stats = TUNER.snapshot
reset_tuner_stats = TUNER.reset


def record_tuner_candidate(outcome: str):
    """Account one tuner round; ``outcome`` is one of ``dedup_skips`` /
    ``cost_pruned`` / ``frontier_skips`` / ``invalid`` / ``measured`` /
    ``measure_failed`` / ``measure_timeout``."""
    TUNER.add("candidates")
    TUNER.add(outcome)


def record_best_trace(trace_json):
    """Publish the winner's schedule trace (JSON-able list of steps) so
    ``tuner_stats()`` can report how the best schedule was built."""
    TUNER["best_trace"] = trace_json


#: structured search-space counters (see repro.autosched.search and
#: docs/PERFORMANCE.md "Structured search & parallel measurement")
SEARCH = Counters(
    "search",
    spaces=0,        # ScheduleSpace.extract calls
    knobs=0,         # total knobs across extracted spaces
    order_knobs=0,
    tile_knobs=0,
    ann_knobs=0,
    generations=0,   # evolutionary generations advanced
    assignments=0,   # knob assignments drawn (before screening)
)
search_stats = SEARCH.snapshot
reset_search_stats = SEARCH.reset

#: parallel-measurement-pool counters (same docs section)
POOL = Counters(
    "pool",
    sessions=0,            # measurement pools started
    backend="",            # registry name of the last session's backend
    max_workers=0,         # largest pool size seen
    tasks=0,               # measurement tasks dispatched to workers
    task_failures=0,       # candidate compile/run raised in a worker
    task_timeouts=0,       # worker killed after exceeding the deadline
    worker_respawns=0,     # replacement workers forked after a death
    worker_gcc_runs=0,     # gcc invocations inside workers (summed)
    worker_native_hits=0,  # .so served to workers by the disk store
    measure_time_s=0.0,    # wall-clock spent inside pool.measure()
)
pool_stats = POOL.snapshot
reset_pool_stats = POOL.reset


# ---------------------------------------------------------------------------
# Serving-runtime counters (see repro.serving and docs/SERVING.md):
# admission, batching, worker-pool outcomes, latency, per-tenant usage.
# ---------------------------------------------------------------------------

#: batch size -> number of batches of that size
_SERVING_BATCH_HIST: Dict[int, int] = {}

#: the most recent request latencies (seconds, admission->response):
#: a full window drops its oldest sample for each new one
_SERVING_LATENCIES: deque = deque(maxlen=4096)

#: tenant -> {"submitted": n, "completed": n, "rejected": n, "failed": n}
_SERVING_TENANTS: Dict[str, Dict[str, int]] = {}

#: guards every read-modify-write of the serving family: dispatcher
#: threads record outside Server._lock and several Servers may share the
#: process. Callers record in bulk, so it is taken once per batch (or per
#: submission call), never once per request of a batch.
_SERVING_LOCK = threading.Lock()


class _ServingCounters(Counters):
    """The serving counters; a snapshot adds the batch-size histogram,
    p50/p99 request latency (seconds, over the 4096 most recent
    responses) and the per-tenant usage rows, and a reset empties those
    too."""

    def snapshot(self) -> Dict[str, object]:
        with _SERVING_LOCK:
            out: Dict[str, object] = super().snapshot()
            out["batch_size_hist"] = dict(sorted(_SERVING_BATCH_HIST.items()))
            latencies = list(_SERVING_LATENCIES)
            out["per_tenant"] = {t: dict(r) for t, r in
                                 sorted(_SERVING_TENANTS.items())}
        out["latency_p50_s"] = _percentile(latencies, 0.50)
        out["latency_p99_s"] = _percentile(latencies, 0.99)
        out["latency_samples"] = len(latencies)
        return out

    def reset(self):
        with _SERVING_LOCK:
            super().reset()
            _SERVING_BATCH_HIST.clear()
            _SERVING_LATENCIES.clear()
            _SERVING_TENANTS.clear()


SERVING = _ServingCounters(
    "serving",
    submitted=0,         # requests offered to Server.submit
    admitted=0,          # ... accepted into a bucket queue
    rejected_quota=0,    # ... refused: tenant over its in-flight quota
    rejected_queue=0,    # ... refused: bounded queue full (backpressure)
    completed=0,         # responses with status "ok"
    failed=0,            # responses with status "failed" (incl. crashes)
    timed_out=0,         # responses with status "timeout"
    batches=0,           # batched executions dispatched
    batched_requests=0,  # requests carried by those batches
    worker_respawns=0,   # serving workers replaced after crash/hang
    queue_depth_peak=0,  # largest total queued-request count seen
    pad_elements=0,      # padding elements added by ragged pad batching
)
serving_stats = SERVING.snapshot
reset_serving_stats = SERVING.reset


def _tenant_row(tenant: str) -> Dict[str, int]:
    row = _SERVING_TENANTS.get(tenant)
    if row is None:
        row = _SERVING_TENANTS[tenant] = {
            "submitted": 0, "completed": 0, "rejected": 0, "failed": 0}
    return row


def record_serving_submit(tenant: str, outcome: str, n: int = 1):
    """Account ``n`` same-outcome admission decisions; ``outcome`` is
    ``admitted`` / ``rejected_quota`` / ``rejected_queue``. The count
    parameter lets the server's wave-submission path record a whole
    batch of decisions in one call."""
    with _SERVING_LOCK:
        SERVING.add("submitted", n)
        SERVING.add(outcome, n)
        row = _tenant_row(tenant)
        row["submitted"] += n
        if outcome != "admitted":
            row["rejected"] += n


_RESPONSE_KEY = {"ok": "completed", "failed": "failed",
                 "timeout": "timed_out"}


def record_serving_responses(tenant: str, status: str,
                             latencies: List[float]):
    """Account the terminal responses of one batch whose requests share
    a tenant and ``status`` (``ok`` / ``failed`` / ``timeout``)."""
    n = len(latencies)
    with _SERVING_LOCK:
        SERVING.add(_RESPONSE_KEY[status], n)
        row = _tenant_row(tenant)
        row["completed" if status == "ok" else "failed"] += n
        _SERVING_LATENCIES.extend(latencies)


def record_serving_batch(size: int, pad_elements: int = 0):
    with _SERVING_LOCK:
        SERVING.add("batches")
        SERVING.add("batched_requests", int(size))
        SERVING.add("pad_elements", int(pad_elements))
        _SERVING_BATCH_HIST[int(size)] = \
            _SERVING_BATCH_HIST.get(int(size), 0) + 1


def record_serving_queue_depth(depth: int):
    with _SERVING_LOCK:
        SERVING["queue_depth_peak"] = max(SERVING["queue_depth_peak"],
                                          int(depth))


def record_serving_respawn():
    with _SERVING_LOCK:
        SERVING.add("worker_respawns")


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]
