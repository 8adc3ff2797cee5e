"""Execution metrics: kernel launches, DRAM/L2 traffic, FLOPs, footprint.

This is the measurement substrate for the paper's Figure 17 (kernel
invocations, DRAM bytes, L2 bytes, FLOP count) and the OOM outcomes of
Figures 16(b)/18. The memory-hierarchy model is deliberately simple and
documented:

- every scalar access to a *global-memory* tensor costs one 32-byte sector
  at the L2 (adjacent repeated accesses to the same sector by the same
  access site are merged — a one-entry coalescing buffer);
- DRAM traffic is 64-byte lines missing in an LRU cache of configurable
  capacity;
- accesses to registers / scratchpad (``byvalue``, ``gpu/local``,
  ``gpu/shared``) are free.

Absolute byte counts are approximations; the paper-level comparisons
(FreeTensor touching a few percent of the baseline's DRAM traffic) are
driven by *which* tensors get materialised, which this model captures
exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulatedOOM
from ..ir import (AccessType, Expr, For, Func, MemType, Stmt, StmtSeq,
                  VarDef, collect_stmts)
from ..state import Counters

SECTOR = 32
LINE = 64

# ---------------------------------------------------------------------------
# Process-wide counter tables. Each is a ``repro.state.Counters`` — one
# group of ``repro.stats()``, zeroed by ``repro.reset_stats()`` — and the
# ``*_stats`` / ``reset_*`` names below are bindings of its methods. A
# ``record_*`` function exists only where one event moves several keys
# or picks the key; everything else is ``TABLE.add(key)`` at the site.
# ---------------------------------------------------------------------------

#: per pass name: cumulative runs, per-pass cache hits, wall-clock seconds
#: (see repro.pipeline and docs/ARCHITECTURE.md); the key set is open, so
#: these rows ride beside the ``passes`` table, whose reset empties them
_PIPELINE_STATS: Dict[str, Dict[str, float]] = {}


def record_pass_run(name: str, seconds: float, cache_hit: bool):
    """Account one pipeline pass execution (or cache-served skip)."""
    row = _PIPELINE_STATS.get(name)
    if row is None:
        row = _PIPELINE_STATS[name] = {"runs": 0, "cache_hits": 0,
                                       "time_s": 0.0}
    row["runs"] += 1
    if cache_hit:
        row["cache_hits"] += 1
    row["time_s"] += seconds


def pipeline_stats() -> Dict[str, Dict[str, float]]:
    """Cumulative per-pass pipeline counters for this process: number of
    runs, per-pass cache hits among them, and total wall-clock seconds
    (cache-served runs contribute only their lookup time)."""
    return {name: dict(row) for name, row in _PIPELINE_STATS.items()}


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
    analyses=0,     # estimate_cost calls
    memo_hits=0,    # ... served from the in-process memo
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

#: bounded reservoir of request latencies (seconds, admission->response)
_SERVING_LATENCIES: List[float] = []
_SERVING_LATENCY_CAP = 4096

#: tenant -> {"submitted": n, "completed": n, "rejected": n, "failed": n}
_SERVING_TENANTS: Dict[str, Dict[str, int]] = {}

#: guards every read-modify-write of the serving family: dispatcher
#: threads record outside Server._lock and several Servers may share the
#: process. Callers record in bulk, so it is taken once per batch (or per
#: submission call), never once per request of a batch.
_SERVING_LOCK = threading.Lock()


class _ServingCounters(Counters):
    """The serving counters; a snapshot adds the batch-size histogram,
    p50/p99 request latency (seconds, over a bounded reservoir) and the
    per-tenant usage rows, and a reset empties those too."""

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
        room = _SERVING_LATENCY_CAP - len(_SERVING_LATENCIES)
        if room > 0:
            _SERVING_LATENCIES.extend(float(x) for x in latencies[:room])


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


class MetricsCollector:
    """Counts events reported by the interpreter / simulated device."""

    def __init__(self, l2_capacity: int = 4 * 1024 * 1024,
                 count_local: bool = False,
                 capacity_bytes: Optional[int] = None):
        #: when set, allocations beyond this raise SimulatedOOM
        self.capacity_bytes = capacity_bytes
        self.kernels = 0
        self.kernel_names: List[str] = []
        self.l2_bytes = 0
        self.dram_bytes = 0
        self.flops = 0
        self.current_bytes = 0
        self.peak_bytes = 0
        self.count_local = count_local
        self._l2_lines = max(1, l2_capacity // LINE)
        self._l2: "OrderedDict[tuple, bool]" = OrderedDict()
        self._last_sector: Dict[tuple, tuple] = {}
        self._mtypes: Dict[int, MemType] = {}

    # -- kernels -----------------------------------------------------------
    def on_kernel(self, name: str):
        self.kernels += 1
        self.kernel_names.append(name)

    # -- memory ------------------------------------------------------------
    def _counts(self, buf) -> bool:
        mt = self._mtypes.get(id(buf))
        if mt is None:
            return True  # parameters default to global memory
        if self.count_local:
            return True
        return mt.is_global

    def on_alloc(self, name: str, buf: np.ndarray, mtype: MemType):
        self._mtypes[id(buf)] = mtype
        if mtype.is_global:
            self.current_bytes += buf.nbytes
            self.peak_bytes = max(self.peak_bytes, self.current_bytes)
            if self.capacity_bytes is not None and \
                    self.current_bytes > self.capacity_bytes:
                raise SimulatedOOM(
                    f"allocating {name!r} exceeds device capacity",
                    requested=self.current_bytes,
                    capacity=self.capacity_bytes)

    def on_free(self, name: str, buf: np.ndarray, mtype: MemType):
        if mtype.is_global:
            self.current_bytes -= buf.nbytes
        self._mtypes.pop(id(buf), None)

    def register_param(self, buf: np.ndarray, mtype: MemType = MemType.CPU):
        """Count an input/output buffer toward the footprint."""
        self._mtypes[id(buf)] = mtype
        if mtype.is_global:
            self.current_bytes += buf.nbytes
            self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def _touch(self, buf: np.ndarray, idx: tuple):
        if not self._counts(buf):
            return
        if idx:
            off = int(sum(int(i) * s for i, s in zip(idx, buf.strides)))
        else:
            off = 0
        sector = (id(buf), off // SECTOR)
        if self._last_sector.get(id(buf)) != sector:
            self._last_sector[id(buf)] = sector
            self.l2_bytes += SECTOR
            line = (id(buf), off // LINE)
            hit = self._l2.pop(line, None)
            if hit is None:
                self.dram_bytes += LINE
                if len(self._l2) >= self._l2_lines:
                    self._l2.popitem(last=False)
            self._l2[line] = True

    def on_read(self, name: str, buf, idx):
        self._touch(buf, idx)

    def on_write(self, name: str, buf, idx):
        self._touch(buf, idx)

    def on_bulk_read(self, buf: np.ndarray):
        """A whole-tensor read by a library kernel."""
        if self._counts(buf):
            self.l2_bytes += buf.nbytes
            self.dram_bytes += buf.nbytes  # streaming access

    def on_bulk_write(self, buf: np.ndarray):
        if self._counts(buf):
            self.l2_bytes += buf.nbytes
            self.dram_bytes += buf.nbytes

    # -- compute -------------------------------------------------------------
    def on_flop(self, n: int = 1):
        self.flops += n

    # -- reporting ------------------------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        return {
            "kernels": self.kernels,
            "l2_bytes": self.l2_bytes,
            "dram_bytes": self.dram_bytes,
            "flops": self.flops,
            "peak_bytes": self.peak_bytes,
        }

    def __repr__(self):  # pragma: no cover
        d = self.as_dict()
        return "Metrics(" + ", ".join(f"{k}={v}" for k, v in d.items()) \
            + ")"


# ---------------------------------------------------------------------------
# Static peak-footprint analysis (fast OOM checks for Fig. 16(b) / 18)
# ---------------------------------------------------------------------------


def static_peak_bytes(func: Func, scalar_env: Dict[str, int],
                      param_bytes: int = 0) -> int:
    """Peak bytes of stack-scoped tensor storage, computed without running
    the program.

    Stack scoping makes this exact: the live set at any program point is
    the chain of enclosing VarDefs, so ``peak = max over tree paths of the
    sum of VarDef sizes``. Shapes that depend on loop iterators are
    evaluated at their upper bound. ``param_bytes`` adds caller-allocated
    input/output storage.
    """
    from ..analysis import BoundsCtx, tightest_bounds
    from .interpreter import Interpreter

    interp = Interpreter()

    def eval_dim(e: Expr, ctx: BoundsCtx) -> int:
        try:
            return int(interp.eval_expr(e, dict(scalar_env)))
        except Exception:
            pass
        _lo, up = tightest_bounds(e, ctx, allowed_vars=set(scalar_env))
        if up is None:
            raise ValueError(
                f"cannot bound tensor extent {e!r} statically")
        return int(interp.eval_expr(up, dict(scalar_env)))

    def walk(s: Stmt, ctx: BoundsCtx) -> int:
        if isinstance(s, VarDef):
            size = s.dtype.size_bytes
            for d in s.shape:
                size *= max(0, eval_dim(d, ctx))
            if s.atype is not AccessType.CACHE:
                size = 0  # parameters are accounted via param_bytes
            return size + walk(s.body, ctx)
        if isinstance(s, For):
            inner_ctx = ctx.with_loop(s.iter_var, s.begin, s.end)
            return walk(s.body, inner_ctx)
        peak = 0
        for c in s.children_stmts():
            peak = max(peak, walk(c, ctx))
        return peak

    return param_bytes + walk(func.body, BoundsCtx())


# ---------------------------------------------------------------------------
# Modeled execution time
# ---------------------------------------------------------------------------


class DeviceModel:
    """An analytical device: launch overhead + bandwidth + throughput.

    ``time = kernels * launch_overhead
             + max(dram_bytes / dram_bw, l2_bytes / l2_bw,
                   flops / flops_per_s)``

    The defaults below approximate the paper's testbed (V100-PCIE 32GB and
    a dual Xeon E5-2670v3); see EXPERIMENTS.md for how modeled time is
    used next to measured wall-clock.
    """

    def __init__(self, name: str, launch_overhead_s: float,
                 dram_bw: float, l2_bw: float, flops_per_s: float,
                 capacity_bytes: int):
        self.name = name
        self.launch_overhead_s = launch_overhead_s
        self.dram_bw = dram_bw
        self.l2_bw = l2_bw
        self.flops_per_s = flops_per_s
        self.capacity_bytes = capacity_bytes

    def time(self, metrics: MetricsCollector) -> float:
        m = metrics.as_dict()
        stream = max(m["dram_bytes"] / self.dram_bw,
                     m["l2_bytes"] / self.l2_bw,
                     m["flops"] / self.flops_per_s)
        return m["kernels"] * self.launch_overhead_s + stream

    def check_capacity(self, peak_bytes: int):
        if peak_bytes > self.capacity_bytes:
            raise SimulatedOOM(
                f"{self.name}: peak footprint {peak_bytes / 2**30:.2f} GiB "
                f"exceeds capacity "
                f"{self.capacity_bytes / 2**30:.2f} GiB",
                requested=peak_bytes, capacity=self.capacity_bytes)


V100 = DeviceModel("V100-PCIE-32GB",
                   launch_overhead_s=5e-6,
                   dram_bw=900e9,
                   l2_bw=2500e9,
                   flops_per_s=14e12,
                   capacity_bytes=32 * 2**30)

XEON = DeviceModel("Xeon-E5-2670v3-x2",
                   launch_overhead_s=2e-7,
                   dram_bw=68e9,
                   l2_bw=400e9,
                   flops_per_s=1.7e12,
                   capacity_bytes=256 * 2**30)
