"""Shared machinery of the end-to-end benchmark: paths, the benchmark
specification, the timing estimator, the span tracer and the run header.

Nothing here imports ``repro``: the compile children import this module
before their clock starts, and ``repro`` must be imported inside it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


# -- estimator ---------------------------------------------------------------
#
# Block medians of the same call swing 2-3x for ~10 s stretches on a
# shared host, so a median over a run repeats only to about +-15%. The
# minimum over interleaved rounds of per-block medians repeats to about
# +-2%: a block is long enough that its median ignores single stalls, and
# the minimum over rounds picks a stretch the neighbour left alone.


def best_block(blocks: Sequence[float]) -> float:
    """The estimator used for every timing: min of per-block medians."""
    return min(blocks)


def noise_ratio(blocks: Sequence[float]) -> float:
    """q75 / best of the block medians: the benchmark's own noise floor
    (1.0 = every block as fast as the best one)."""
    if len(blocks) < 2:
        return 1.0
    return statistics.quantiles(blocks, n=4)[2] / min(blocks)


def geomean(xs: Iterable[float]) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def best_time(fn, seconds: float, block: int = 5) -> float:
    """Best-block median seconds of ``fn()`` within a time budget."""
    pc = time.perf_counter
    blocks = []
    t_end = pc() + seconds
    while len(blocks) < 2 or pc() < t_end:
        ts = []
        for _ in range(block):
            t0 = pc()
            fn()
            ts.append(pc() - t0)
        blocks.append(statistics.median(ts))
    return best_block(blocks)


def iqr_share(values: Sequence[float]) -> float:
    """(q3 - q1) / median, the spread the acceptance rule is stated in."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans -------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        stack = self.tracer._stack()
        rec = self.rec
        rec[3] = stack[-1] if stack else -1
        stack.append(rec[6])
        rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        rec = self.rec
        rec[2] = t1
        tracer = self.tracer
        tracer._stack().pop()
        parent = rec[3]
        if parent >= 0:
            tracer.spans[parent][7] += t1 - rec[1]
        return False


class Tracer:
    """In-memory spans (name, start, end, parent, operation id) around the
    benchmark's calls into public functions. A span's self time is its
    duration minus the part its child spans cover; per-layer times are
    sums of self times by span name."""

    #: spans written to the Chrome-trace file (all of them are kept in
    #: memory and counted in the self-time totals)
    FILE_LIMIT = 50000

    def __init__(self):
        #: [name, t0, t1, parent index, op id, tid, own index, child time]
        self.spans: List[list] = []
        self._local = threading.local()
        self.foreign: List[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None) -> _Span:
        rec = [name, 0.0, 0.0, -1, op, threading.get_ident(),
               len(self.spans), 0.0]
        self.spans.append(rec)
        return _Span(self, rec)

    def add_foreign(self, events: List[dict]):
        """Chrome-trace events recorded by a child process."""
        self.foreign.extend(events)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, _p, _op, _tid, _i, child in self.spans:
            out[name] += (t1 - t0) - child
        return dict(out)

    def totals(self) -> Dict[str, float]:
        """Seconds of total (inclusive) time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, *_ in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for n, t0, t1, *_ in self.spans if n == name]

    def events(self, t_origin: float = 0.0) -> List[dict]:
        pid = os.getpid()
        out = []
        for name, t0, t1, parent, op, tid, idx, _c in \
                self.spans[:self.FILE_LIMIT]:
            out.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - t_origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"op": op, "span": idx, "parent": parent}})
        return out

    def write(self, path: str, meta: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = self.events() + self.foreign
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": dict(meta, spans_recorded=len(self.spans)
                                 + len(self.foreign),
                                 spans_written=len(events))}
        with open(path, "w") as f:
            json.dump(doc, f)


def layer_coverage(tracer: Tracer, root: str) -> float:
    """Share of the traced operations' time that lies inside layer spans
    (everything below the ``root`` spans), in [0, 1]."""
    total = tracer.totals().get(root, 0.0)
    if not total:
        return 0.0
    return 1.0 - tracer.self_times().get(root, 0.0) / total


# -- environment -------------------------------------------------------------


def scrub_env(rundir: str, extra: Optional[dict] = None):
    """Make the ``REPRO_*`` environment of this process what the
    benchmark states and nothing else: inherited knobs are dropped, the
    daemon is off and the artifact store is the run's private directory
    (never ``~/.cache/repro``). Temporary files (gcc's, too) stay inside
    the run directory."""
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    os.environ["REPRO_NO_DAEMON"] = "1"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(rundir, "store")
    os.environ["TMPDIR"] = os.path.join(rundir, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    os.environ.update(extra or {})


class RunDir:
    """A private scratch directory under ``out/`` (inside the checkout),
    removed on exit."""

    def __init__(self, label: str):
        self.path = os.path.join(OUT, "tmp", f"{label}-{os.getpid()}")

    def __enter__(self) -> str:
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _first_line(cmd: List[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0 or not out.stdout.strip():
        return "unknown"
    return out.stdout.splitlines()[0].strip()


def header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What a reader needs to repeat the run."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "git_commit": _first_line(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _first_line(["gcc", "--version"]),
        "platform": platform.platform(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("REPRO_", "OMP_"))},
        "argv": sys.argv[1:],
    }


class Run:
    """One workload run: what it was asked to do and what it found."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, rundir: str, t_process: float, fault=None):
        self.workload = workload
        self.seed = seed
        #: length of the timed phase
        self.seconds = seconds
        self.trace = trace
        #: private scratch directory, removed when the run ends
        self.rundir = rundir
        #: perf_counter() when the process started: set-up counts from it
        self.t_process = t_process
        #: selftest only: "corrupt" a response or force a "reject"
        self.fault = fault
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        #: end-to-end metric name -> value
        self.e2e: Dict[str, float] = {}
        #: per-layer metric name -> value (traced runs)
        self.layers: Dict[str, float] = {}
        #: diagnostics that go to --out and the printed report only
        self.extra: Dict[str, object] = {}

    def count(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    def setup_done(self):
        """Everything before the first timed operation ends here."""
        self.e2e.setdefault("setup_s",
                            time.perf_counter() - self.t_process)

    def set_rate_metrics(self, latency_ms: float,
                         throughput_ops_s: Optional[float] = None):
        self.e2e["latency_ms"] = latency_ms
        self.e2e["throughput_ops_s"] = (
            1000.0 / latency_ms if throughput_ops_s is None
            else throughput_ops_s)
