"""The serving front end: admission, bucketing, dynamic batching.

Requests are submitted asynchronously (``submit`` returns a
:class:`PendingResponse` immediately; ``asubmit`` awaits it) and routed
to *buckets* keyed by ``(endpoint, strategy.bucket_key(...))`` — two
requests share a bucket exactly when one compiled call can serve them
together. Flushing is *work-conserving*: an idle dispatcher thread takes
the oldest non-empty bucket at once (up to ``max_batch`` requests of
it), so batches form exactly when they pay — while every dispatcher is
busy, arrivals accumulate and the next pop takes them together. Holding
a request while a worker idles could never finish it sooner.

Guarantees:

- **admission control** — per-tenant in-flight quotas and a bounded
  total queue; over-quota or over-capacity submissions are *rejected
  synchronously* (the response resolves immediately with status
  ``rejected``), so overload sheds load instead of growing latency;
- **no request is lost or run twice** — every admitted request resolves
  exactly once: with its output slice, or ``failed`` (batch raised or
  worker crashed), or ``timeout`` (deadline passed while queued, or the
  batch was killed at its deadline). Crash/timeout handling is the
  worker pool's job (see ``runtime.pool``); the server only ever
  resolves requests it has popped from a bucket.
- **determinism** — with an injected ``clock`` and ``start=False``
  (manual mode: the test calls :meth:`poll`), batch composition is a
  pure function of the submission sequence; responses carry
  ``batch_id``/``batch_size`` so tests can assert it.

Both execution modes run one task function, :func:`run_batch`:

- **thread** — on the dispatcher thread, through
  :func:`~repro.runtime.pool.run_here`. Safe because
  ``Executable.__call__`` is thread-safe (see its concurrency contract)
  and the native backends release the GIL during kernel execution; zero
  IPC cost, but a segfaulting or hanging kernel takes the server down
  with it;
- **process** — on a :class:`~repro.runtime.pool.WorkerPool` (whose
  docstring states the protocol): a crash fails that one batch, a batch
  past its deadline times out with its worker killed, and a replacement
  is forked either way. Workers inherit the endpoint registry and the
  ``REPRO_CACHE_DIR`` artifact store by fork, so each program is
  natively compiled at most once per host.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..runtime import metrics
from ..runtime.pool import FAILED, OK, TIMEOUT, WorkerPool, run_here
from .endpoints import ServedWorkload

__all__ = ["PendingResponse", "Request", "Response", "Server"]

DEFAULT_TIMEOUT_S = 30.0


def run_batch(endpoints: Dict[str, ServedWorkload], task):
    """The batch task of both modes: run one collated ``(endpoint, kind,
    arrays, scalars)`` batch and return the raw outputs. ``kind`` names
    which of the endpoint's program variants to run
    (``base``/``batched``/``pad``); a raised error is resolved by the
    caller (``run_here`` or the worker loop) as the batch's failure."""
    name, kind, arrays, scalars = task
    ep = endpoints[name]
    return ep.executable(ep.func_of_kind(kind))(*arrays, **scalars)


class Response:
    """The resolved outcome of one request."""

    __slots__ = ("status", "value", "error", "request_id", "tenant",
                 "latency_s", "batch_id", "batch_size")

    def __init__(self, status, value=None, error=None, request_id=None,
                 tenant=None, latency_s=0.0, batch_id=None,
                 batch_size=0):
        self.status = status          # ok | failed | timeout | rejected
        self.value = value
        self.error = error
        self.request_id = request_id
        self.tenant = tenant
        self.latency_s = latency_s
        self.batch_id = batch_id
        self.batch_size = batch_size

    @property
    def ok(self) -> bool:
        return self.status == OK

    def __repr__(self):
        return (f"Response({self.status!r}, request={self.request_id}, "
                f"batch={self.batch_id}x{self.batch_size})")


#: shared lock for PendingResponse's lazy event creation (see below)
_PENDING_LOCK = threading.Lock()


class PendingResponse:
    """A future for one request; resolved exactly once by the server.

    The wakeup Event is created lazily, only when a caller actually
    blocks before resolution — Event construction costs more than the
    rest of a submission's bookkeeping combined, and the common
    high-throughput pattern (submit a wave, then collect) never blocks
    on an unresolved response. The shared lock orders event creation
    against resolution; the server publishes a whole batch under one
    hold of it (:meth:`_publish`).
    """

    __slots__ = ("_response", "_event")

    def __init__(self):
        self._response: Optional[Response] = None
        self._event: Optional[threading.Event] = None

    def done(self) -> bool:
        return self._response is not None

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block until resolved (a rejected submission is already
        resolved on return from ``submit``)."""
        if self._response is None:
            with _PENDING_LOCK:
                if self._response is None and self._event is None:
                    self._event = threading.Event()
            if self._response is None and not self._event.wait(timeout):
                raise TimeoutError("response not ready")
        return self._response

    @staticmethod
    def _publish(resolved):
        """Resolve ``(pending, response)`` pairs under one hold of the
        shared lock; the events of blocked callers are set after it is
        released."""
        events = []
        with _PENDING_LOCK:
            for pending, response in resolved:
                pending._response = response
                if pending._event is not None:
                    events.append(pending._event)
        for event in events:
            event.set()


class Request:
    __slots__ = ("id", "endpoint", "arrays", "scalars", "tenant",
                 "timeout_s", "submitted_at", "pending")

    def __init__(self, rid, endpoint, arrays, scalars, tenant,
                 timeout_s, submitted_at):
        self.id = rid
        self.endpoint = endpoint
        self.arrays = arrays
        self.scalars = scalars
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.submitted_at = submitted_at
        self.pending = PendingResponse()


class Server:
    """Dynamic-batching server over a set of :class:`ServedWorkload`\\ s.

    ``mode="thread"`` runs batches on the dispatcher threads
    (GIL-releasing backends overlap; a kernel crash is fatal);
    ``mode="process"`` runs them on a
    :class:`~repro.runtime.pool.WorkerPool` (crash/hang isolated per
    batch). ``start=False`` starts no dispatcher threads — the owner
    drives flushing via :meth:`poll`, with an optional injected
    ``clock``, which is how the determinism tests pin batch
    composition. ``max_wait_s`` governs only that manual mode: it is the
    age at which ``poll(force=False)`` considers a partial bucket due.
    Dispatcher threads never wait on it.
    """

    def __init__(self, endpoints: Dict[str, ServedWorkload],
                 mode: str = "thread", workers: int = 2,
                 max_batch: int = 8, max_wait_s: float = 0.002,
                 queue_limit: int = 256,
                 quotas: Optional[Dict[str, int]] = None,
                 default_quota: Optional[int] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 clock=time.monotonic, start: bool = True):
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown serving mode {mode!r}")
        self.endpoints = dict(endpoints)
        self.mode = mode
        self.workers = max(1, int(workers))
        self.max_batch = max(1, int(max_batch))
        self.max_wait_s = float(max_wait_s)
        self.queue_limit = int(queue_limit)
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.timeout_s = float(timeout_s)
        self.clock = clock

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._buckets: Dict[tuple, deque] = {}
        self._queued = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._rid = itertools.count()
        self._batch_id = itertools.count()
        self._closed = False

        self._task = functools.partial(run_batch, self.endpoints)
        self._pool = (WorkerPool(
            self._task, self.workers, self.timeout_s,
            on_respawn=metrics.record_serving_respawn)
            if mode == "process" else None)
        self._threads: List[threading.Thread] = []
        if start:
            for i in range(self.workers):
                t = threading.Thread(target=self._dispatch_loop,
                                     name=f"repro-serve-{i}", daemon=True)
                t.start()
                self._threads.append(t)

    # -- submission --------------------------------------------------------
    def _reject(self, req: Request, outcome: str, why: str):
        metrics.record_serving_submit(req.tenant, outcome)
        PendingResponse._publish(((req.pending, Response(
            "rejected", error=why, request_id=req.id,
            tenant=req.tenant)),))

    def _bucket_of(self, ep, req: Request) -> Optional[tuple]:
        """The request's bucket key — or None, with the request resolved
        as rejected, for an unknown endpoint or a payload the strategy
        cannot key: submission never raises on outside input."""
        if ep is None:
            why = f"unknown endpoint {req.endpoint!r}"
        elif req.arrays is None:
            why = "malformed payload: not an (arrays, scalars) pair"
        else:
            try:
                return (req.endpoint,
                        ep.strategy.bucket_key(req.arrays, req.scalars))
            except Exception as e:  # noqa: BLE001 - reject, never raise
                why = f"malformed payload: {type(e).__name__}: {e}"
        self._reject(req, "rejected_queue", why)
        return None

    def submit(self, endpoint: str, arrays: Sequence, scalars:
               Optional[dict] = None, tenant: str = "default",
               timeout_s: Optional[float] = None) -> PendingResponse:
        """Enqueue one request; returns immediately. Rejections (quota,
        queue capacity, unknown endpoint, malformed payload, closed
        server) resolve the returned :class:`PendingResponse` before it
        is returned."""
        return self.submit_many(endpoint, ((arrays, scalars),), tenant,
                                timeout_s)[0]

    def submit_many(self, endpoint: str, payloads: Sequence,
                    tenant: str = "default",
                    timeout_s: Optional[float] = None
                    ) -> List[PendingResponse]:
        """Submit a wave of ``(arrays, scalars)`` payloads in one lock
        acquisition — the batch front door for load generators and
        clients that already aggregate (amortizes locking, notification
        and queue-depth accounting; admission is still checked per
        request, in order, and a rejected request never costs the rest
        of its wave)."""
        ep = self.endpoints.get(endpoint)
        tmo = timeout_s if timeout_s is not None else self.timeout_s
        now = self.clock()
        reqs = []
        for payload in payloads:
            try:
                arrays, scalars = payload
                arrays, scalars = list(arrays), dict(scalars or {})
            except (TypeError, ValueError):
                arrays = scalars = None  # rejected by _bucket_of
            reqs.append(Request(next(self._rid), endpoint, arrays,
                                scalars, tenant, tmo, now))
        # keyed after the wave is built, outside the lock (interleaving
        # the two loops measured 0.3 us per request slower)
        keys = [self._bucket_of(ep, r) for r in reqs]
        admitted = 0
        with self._work:
            quota = self.quotas.get(tenant, self.default_quota)
            inflight = self._tenant_inflight.get(tenant, 0)
            for req, key in zip(reqs, keys):
                if key is None:
                    continue
                if self._closed:
                    self._reject(req, "rejected_queue", "server closed")
                elif self._queued >= self.queue_limit:
                    self._reject(req, "rejected_queue", "queue full")
                elif quota is not None and inflight >= quota:
                    self._reject(req, "rejected_quota", f"tenant "
                                 f"{tenant!r} quota {quota} exceeded")
                else:
                    self._buckets.setdefault(key, deque()).append(req)
                    self._queued += 1
                    inflight += 1
                    admitted += 1
            if admitted:
                self._tenant_inflight[tenant] = inflight
                metrics.record_serving_submit(tenant, "admitted",
                                              n=admitted)
                metrics.record_serving_queue_depth(self._queued)
                self._work.notify(admitted)
        return [req.pending for req in reqs]

    async def asubmit(self, endpoint: str, arrays: Sequence,
                      scalars: Optional[dict] = None,
                      tenant: str = "default",
                      timeout_s: Optional[float] = None) -> Response:
        """Async submission: awaits the response without blocking the
        event loop (the wait runs on the loop's default executor)."""
        import asyncio

        pending = self.submit(endpoint, arrays, scalars, tenant,
                              timeout_s)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, pending.result)

    # -- dispatch ----------------------------------------------------------
    def _ready_key(self, now: float, force: bool) -> Optional[tuple]:
        """Under the lock: a bucket due for flushing, oldest wait first."""
        best, best_age = None, -1.0
        for key, dq in self._buckets.items():
            if not dq:
                continue
            age = now - dq[0].submitted_at
            if force or len(dq) >= self.max_batch or age >= self.max_wait_s:
                if age > best_age:
                    best, best_age = key, age
        return best

    def _pop_batch(self, key: tuple) -> List[Request]:
        dq = self._buckets[key]
        batch = []
        while dq and len(batch) < self.max_batch:
            batch.append(dq.popleft())
        if not dq:
            del self._buckets[key]
        self._queued -= len(batch)
        return batch

    def _dispatch_loop(self):
        while True:
            with self._work:
                key = self._ready_key(self.clock(), force=True)
                if key is None:
                    if self._closed:
                        return
                    self._work.wait()
                    continue
                batch = self._pop_batch(key)
            self._run_batch(batch)

    def poll(self, force: bool = False) -> int:
        """Manual mode: flush at most one due bucket on the caller's
        thread; returns the number of batches run (0 or 1). ``force``
        flushes the oldest non-empty bucket regardless of the window.
        Call in a loop to drain."""
        with self._work:
            key = self._ready_key(self.clock(), force)
            if key is None:
                return 0
            batch = self._pop_batch(key)
        self._run_batch(batch)
        return 1

    # -- execution ---------------------------------------------------------
    def _resolve(self, req: Request, status: str, value=None, error=None,
                 batch_id=None, batch_size=0):
        self._resolve_many([(req, status, value, error)], batch_id,
                           batch_size)

    def _resolve_many(self, entries, batch_id=None, batch_size=0):
        """Resolve ``(req, status, value, error)`` entries of one batch:
        one clock read, one server-lock hold that returns each tenant's
        in-flight slots, one ``_PENDING_LOCK`` hold that publishes every
        response and one metrics call per (tenant, status) group cover
        them all."""
        now = self.clock()
        groups: Dict[tuple, List[float]] = {}
        resolved = []
        for req, status, value, error in entries:
            latency = max(0.0, now - req.submitted_at)
            groups.setdefault((req.tenant, status), []).append(latency)
            resolved.append((req.pending, Response(
                status, value=value, error=error, request_id=req.id,
                tenant=req.tenant, latency_s=latency, batch_id=batch_id,
                batch_size=batch_size)))
        done: Dict[str, int] = {}
        for (tenant, _status), lats in groups.items():
            done[tenant] = done.get(tenant, 0) + len(lats)
        with self._lock:
            for tenant, k in done.items():
                n = self._tenant_inflight.get(tenant, k)
                self._tenant_inflight[tenant] = max(0, n - k)
        PendingResponse._publish(resolved)
        for (tenant, status), lats in groups.items():
            metrics.record_serving_responses(tenant, status, lats)

    def _run_batch(self, batch: List[Request]):
        now = self.clock()
        bid = next(self._batch_id)
        # a request whose deadline passed while queued times out here —
        # resolved, not silently dropped
        live = []
        for r in batch:
            if now - r.submitted_at >= r.timeout_s:
                self._resolve(r, TIMEOUT, error="deadline exceeded "
                              "while queued", batch_id=bid)
            else:
                live.append(r)
        if not live:
            return
        ep = self.endpoints[live[0].endpoint]
        try:
            func, arrays, scalars, pad_elements = \
                ep.strategy.collate(ep, live)
            kind = ep.kind_of(func)
        except Exception as e:  # noqa: BLE001 - resolve, never drop
            msg = f"collate: {type(e).__name__}: {e}"
            self._resolve_many([(r, FAILED, None, msg) for r in live],
                               bid, len(live))
            return
        metrics.record_serving_batch(len(live), pad_elements)
        budget = min(r.timeout_s - (now - r.submitted_at) for r in live)
        task = (live[0].endpoint, kind, arrays, scalars)
        if self._pool is not None:
            outcome, payload = self._pool.run(
                task, timeout_s=max(0.05, budget))
        else:
            outcome, payload = run_here(self._task, task)
        if outcome == OK:
            try:
                parts = ep.strategy.split(ep, payload, live)
            except Exception as e:  # noqa: BLE001 - resolve, never drop
                outcome, payload = FAILED, (f"split: {type(e).__name__}:"
                                            f" {e}")
        if outcome == OK:
            self._resolve_many([(r, OK, part, None) for r, part in
                                zip(live, parts)], bid, len(live))
        else:
            error = payload if outcome == FAILED else "batch deadline " \
                "exceeded"
            self._resolve_many([(r, outcome, None, error) for r in live],
                               bid, len(live))

    # -- lifecycle ---------------------------------------------------------
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def close(self, drain: bool = True):
        """Stop accepting work; with ``drain`` flush what is queued (the
        dispatchers do, in parallel; this thread only mops up after
        them), otherwise resolve it as failed (still never silently
        lost)."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            dropped = []
            if not drain:  # taken before a dispatcher can run it
                dropped = [r for dq in self._buckets.values() for r in dq]
                self._buckets.clear()
                self._queued = 0
            self._work.notify_all()
        for r in dropped:
            self._resolve(r, FAILED, error="server closed")
        for t in self._threads:
            t.join(timeout=10)
        while self.poll(force=True):
            pass
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc):
        self.close()
