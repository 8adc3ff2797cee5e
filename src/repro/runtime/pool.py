"""The one place work leaves the process: a fault-isolated fork-worker pool.

``WorkerPool(handler, workers, timeout_s)`` keeps ``k`` forked persistent
workers, each running ``handler(task)`` for one task at a time. The
tuner's ``MeasurementPool`` (compile + time a schedule candidate) and the
server's process mode (run one collated batch) are task definitions over
it; nothing else in ``src/`` forks, kills or exits a process. Without
workers (one measurement worker, the server's thread mode) a client runs
the same task function in-process, through :func:`run_here`.

The protocol, stated once:

- **private channel per worker** — every worker owns one duplex pipe,
  discarded together with the worker. A reply a killed worker might
  still have written can therefore never be read as the answer to a
  later task;
- **parent-side dispatch, one outstanding task per worker** — the caller
  of :meth:`WorkerPool.run` takes an idle worker, hands it the task and
  waits on that worker's pipe and process sentinel, so a death always
  maps to exactly one task;
- **every task resolves exactly once** — ``("ok", result)``,
  ``("failed", message)`` when the handler raised or the worker died, or
  ``("timeout", None)`` after the worker was killed at its deadline. A
  crash or a timeout costs one fork of a replacement, never a lost task
  and never the session.

Workers are *forked*: they inherit the handler (a closure over endpoint
registries, measurement inputs, ...), every registered backend and the
environment — including ``REPRO_CACHE_DIR``, so compiled artifacts are
shared through the on-disk store — without pickling or re-importing
anything. Not ``multiprocessing.Pool`` / ``concurrent.futures``: neither
can kill one hung task without tearing the pool down, and a worker that
dies there breaks the whole pool instead of failing one task.

Nothing here injects faults: the isolation tests register a backend
whose kernels exit or hang inside a forked worker, and the workers
inherit it like any other.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Sequence, Tuple

#: outcome kinds a task can resolve as
OK, FAILED, TIMEOUT = "ok", "failed", "timeout"

#: forks are serialized process-wide: a pipe end that must belong to one
#: worker only is never inherited by a sibling forked at the same moment
_FORK_LOCK = threading.Lock()


def _failed(e: BaseException) -> Tuple[str, str]:
    return FAILED, f"{type(e).__name__}: {e}"


def run_here(handler: Callable, task) -> Tuple[str, object]:
    """Run one task in the calling process, resolved as a worker resolves
    it: ``("ok", result)``, or ``("failed", "<Type>: <message>")`` when
    ``handler`` raised. A pool client's in-process mode calls the very
    handler its workers run through this."""
    try:
        return OK, handler(task)
    except Exception as e:  # noqa: BLE001 - isolation is the point
        return _failed(e)


def _worker_main(handler: Callable, conn):
    """Worker loop: answer ``(task,)`` messages on this worker's own pipe
    with :func:`run_here`'s ``(outcome, payload)`` until the ``None``
    sentinel (or the parent going away)."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            conn.send(run_here(handler, msg[0]))
        except Exception as e:  # noqa: BLE001 - the result does not pickle
            conn.send(_failed(e))


class WorkerPool:
    """``workers`` forked persistent processes running ``handler(task)``.

    :meth:`run` may be called from many threads at once; :meth:`map` is
    :meth:`run` over all workers with outcomes in submission order.
    ``timeout_s`` is the per-task deadline, counted from the moment a
    worker receives the task; ``on_respawn`` is called (serialized) each
    time a replacement worker is forked.
    """

    def __init__(self, handler: Callable, workers: int, timeout_s: float,
                 on_respawn: Optional[Callable[[], None]] = None):
        self.handler = handler
        self.workers = max(1, int(workers))
        self.timeout_s = float(timeout_s)
        self.on_respawn = on_respawn
        self._ctx = mp.get_context("fork")
        self._idle: queue.Queue = queue.Queue()  # (process, pipe) pairs
        self._closed = False
        for _ in range(self.workers):
            self._idle.put(self._fork())

    def _fork(self, respawn: bool = False):
        with _FORK_LOCK:
            ours, theirs = self._ctx.Pipe()
            p = self._ctx.Process(target=_worker_main,
                                  args=(self.handler, theirs), daemon=True)
            p.start()
            theirs.close()
            if respawn and self.on_respawn is not None:
                self.on_respawn()
        return p, ours

    def _replace(self, p, conn):
        """Kill and forget a worker — its pipe, and any reply still in
        it, goes with it — and fork a replacement."""
        conn.close()
        if p.is_alive():
            p.kill()
        p.join(timeout=5)
        return self._fork(respawn=True)

    def run(self, task, timeout_s: Optional[float] = None
            ) -> Tuple[str, object]:
        """Run one task on an idle worker (blocking until one is idle).

        Returns ``("ok", result)``, ``("failed", message)`` on a raised
        error or a worker crash, or ``("timeout", None)`` after killing a
        worker that exceeded the deadline.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        budget = self.timeout_s if timeout_s is None else timeout_s
        worker = self._idle.get()
        try:
            p, conn = worker
            try:
                conn.send((task,))
            except OSError:
                pass  # the worker died idle; its sentinel says so below
            except Exception as e:  # noqa: BLE001 - does not pickle:
                # nothing was written, the worker is still good
                return _failed(e)
            ready = wait([conn, p.sentinel], timeout=budget)
            if conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    pass  # end of file: the worker died before replying
            worker = self._replace(p, conn)
            return (FAILED, "worker crashed") if ready else (TIMEOUT, None)
        finally:
            self._idle.put(worker)

    def map(self, tasks: Sequence) -> List[Tuple[str, object]]:
        """:meth:`run` every task, ``workers`` at a time; one outcome per
        task **in submission order** whatever the completion order."""
        tasks = list(tasks)
        if not tasks:
            return []
        with ThreadPoolExecutor(min(self.workers, len(tasks))) as threads:
            return list(threads.map(self.run, tasks))

    def close(self):
        """Stop every worker (waiting for tasks in flight to resolve);
        idempotent."""
        if self._closed:
            return
        self._closed = True
        workers = [self._idle.get() for _ in range(self.workers)]
        for _p, conn in workers:
            try:
                conn.send(None)
            except OSError:  # pragma: no cover - already dead
                pass
        deadline = time.monotonic() + 5
        for p, conn in workers:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
            if p.is_alive():  # pragma: no cover - stuck worker
                p.kill()
                p.join(timeout=1)
            conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc):
        self.close()
