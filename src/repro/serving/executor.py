"""Batch execution: in-process, or on the fault-isolated worker pool.

Two execution modes back the server's dispatcher threads:

- **thread** — the batch runs right on the dispatcher thread via
  :func:`run_batch`. Safe because ``Executable.__call__`` is
  thread-safe (see its concurrency contract) and the native backends
  release the GIL during kernel execution; zero IPC cost, but a
  segfaulting or hanging kernel takes the server down with it.
- **process** — the server runs :func:`_run_task` on a
  :class:`repro.runtime.pool.WorkerPool` (whose docstring states the
  protocol): a crash fails that one batch, a batch past its deadline
  times out with its worker killed, and a replacement is forked either
  way. Workers inherit the endpoint registry and the ``REPRO_CACHE_DIR``
  artifact store by fork, so each program is natively compiled at most
  once per host.

Fault injection (tests / drills): ``REPRO_SERVE_FAULT=crash:<endpoint>``
or ``hang:<endpoint>`` (``*`` matches all), read once when a
:class:`~repro.serving.Server` is constructed. In process mode the worker
genuinely exits without cleanup or sleeps; in thread mode both degrade
to a raised error (a real crash would kill the server — which is the
point of process mode) so the request still resolves as failed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..runtime.pool import FAILED, OK, fault_spec, inject

DEFAULT_TIMEOUT_S = 30.0


def injected_faults(endpoints: Iterable[str]) -> Dict[str, str]:
    """Endpoint name -> the fault (``"crash"``/``"hang"``) that
    ``REPRO_SERVE_FAULT`` configures for it; endpoints it does not
    name are absent."""
    kind, pattern = fault_spec("REPRO_SERVE_FAULT")
    return {name: kind for name in endpoints
            if kind and pattern in ("*", name)}


def run_batch(endpoint, kind: str, arrays, scalars):
    """Execute one collated batch in the current process and return the
    raw outputs. ``kind`` names which of the endpoint's program variants
    to run (``base``/``batched``/``pad``)."""
    func = endpoint.func_of_kind(kind)
    exe = endpoint.executable(func)
    return exe(*arrays, **scalars)


def run_batch_guarded(endpoint, kind: str, arrays, scalars,
                      fault: Optional[str]) -> Tuple[str, object]:
    """Thread-mode execution: ``(outcome, payload)`` where payload is
    the outputs on ``ok`` or a message on ``failed``. An injected
    ``fault`` degrades to a failure (see module docstring)."""
    if fault is not None:
        return FAILED, f"injected {fault} (thread mode)"
    try:
        return OK, run_batch(endpoint, kind, arrays, scalars)
    except Exception as e:  # noqa: BLE001 - isolation is the point
        return FAILED, f"{type(e).__name__}: {e}"


def _run_task(endpoints, faults, task):
    """The process-mode pool handler: run one ``(endpoint_name, kind,
    arrays, scalars)`` batch inside a worker, acting first on the fault
    ``faults`` (from :func:`injected_faults`) names for the endpoint. A
    raised error is the pool's to report."""
    name, kind, arrays, scalars = task
    inject(faults.get(name))
    return run_batch(endpoints[name], kind, arrays, scalars)
