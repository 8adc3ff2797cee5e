"""Model serving: dynamic batching over compiled programs (PR 10).

The paper's compiler produces one fast executable per program; this
subsystem turns those executables into a *service*: concurrent clients
submit (workload, arrays, tenant) requests, a dynamic batcher coalesces
the compatible ones that queued while its workers were busy — stacking
dense requests, pad-and-masking variable-length ones, concatenating
variable-size graphs — and a worker pool executes the batches with
per-request deadlines, crash isolation and per-tenant admission control.

Layering::

    server.Server          admission, bucketing, work-conserving flush
      endpoints.ServedWorkload   program variants + build config
        strategies / ragged      stack | pad | concat collation
        batching.batch_axis_prepend   the IR-level batched variant
      runtime.pool           process mode: the batch task on workers

``python -m repro.serve`` runs a load-generator demo;
``runtime.metrics.serving_stats()`` exposes the counters.
"""

from .batching import BatchingUnsupported, batch_axis_prepend
from .endpoints import SERVE_SIZES, ServedWorkload, default_endpoints
from .ragged import (ConcatCSRStrategy, PadStrategy,
                     make_batched_longformer_program)
from .server import PendingResponse, Request, Response, Server
from .strategies import BatchStrategy, StackStrategy

__all__ = [
    "BatchStrategy", "BatchingUnsupported", "ConcatCSRStrategy",
    "PadStrategy", "PendingResponse", "Request", "Response",
    "SERVE_SIZES", "ServedWorkload", "Server", "StackStrategy",
    "batch_axis_prepend", "default_endpoints",
    "make_batched_longformer_program",
]
