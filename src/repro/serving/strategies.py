"""Batching strategies: how compatible requests coalesce into one call.

A strategy answers three questions for its endpoint:

- ``bucket_key(arrays, scalars)`` — which requests may share a batch
  (requests whose keys are equal are *compatible*: one compiled call
  can serve them together);
- ``collate(endpoint, requests)`` — fold the requests of one batch into
  a single ``(func, arrays, scalars, pad_elements)`` call description;
- ``split(endpoint, outs, requests)`` — slice the batched call's
  outputs back into one result per request.

``bucket_key`` runs once per request; ``collate`` and ``split`` run once
per batch and are a few whole-batch array operations each — a result is
a view into the batched output, never a copy.

:class:`StackStrategy` is the generic dense case: identical shapes are
stacked along the new leading axis of the ``batch_axis_prepend``
variant. The ragged strategies for variable-length and variable-size
requests live in ``repro.serving.ragged``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["BatchStrategy", "StackStrategy", "scalar_items",
           "stack_equal"]


def scalar_items(scalars: Dict[str, object]) -> tuple:
    """Scalars as a canonical hashable tuple (bucket-key component)."""
    if not scalars:
        return ()
    return tuple(sorted((k, int(v)) for k, v in scalars.items()))


def stack_equal(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack arrays of one shape and dtype — what equal bucket keys
    guarantee — along a new leading axis: one concatenation and a
    reshape, with no per-array ``expand_dims``."""
    first = arrays[0]
    if first.ndim == 0:
        return np.array(arrays)
    return np.concatenate(arrays).reshape((len(arrays),) + first.shape)


class BatchStrategy:
    """Interface; see module docstring. ``name`` tags bucket keys."""

    name = "base"

    def bucket_key(self, arrays: Sequence[np.ndarray],
                   scalars: Dict[str, object]) -> tuple:
        raise NotImplementedError

    def collate(self, endpoint, requests) -> Tuple[object, list, dict, int]:
        """-> (func, arrays, scalars, pad_elements) for one batched call."""
        raise NotImplementedError

    def split(self, endpoint, outs, requests) -> List[object]:
        """-> one output (array or tuple of arrays) per request."""
        raise NotImplementedError

    @staticmethod
    def _per_request(outs, pieces: Callable) -> List[object]:
        """``pieces(out)`` cuts one batched output into per-request views;
        a request's result is its piece of the output, or the tuple of
        its pieces when the program has several outputs."""
        outs = outs if isinstance(outs, tuple) else (outs,)
        if len(outs) == 1:
            return list(pieces(outs[0]))
        return list(zip(*map(pieces, outs)))


class StackStrategy(BatchStrategy):
    """Dense batching: equal-shape requests stack along a new leading
    axis and run through the endpoint's ``batch_axis_prepend`` variant;
    request ``b``'s result is row ``b`` of each output.
    """

    name = "stack"

    def bucket_key(self, arrays, scalars):
        # dtype objects hash/compare by identity-equivalence and are
        # cheaper to fetch than .str on this per-request hot path
        return (self.name,
                tuple((a.shape, a.dtype) for a in arrays),
                scalar_items(scalars))

    def collate(self, endpoint, requests):
        stacked = [stack_equal(column)
                   for column in zip(*(r.arrays for r in requests))]
        return endpoint.batched_func(), stacked, \
            dict(requests[0].scalars), 0

    def split(self, endpoint, outs, requests):
        return self._per_request(outs, list)
