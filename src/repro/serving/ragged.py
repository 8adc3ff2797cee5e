"""Ragged batching for the irregular workloads.

Two strategies cover the paper's irregular request shapes:

- :class:`PadStrategy` (pad-and-mask) — variable-*length* requests
  (Longformer sequences) are padded to the batch maximum and executed
  by a length-aware batched program that masks the padding: each batch
  element carries its true length in a ``lens`` array and the program
  only iterates ``[0, lens[b])``, so padding never contaminates real
  tokens and its cost is bounded by the pad waste, not by attention over
  garbage. Pad lengths are quantized (``pad_to``) so the driver's
  binding-plan memo and the native-artifact store see few distinct
  shapes. Each request owns one region of the padded batch — the same
  index tuple copies it in and slices its result out, for any ragged
  axis.
- :class:`ConcatCSRStrategy` (concat-with-offsets) — variable-*size*
  CSR graphs (GAT) are concatenated block-diagonally: indptr rows are
  rebased by the running edge count, indices by the running node count,
  and node features are stacked. A disjoint union of graphs is
  semantically just a bigger graph, so the *unbatched* compiled program
  serves the whole batch in one call and outputs split back by node
  offsets. No padding, no masking, zero waste. The rebasing is two
  concatenations and two ``np.repeat`` adds per batch, whatever its
  size.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from .strategies import BatchStrategy, scalar_items, stack_equal

__all__ = ["ConcatCSRStrategy", "PadStrategy",
           "make_batched_longformer_program"]


def make_batched_longformer_program():
    """Length-aware batched Longformer sliding-window attention.

    The pad-and-mask variant of ``workloads.longformer.make_program``:
    Q/K/V come padded to ``(bsz, nmax, d)`` with true sequence lengths
    in ``lens``; attention for batch element ``b`` only reads and writes
    tokens ``< lens[b]``, so rows past the true length stay zero.
    """
    import repro as ft

    @ft.transform
    def longformer_batched(
            q: ft.Tensor[("b", "nmax", "d"), "f32", "input"],
            k: ft.Tensor[("b", "nmax", "d"), "f32", "input"],
            v: ft.Tensor[("b", "nmax", "d"), "f32", "input"],
            lens: ft.Tensor[("b",), "i32", "input"],
            w: ft.Size):
        y = ft.zeros((q.shape(0), q.shape(1), q.shape(2)), "f32")
        for bb in range(q.shape(0)):
            for i in range(lens[bb]):
                dot = ft.empty((2 * w + 1,), "f32")
                for j in range(-w, w + 1):
                    if i + j >= 0 and i + j < lens[bb]:
                        dot[j + w] = 0.0
                        for p in range(q.shape(2)):
                            dot[j + w] += q[bb, i, p] * k[bb, i + j, p]
                    else:
                        dot[j + w] = -float("inf")
                scale = ft.sqrt(1.0 * q.shape(2))
                mx = -float("inf")
                for j in range(2 * w + 1):
                    mx = ft.max(mx, dot[j] / scale)
                attn = ft.empty((2 * w + 1,), "f32")
                s = 0.0
                for j in range(2 * w + 1):
                    attn[j] = ft.exp(dot[j] / scale - mx)
                    s += attn[j]
                for j in range(-w, w + 1):
                    if i + j >= 0 and i + j < lens[bb]:
                        for p in range(q.shape(2)):
                            y[bb, i, p] += attn[j + w] / s * v[bb, i + j, p]
        return y

    return longformer_batched


class PadStrategy(BatchStrategy):
    """Pad-and-mask ragged batching over one variable-extent axis.

    ``ragged_params`` are the positions of arrays whose ``axis`` extent
    varies per request (they must share it); the rest of each shape is
    part of the bucket key. The endpoint supplies the length-aware
    batched program (``endpoint.pad_func()``), which takes the padded
    ragged arrays, then the non-ragged arrays, then the ``lens`` vector.
    """

    name = "pad"

    def __init__(self, ragged_params: Sequence[int] = (0, 1, 2),
                 axis: int = 0, pad_to: int = 16):
        self.ragged_params = tuple(ragged_params)
        self.axis = axis
        self.pad_to = max(1, int(pad_to))

    def bucket_key(self, arrays, scalars):
        shapes = []
        for i, a in enumerate(arrays):
            shape = list(a.shape)
            if i in self.ragged_params:
                shape[self.axis] = -1  # the ragged extent: free
            shapes.append((tuple(shape), a.dtype))
        return (self.name, tuple(shapes), scalar_items(scalars))

    def _slots(self, requests) -> Tuple[List[int], List[tuple]]:
        """True lengths, and each request's region of the padded batch:
        ``(b, :, ..., :, slice(0, len))`` with the slice at the ragged
        axis — one index tuple, for every ``axis``, that ``collate``
        copies into and ``split`` views out of."""
        p, axis = self.ragged_params[0], self.axis
        lens = [r.arrays[p].shape[axis] for r in requests]
        lead = (slice(None),) * axis
        return lens, [(b,) + lead + (slice(0, n),)
                      for b, n in enumerate(lens)]

    def collate(self, endpoint, requests):
        lens, slots = self._slots(requests)
        n = len(requests)
        nmax = -(-max(lens) // self.pad_to) * self.pad_to
        pad_rows = n * nmax - sum(lens)  # padded ragged-axis positions
        padded, pad_elements = [], 0
        for i, arrs in enumerate(zip(*(r.arrays for r in requests))):
            if i not in self.ragged_params:
                padded.append(stack_equal(arrs))
                continue
            shape = list(arrs[0].shape)
            shape[self.axis] = nmax
            out = np.zeros((n,) + tuple(shape), arrs[0].dtype)
            for slot, a in zip(slots, arrs):
                out[slot] = a
            pad_elements += out.size // (n * nmax) * pad_rows
            padded.append(out)
        padded.append(np.asarray(lens, np.int32))
        return endpoint.pad_func(), padded, \
            dict(requests[0].scalars), pad_elements

    def split(self, endpoint, outs, requests):
        _lens, slots = self._slots(requests)
        return self._per_request(outs, lambda o: [o[s] for s in slots])


class ConcatCSRStrategy(BatchStrategy):
    """Concat-with-offsets ragged batching for CSR-graph requests.

    Parameter positions: ``indptr_param`` / ``indices_param`` are the
    CSR arrays, ``node_params`` are per-node arrays concatenated along
    axis 0, and every other parameter is *shared* (model weights): its
    shape, dtype and exact bytes join the bucket key so requests
    against different weights never merge, and one copy is passed
    through. The merged batch is a plain disjoint-union graph executed
    by the endpoint's ordinary unbatched program.
    """

    name = "concat"

    def __init__(self, indptr_param: int = 0, indices_param: int = 1,
                 node_params: Sequence[int] = (2,)):
        self.indptr_param = indptr_param
        self.indices_param = indices_param
        self.node_params = tuple(node_params)

    def bucket_key(self, arrays, scalars):
        parts = []
        for i, a in enumerate(arrays):
            if i == self.indptr_param or i == self.indices_param:
                parts.append(("csr", a.dtype))
            elif i in self.node_params:
                parts.append((tuple(a.shape[1:]), a.dtype))
            else:
                parts.append((a.shape, a.dtype, a.tobytes()))
        return (self.name, tuple(parts), scalar_items(scalars))

    def collate(self, endpoint, requests):
        merged = list(requests[0].arrays)  # shared weights: the first's
        indptrs = [r.arrays[self.indptr_param] for r in requests]
        indices = [r.arrays[self.indices_param] for r in requests]
        nodes = np.array([len(p) - 1 for p in indptrs])
        edges = np.array([len(ix) for ix in indices])
        # graph g's indptr tail moves past the edges of the graphs
        # before it, its column ids past their nodes
        ptr = np.concatenate([indptrs[0][:1]] + [p[1:] for p in indptrs])
        ptr[1:] += np.repeat(np.cumsum(edges) - edges, nodes)
        col = np.concatenate(indices)
        col += np.repeat(np.cumsum(nodes) - nodes, edges)
        merged[self.indptr_param] = ptr
        merged[self.indices_param] = col
        for i in self.node_params:
            merged[i] = np.concatenate([r.arrays[i] for r in requests])
        return endpoint.base_func(), merged, \
            dict(requests[0].scalars), 0

    def split(self, endpoint, outs, requests):
        offsets = list(accumulate(
            (len(r.arrays[self.indptr_param]) - 1 for r in requests),
            initial=0))
        bounds = list(zip(offsets, offsets[1:]))
        return self._per_request(outs,
                                 lambda o: [o[a:b] for a, b in bounds])
