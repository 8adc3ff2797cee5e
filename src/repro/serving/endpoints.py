"""Served workloads: the programs a Server knows how to run.

A :class:`ServedWorkload` bundles a workload's program factory with the
batching strategy the serving layer uses for it and with the build
configuration (backend, optimize). Compiled executables and derived
batched program variants are built lazily, once, and then reused for
every batch — they land in the ordinary build caches, so a server
restart on a warm artifact store skips native compilation entirely.

:func:`default_endpoints` wires the four paper workloads:

==========  =========  ====================================
endpoint    strategy   why
==========  =========  ====================================
subdivnet   stack      fixed mesh size per bucket -> dense
softras     stack      fixed image/face count -> dense
longformer  pad        variable sequence length (ragged)
gat         concat     variable graph size (ragged)
==========  =========  ====================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .batching import batch_axis_prepend
from .ragged import (ConcatCSRStrategy, PadStrategy,
                     make_batched_longformer_program)
from .strategies import BatchStrategy, StackStrategy

__all__ = ["ServedWorkload", "default_endpoints"]

#: request-instance sizes for the demo load generator and benchmarks —
#: deliberately small, so serving measures dispatch amortization
SERVE_SIZES = {
    "subdivnet": dict(n_faces=24, in_feats=4, out_feats=4),
    "softras": dict(n_faces=4, image_size=8),
    "longformer": dict(feat_len=8, w=4, min_len=16, max_len=48),
    "gat": dict(feats=4, out_feats=4, min_nodes=8, max_nodes=24,
                avg_degree=3),
}


class ServedWorkload:
    """One servable endpoint: program + batching strategy + build config.

    ``make_func`` produces the unbatched program; ``make_pad_func`` (pad
    strategies only) produces the length-aware masked batched program.
    ``gen_requests(n, seed)`` yields ``(arrays, scalars)`` request
    payloads for tests and the load generator. All derived funcs and
    executables are cached; ``warm()`` forces compilation up front so
    latency measurements never include a cold build.
    """

    def __init__(self, name: str, make_func: Callable,
                 strategy: BatchStrategy,
                 gen_requests: Callable[[int, int], List[Tuple[list, dict]]],
                 backend: str = "pycode", optimize: bool = True,
                 make_pad_func: Optional[Callable] = None):
        self.name = name
        self.make_func = make_func
        self.make_pad_func = make_pad_func
        self.strategy = strategy
        self.gen_requests = gen_requests
        self.backend = backend
        self.optimize = optimize
        # no lock guards these two: a pool worker forked while another
        # thread held it (staging a variant takes milliseconds) would
        # wait on it forever. First callers that race may both stage or
        # build; setdefault keeps one object, which kind_of relies on.
        self._funcs: Dict[str, object] = {}
        self._exes: Dict[str, object] = {}

    def _func(self, kind: str):
        func = self._funcs.get(kind)
        if func is None:
            if kind == "base":
                func = self.make_func()
            elif kind == "batched":
                func = batch_axis_prepend(self._func("base"))
            elif kind == "pad":
                if self.make_pad_func is None:
                    raise ValueError(
                        f"endpoint {self.name!r} has no pad program")
                func = self.make_pad_func()
            else:
                raise KeyError(kind)
            func = self._funcs.setdefault(kind, func)
        return func

    def base_func(self):
        return self._func("base")

    def batched_func(self):
        return self._func("batched")

    def pad_func(self):
        return self._func("pad")

    def func_of_kind(self, kind: str):
        return self._func(kind)

    def kind_of(self, func) -> str:
        """Which variant a func returned by this endpoint's accessors
        is — lets the server ship the (picklable) kind name to pool
        workers instead of the Func object itself."""
        for kind, f in list(self._funcs.items()):
            if f is func:
                return kind
        raise KeyError(f"func {getattr(func, 'name', func)!r} is not a "
                       f"variant of endpoint {self.name!r}")

    def executable(self, func):
        """Build (or fetch) the executable for one of this endpoint's
        funcs, under this endpoint's backend/optimize configuration."""
        key = getattr(func, "name", str(id(func)))
        exe = self._exes.get(key)
        if exe is None:
            from ..runtime.driver import build
            exe = self._exes.setdefault(key, build(
                func, backend=self.backend, optimize=self.optimize))
        return exe

    def warm(self):
        """Compile every variant this endpoint's strategy can request."""
        self.executable(self.base_func())
        if isinstance(self.strategy, StackStrategy):
            self.executable(self.batched_func())
        if self.make_pad_func is not None:
            self.executable(self.pad_func())
        return self


def _gen_subdivnet(n: int, seed: int = 0):
    from ..workloads.data import mesh_conv_weights, mesh_faces

    cfg = SERVE_SIZES["subdivnet"]
    w = mesh_conv_weights(cfg["in_feats"], cfg["out_feats"],
                          seed=seed)["w"]
    out = []
    for i in range(n):
        d = mesh_faces(cfg["n_faces"], cfg["in_feats"], seed=seed + i)
        out.append(([d["adj"], d["e"], w], {}))
    return out


def _gen_softras(n: int, seed: int = 0):
    from ..workloads.data import pixel_grid, projected_triangles

    cfg = SERVE_SIZES["softras"]
    px = pixel_grid(cfg["image_size"])
    out = []
    for i in range(n):
        d = projected_triangles(cfg["n_faces"], cfg["image_size"],
                                seed=seed + i)
        out.append(([d["verts"], px], {}))
    return out


def _gen_longformer(n: int, seed: int = 0):
    from ..workloads.data import ragged_token_sequences

    cfg = SERVE_SIZES["longformer"]
    return [([d["q"], d["k"], d["v"]], {"w": d["w"]})
            for d in ragged_token_sequences(n, seed=seed, **cfg)]


def _gen_gat(n: int, seed: int = 0):
    from ..workloads.data import ragged_graphs

    cfg = SERVE_SIZES["gat"]
    return [([d["indptr"], d["indices"], d["h"], d["wmat"],
              d["att_s"], d["att_d"]], {})
            for d in ragged_graphs(n, seed=seed, **cfg)]


def default_endpoints(backend: str = "pycode", optimize: bool = True,
                      names: Optional[List[str]] = None
                      ) -> Dict[str, ServedWorkload]:
    """The four paper workloads under their natural batching strategies."""
    from ..workloads import gat, longformer, softras, subdivnet

    eps = {
        "subdivnet": ServedWorkload(
            "subdivnet", subdivnet.make_program, StackStrategy(),
            _gen_subdivnet, backend=backend, optimize=optimize),
        "softras": ServedWorkload(
            "softras", softras.make_program, StackStrategy(),
            _gen_softras, backend=backend, optimize=optimize),
        "longformer": ServedWorkload(
            "longformer", longformer.make_program,
            PadStrategy(ragged_params=(0, 1, 2), axis=0, pad_to=16),
            _gen_longformer, backend=backend, optimize=optimize,
            make_pad_func=make_batched_longformer_program),
        "gat": ServedWorkload(
            "gat", gat.make_program,
            ConcatCSRStrategy(indptr_param=0, indices_param=1,
                              node_params=(2,)),
            _gen_gat, backend=backend, optimize=optimize),
    }
    if names is not None:
        eps = {k: eps[k] for k in names}
    return eps
