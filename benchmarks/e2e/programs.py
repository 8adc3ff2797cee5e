"""The program set every workload draws from, its input sizes, and the
NumPy oracle. Results are checked against ``repro.workloads.<prog>``'s
``reference`` / ``grad_reference`` — plain NumPy — never against another
output of the compiler under test.

Imports ``repro`` lazily: the compile children import this module before
their clock starts.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

PROGRAMS = ("subdivnet", "longformer", "softras", "gat")

#: evaluation sizes (equal to benchmarks/common.SIZES at this commit; the
#: benchmark owns its copy so that editing the old scripts cannot move it)
SIZES = {
    "subdivnet": dict(n_faces=192, in_feats=8, out_feats=8),
    "longformer": dict(seq_len=192, feat_len=16, w=8),
    "softras": dict(n_faces=12, image_size=20),
    "gat": dict(n_nodes=192, avg_degree=6, feats=8, out_feats=8),
}

#: request-sized inputs (repro.serving.SERVE_SIZES with the ragged ranges
#: fixed at their midpoints): the kernel is a few microseconds, so a call
#: at this size times dispatch
SMALL = {
    "subdivnet": dict(n_faces=24, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=32, feat_len=8, w=4),
    "softras": dict(n_faces=4, image_size=8),
    "gat": dict(n_nodes=16, avg_degree=3, feats=4, out_feats=4),
}

#: schedule-search sizes (equal to benchmarks/common.TINY)
TINY = {
    "subdivnet": dict(n_faces=48, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=48, feat_len=8, w=4),
    "softras": dict(n_faces=6, image_size=10),
    "gat": dict(n_nodes=48, avg_degree=4, feats=4, out_feats=4),
}

#: differentiated inputs; as in the paper, GAT's gradient is not evaluated
GRAD_REQUIRES = {
    "subdivnet": ["e", "w"],
    "longformer": ["q", "k", "v"],
    "softras": ["verts"],
}

#: positional array parameters of each program, in call order
ARRAY_PARAMS = {
    "subdivnet": ("adj", "e", "w"),
    "longformer": ("q", "k", "v"),
    "softras": ("verts", "px"),
    "gat": ("indptr", "indices", "h", "wmat", "att_s", "att_d"),
}

FWD_TOL = dict(rtol=1e-3, atol=1e-3)
GRAD_TOL = dict(rtol=2e-2, atol=2e-2)


def module(name: str):
    return importlib.import_module(f"repro.workloads.{name}")


def call_args(name: str, data: Dict[str, object]) -> Tuple[tuple, dict]:
    args = tuple(data[p] for p in ARRAY_PARAMS[name])
    kwargs = {"w": data["w"]} if name == "longformer" else {}
    return args, kwargs


def request_data(name: str, arrays, scalars) -> Dict[str, object]:
    """A served request's payload as the dict ``reference()`` takes."""
    data = dict(zip(ARRAY_PARAMS[name], arrays))
    data.update(scalars)
    return data


def close(out, ref, rtol: float, atol: float) -> bool:
    """``np.allclose`` without its per-call overhead; shape-strict."""
    import numpy as np

    out = np.asarray(out)
    if out.shape != ref.shape:
        return False
    return bool(np.all(np.abs(out - ref) <= atol + rtol * np.abs(ref)))


def forward_ref(name: str, data):
    return module(name).reference(data)


def grad_refs(name: str, data, out_ref):
    """NumPy gradients of ``sum(out)`` in ``GRAD_REQUIRES`` order."""
    import numpy as np

    ref = module(name).grad_reference(data, np.ones_like(out_ref))
    return [ref[k] for k in GRAD_REQUIRES[name]]


def check_forward(out, ref) -> bool:
    return close(out, ref, **FWD_TOL)


def check_grad(out, grads, out_ref, g_refs) -> bool:
    if not isinstance(grads, tuple):
        grads = (grads,)
    return (close(out, out_ref, **FWD_TOL)
            and len(grads) == len(g_refs)
            and all(close(g, r, **GRAD_TOL)
                    for g, r in zip(grads, g_refs)))
