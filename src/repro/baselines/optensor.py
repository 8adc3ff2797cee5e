"""OpTensor: an eager, operator-based tensor framework (baseline).

This is the reproduction's PyTorch/JAX stand-in (see DESIGN.md). It has the
architectural properties the paper attributes to operator-based
frameworks — the properties that cost them performance on irregular
programs:

- every operator is a separate whole-tensor kernel (one launch each);
- every operator output is a **materialised full tensor** that travels
  through memory (no fusion, no registers across ops);
- expressing partial/indirect access requires data-rearranging operators
  (``index_select`` / ``pad`` / ``sliding_window`` / ``cat``) that move
  data without computing anything;
- reverse-mode autograd is graph-based: it retains every saved operand
  until backward, so differentiation multiplies the memory footprint.

Kernels execute on NumPy (the same substrate as the FreeTensor-side
backends), and every operator reports its launch, bytes moved, FLOPs and
footprint to a :class:`repro.runtime.gpusim.Device` — the class the
simulated GPU charges for FreeTensor's programs — so the baseline and
FreeTensor are measured identically (Figure 17) and the simulated-GPU
capacity applies to both (Figures 16(b)/18).
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.gpusim import Device

_default_device = Device("cpu")


class _Node:
    """A node of the autograd graph."""

    __slots__ = ("inputs", "backward_fn", "name")

    def __init__(self, name: str, inputs: Sequence["OpTensor"],
                 backward_fn: Callable):
        self.name = name
        self.inputs = list(inputs)
        self.backward_fn = backward_fn


class OpTensor:
    """An eagerly-evaluated tensor with operator-level autograd."""

    def __init__(self, data: np.ndarray, device: Optional[Device] = None,
                 requires_grad: bool = False, _node: Optional[_Node] = None,
                 _counts_alloc: bool = True):
        self.data = np.asarray(data)
        self.device = device if device is not None else _default_device
        self.requires_grad = requires_grad
        self.node = _node
        self.grad: Optional[np.ndarray] = None
        if _counts_alloc:
            self.device.alloc(self.data.nbytes)
            weakref.finalize(self, self.device.free, self.data.nbytes)

    # -- metadata -----------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"OpTensor(shape={self.shape}, dtype={self.dtype})"

    # -- operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- autograd entry ------------------------------------------------------
    def backward(self, out_grad: Optional[np.ndarray] = None):
        """Reverse-mode over the recorded graph (baseline AD).

        Materialises a gradient kernel per recorded op; the graph retained
        every operand, mirroring operator-framework memory behaviour.
        """
        if out_grad is None:
            out_grad = np.ones_like(self.data)
        grads = {id(self): np.asarray(out_grad, dtype=self.data.dtype)}
        order: List[OpTensor] = []
        seen = set()

        def topo(t: "OpTensor"):
            if id(t) in seen or t.node is None:
                return
            seen.add(id(t))
            for x in t.node.inputs:
                topo(x)
            order.append(t)

        topo(self)
        leaves = {}
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            in_grads = t.node.backward_fn(g)
            _kernel_accounting(t.device, t.node.name + ".bwd",
                               [g], in_grads)
            for x, gx in zip(t.node.inputs, in_grads):
                if gx is None or not isinstance(x, OpTensor):
                    continue
                if not (x.requires_grad or x.node is not None):
                    continue
                prev = grads.get(id(x))
                grads[id(x)] = gx if prev is None else prev + gx
                if x.node is None and x.requires_grad:
                    leaves[id(x)] = x
        for lid, x in leaves.items():
            g = grads.get(lid)
            if g is not None:
                x.grad = g if x.grad is None else x.grad + g


def _kernel_accounting(device: Device, name: str, reads, writes):
    r = sum(int(np.asarray(x).nbytes) for x in reads
            if x is not None)
    w = sum(int(np.asarray(x).nbytes) for x in writes
            if x is not None)
    device.on_kernel(name)
    device.on_traffic(r + w)


# ---------------------------------------------------------------------------
# operator implementation machinery
# ---------------------------------------------------------------------------


def tensor(data, device: Optional[Device] = None,
           requires_grad: bool = False, dtype=np.float32) -> OpTensor:
    """Create a leaf tensor on a device."""
    return OpTensor(np.asarray(data, dtype=dtype), device,
                    requires_grad)


def _wrap(x, like: OpTensor) -> OpTensor:
    if isinstance(x, OpTensor):
        return x
    return OpTensor(np.asarray(x, dtype=like.data.dtype), like.device,
                    _counts_alloc=False)


def _op(name: str, inputs: Sequence[OpTensor], out_data: np.ndarray,
        backward_fn: Optional[Callable], flops: int = 0,
        is_view: bool = False) -> OpTensor:
    """Record one operator execution: metrics + graph node."""
    device = inputs[0].device if inputs else _default_device
    reads = sum(t.data.nbytes for t in inputs)
    writes = 0 if is_view else out_data.nbytes
    device.on_kernel(name)
    device.on_traffic(reads + writes)
    device.on_flop(flops)
    track = any(t.requires_grad or t.node is not None for t in inputs)
    node = _Node(name, inputs, backward_fn) if track and \
        backward_fn is not None else None
    return OpTensor(out_data, device, requires_grad=False, _node=node,
                    _counts_alloc=not is_view)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to an operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape))
                 if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise operators
# ---------------------------------------------------------------------------


def add(a, b) -> OpTensor:
    a0 = a if isinstance(a, OpTensor) else None
    b0 = b if isinstance(b, OpTensor) else None
    ref = a0 or b0
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = a.data + b.data
    return _op("add", [a, b], out,
               lambda g: (_unbroadcast(g, a.shape),
                          _unbroadcast(g, b.shape)),
               flops=out.size)


def sub(a, b) -> OpTensor:
    ref = a if isinstance(a, OpTensor) else b
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = a.data - b.data
    return _op("sub", [a, b], out,
               lambda g: (_unbroadcast(g, a.shape),
                          _unbroadcast(-g, b.shape)),
               flops=out.size)


def mul(a, b) -> OpTensor:
    ref = a if isinstance(a, OpTensor) else b
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = a.data * b.data
    return _op("mul", [a, b], out,
               lambda g: (_unbroadcast(g * b.data, a.shape),
                          _unbroadcast(g * a.data, b.shape)),
               flops=out.size)


def div(a, b) -> OpTensor:
    ref = a if isinstance(a, OpTensor) else b
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = a.data / b.data
    return _op("div", [a, b], out,
               lambda g: (_unbroadcast(g / b.data, a.shape),
                          _unbroadcast(-g * a.data / (b.data * b.data),
                                       b.shape)),
               flops=out.size)


def neg(a: OpTensor) -> OpTensor:
    return _op("neg", [a], -a.data, lambda g: (-g,), flops=a.data.size)


def abs_(a: OpTensor) -> OpTensor:
    return _op("abs", [a], np.abs(a.data),
               lambda g: (g * np.sign(a.data),), flops=a.data.size)


def exp(a: OpTensor) -> OpTensor:
    out = np.exp(a.data)
    return _op("exp", [a], out, lambda g: (g * out,),
               flops=a.data.size)


def log(a: OpTensor) -> OpTensor:
    return _op("log", [a], np.log(a.data), lambda g: (g / a.data,),
               flops=a.data.size)


def sigmoid(a: OpTensor) -> OpTensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _op("sigmoid", [a], out,
               lambda g: (g * out * (1 - out),), flops=3 * a.data.size)


def tanh(a: OpTensor) -> OpTensor:
    out = np.tanh(a.data)
    return _op("tanh", [a], out, lambda g: (g * (1 - out * out),),
               flops=a.data.size)


def relu(a: OpTensor) -> OpTensor:
    out = np.maximum(a.data, 0)
    return _op("relu", [a], out,
               lambda g: (g * (a.data > 0),), flops=a.data.size)


def leaky_relu(a: OpTensor, slope: float = 0.2) -> OpTensor:
    out = np.where(a.data > 0, a.data, slope * a.data)
    return _op("leaky_relu", [a], out,
               lambda g: (g * np.where(a.data > 0, 1.0, slope)
                          .astype(a.data.dtype),),
               flops=a.data.size)


def maximum(a, b) -> OpTensor:
    ref = a if isinstance(a, OpTensor) else b
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = np.maximum(a.data, b.data)
    mask = (a.data >= b.data)
    return _op("maximum", [a, b], out,
               lambda g: (_unbroadcast(g * mask, a.shape),
                          _unbroadcast(g * ~mask, b.shape)),
               flops=out.size)


def where(cond: OpTensor, a, b) -> OpTensor:
    ref = a if isinstance(a, OpTensor) else b
    a, b = _wrap(a, ref), _wrap(b, ref)
    out = np.where(cond.data, a.data, b.data)
    return _op("where", [cond, a, b], out,
               lambda g: (None,
                          _unbroadcast(g * cond.data, a.shape),
                          _unbroadcast(g * ~np.asarray(cond.data, bool),
                                       b.shape)),
               flops=out.size)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_(a: OpTensor, axis=None, keepdims: bool = False) -> OpTensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).astype(a.data.dtype),)

    return _op("sum", [a], np.asarray(out), bwd, flops=a.data.size)


def mean(a: OpTensor, axis=None, keepdims: bool = False) -> OpTensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = np.asarray(g) / n
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).astype(a.data.dtype),)

    return _op("mean", [a], np.asarray(out), bwd, flops=a.data.size)


def max_(a: OpTensor, axis=None, keepdims: bool = False) -> OpTensor:
    out = a.data.max(axis=axis, keepdims=keepdims)

    def bwd(g):
        full = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == full)
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return ((mask * gg).astype(a.data.dtype),)

    return _op("max", [a], np.asarray(out), bwd, flops=a.data.size)


def prod(a: OpTensor, axis=None, keepdims: bool = False) -> OpTensor:
    out = a.data.prod(axis=axis, keepdims=keepdims)

    def bwd(g):
        full = a.data.prod(axis=axis, keepdims=True)
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        with np.errstate(divide="ignore", invalid="ignore"):
            gx = np.where(a.data != 0, full / a.data, 0.0)
        return ((gx * gg).astype(a.data.dtype),)

    return _op("prod", [a], np.asarray(out), bwd, flops=a.data.size)


def softmax(a: OpTensor, axis: int = -1) -> OpTensor:
    """One fused kernel, as vendor libraries provide."""
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((out * (g - dot)).astype(a.data.dtype),)

    return _op("softmax", [a], out, bwd, flops=5 * a.data.size)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: OpTensor, b: OpTensor) -> OpTensor:
    out = a.data @ b.data
    k = a.data.shape[-1]

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _op("matmul", [a, b], out, bwd, flops=2 * out.size * k)


bmm = matmul  # batched matmul is the same NumPy kernel


# ---------------------------------------------------------------------------
# data movement (the redundancy-introducing operators of Fig. 1/2)
# ---------------------------------------------------------------------------


def index_select(a: OpTensor, axis: int, idx: OpTensor) -> OpTensor:
    """Gather rows along an axis (PyTorch ``index_select``)."""
    ii = np.asarray(idx.data if isinstance(idx, OpTensor) else idx,
                    dtype=np.int64)
    out = np.take(a.data, ii, axis=axis)

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, _axis_index(axis, ii, a.data.ndim), g)
        return (ga, None) if isinstance(idx, OpTensor) else (ga,)

    ins = [a, idx] if isinstance(idx, OpTensor) else [a]
    return _op("index_select", ins, out, bwd)


def _axis_index(axis, ii, ndim):
    sl = [slice(None)] * ndim
    sl[axis] = ii
    return tuple(sl)


def scatter_add(a: OpTensor, axis: int, idx, src: OpTensor) -> OpTensor:
    """Out-of-place ``index_add`` (one kernel, fresh output)."""
    ii = np.asarray(idx.data if isinstance(idx, OpTensor) else idx,
                    dtype=np.int64)
    out = a.data.copy()
    np.add.at(out, _axis_index(axis, ii, out.ndim), src.data)

    def bwd(g):
        gsrc = np.take(g, ii, axis=axis)
        outs = [g, gsrc]
        if isinstance(idx, OpTensor):
            outs.insert(1, None)
        return tuple(outs)

    ins = [a, idx, src] if isinstance(idx, OpTensor) else [a, src]
    return _op("scatter_add", ins, out, bwd)


def reshape(a: OpTensor, shape) -> OpTensor:
    out = a.data.reshape(shape)
    return _op("reshape", [a], out,
               lambda g: (np.asarray(g).reshape(a.shape),),
               is_view=True)


def flatten(a: OpTensor) -> OpTensor:
    return reshape(a, (-1,))


def transpose(a: OpTensor, axes=None) -> OpTensor:
    out = np.transpose(a.data, axes)

    def bwd(g):
        inv = None if axes is None else np.argsort(axes)
        return (np.transpose(np.asarray(g), inv),)

    return _op("transpose", [a], out, bwd, is_view=True)


def cat(tensors: Sequence[OpTensor], axis: int = 0) -> OpTensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        return tuple(np.split(np.asarray(g),
                              np.cumsum(sizes)[:-1], axis=axis))

    return _op("cat", list(tensors), out, bwd)


def pad(a: OpTensor, pad_width, value: float = 0.0) -> OpTensor:
    out = np.pad(a.data, pad_width, constant_values=value)

    def bwd(g):
        sl = tuple(slice(p[0], g.shape[i] - p[1])
                   for i, p in enumerate(pad_width))
        return (np.asarray(g)[sl],)

    return _op("pad", [a], out, bwd)


def sliding_window(a: OpTensor, window: int, axis: int = 0) -> OpTensor:
    """Materialise ``window``-sized sliding views along an axis.

    This is the PyTorch ``pad + as_strided + contiguous`` idiom of the
    Longformer implementation in paper Fig. 1(c): the result is
    window-fold larger than the input — the memory redundancy FreeTensor
    avoids.
    """
    assert axis == 0, "only axis 0 is needed by the workloads"
    n = a.data.shape[0] - window + 1
    view = np.lib.stride_tricks.sliding_window_view(a.data, window, axis=0)
    # (n, rest..., window) -> (n, window, rest...)
    view = np.moveaxis(view, -1, 1)
    out = np.ascontiguousarray(view)

    def bwd(g):
        ga = np.zeros_like(a.data)
        gg = np.asarray(g)
        for kk in range(window):
            ga[kk:kk + n] += gg[:, kk]
        return (ga,)

    return _op("sliding_window", [a], out, bwd)


def narrow(a: OpTensor, axis: int, start: int, length: int) -> OpTensor:
    """A contiguous slice along an axis (a view, like torch.narrow)."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    out = a.data[tuple(sl)]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[tuple(sl)] = g
        return (ga,)

    return _op("narrow", [a], out, bwd, is_view=True)


def scatter_max(a: OpTensor, axis: int, idx, src: OpTensor) -> OpTensor:
    """Out-of-place segment max (no gradient; used by inference-only
    message passing)."""
    ii = np.asarray(idx.data if isinstance(idx, OpTensor) else idx,
                    dtype=np.int64)
    out = a.data.copy()
    np.maximum.at(out, _axis_index(axis, ii, out.ndim), src.data)
    ins = [a, idx, src] if isinstance(idx, OpTensor) else [a, src]
    return _op("scatter_max", ins, out, None)


def stack(tensors: Sequence[OpTensor], axis: int = 0) -> OpTensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        return tuple(np.moveaxis(np.asarray(g), axis, 0))

    return _op("stack", list(tensors), out, bwd)
