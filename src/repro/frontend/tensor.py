"""Tensor proxies used while staging DSL functions.

A :class:`TensorRef` stands for (a view of) an IR tensor. Indexing follows
NumPy-style rules (paper Figure 4): integer indices drop dimensions, slices
keep them, and any sub-area of a tensor can be referenced. Arithmetic on
0-D refs produces scalar IR expressions; arithmetic on N-D refs emits
fine-grained elementwise loops producing a fresh temporary — these are the
paper's *granularity-oblivious* tensor operations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..errors import StagingError
from ..ir import (DataType, Expr, IntConst, Load, ReduceTo, Store,
                  makeIntrinsic, makeMax, makeMin, same_expr, wrap, wrap_like)
from .context import Builder, _VarMarker

# A view dimension is either ("idx", expr) — consumed by an integer index —
# or ("range", start_expr, length_expr) — still iterable.
_Dim = Tuple


class TensorRef:
    """A (view of a) tensor during staging."""

    __slots__ = ("ctx", "name", "dtype", "dims", "marker")

    def __init__(self,
                 ctx: Builder,
                 name: str,
                 dtype: DataType,
                 dims: Sequence[_Dim],
                 marker: Optional[_VarMarker] = None):
        self.ctx = ctx
        self.name = name
        self.dtype = dtype
        self.dims = list(dims)
        self.marker = marker

    # -- construction -----------------------------------------------------
    @staticmethod
    def full_view(ctx: Builder, marker: _VarMarker) -> "TensorRef":
        dims = [("range", IntConst(0), s) for s in marker.shape]
        return TensorRef(ctx, marker.name, marker.dtype, dims, marker)

    # -- metadata -----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return sum(1 for d in self.dims if d[0] == "range")

    def shape(self, i: Optional[int] = None):
        """Shape of this view: ``shape()`` returns a tuple of expressions
        (plain ints where constant); ``shape(i)`` one dimension."""
        lens = [d[2] for d in self.dims if d[0] == "range"]
        lens = [l.val if isinstance(l, IntConst) else l for l in lens]
        if i is None:
            return tuple(lens)
        return lens[i]

    @property
    def mtype(self):
        return self.marker.mtype if self.marker is not None else None

    # -- indexing ------------------------------------------------------------
    def _as_index(self, e, length) -> Expr:
        e = as_expr(e)
        if isinstance(e, IntConst) and e.val < 0:
            return length + e.val
        return e

    def __getitem__(self, args) -> "TensorRef":
        if not isinstance(args, tuple):
            args = (args,)
        if len(args) == 1 and args[0] is Ellipsis:
            return self
        if any(a is Ellipsis for a in args):
            raise StagingError("'...' is only supported as the sole index")
        new_dims: List[_Dim] = []
        queue = list(args)
        for d in self.dims:
            if d[0] == "idx" or not queue:
                new_dims.append(d)
                continue
            arg = queue.pop(0)
            start, length = d[1], d[2]
            if isinstance(arg, slice):
                if arg.step not in (None, 1):
                    raise StagingError(
                        "strided slices are not supported; use an explicit "
                        "loop to express a strided access")
                lo = (IntConst(0) if arg.start is None else self._as_index(
                    arg.start, length))
                hi = (length if arg.stop is None else self._as_index(
                    arg.stop, length))
                new_dims.append(("range", start + lo, hi - lo))
            else:
                idx = self._as_index(arg, length)
                new_dims.append(("idx", start + idx))
        if queue:
            raise StagingError(
                f"too many indices for {self.ndim}-D tensor {self.name!r}")
        return TensorRef(self.ctx, self.name, self.dtype, new_dims,
                         self.marker)

    def _full_indices(self) -> List[Expr]:
        if self.ndim != 0:
            raise StagingError(
                f"tensor {self.name!r} used as a scalar but has "
                f"{self.ndim} free dimension(s)")
        return [d[1] for d in self.dims]

    def as_load(self) -> Expr:
        """The scalar Load expression for a 0-D view."""
        return Load(self.name, self._full_indices(), self.dtype)

    # -- writing ----------------------------------------------------------
    def __setitem__(self, args, value):
        self[args]._assign(value)

    def _assign(self, value):
        """Elementwise assignment of ``value`` into this view."""
        if self.ndim == 0:
            self.ctx.emit(
                Store(self.name, self._full_indices(), as_expr(value)))
            return
        _map_elementwise_store(self, value, reduce_op=None)

    def _reduce(self, op: str, value):
        """Elementwise ``self op= value``."""
        if self.ndim == 0:
            self.ctx.emit(
                ReduceTo(self.name, self._full_indices(), op, as_expr(value)))
            return
        _map_elementwise_store(self, value, reduce_op=op)

    # -- arithmetic -----------------------------------------------------------
    def _scalar_or_self(self):
        return self.as_load() if self.ndim == 0 else self

    def _binop(self, other, fn, reverse=False):
        a, b = (other, self) if reverse else (self, other)
        a = a._scalar_or_self() if isinstance(a, TensorRef) else a
        b = b._scalar_or_self() if isinstance(b, TensorRef) else b
        if isinstance(a, TensorRef) or isinstance(b, TensorRef):
            return _elementwise_binary(self.ctx, a, b, fn)
        return fn(wrap(a), wrap(b))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binop(other, lambda a, b: a + b, reverse=True)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: a - b, reverse=True)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binop(other, lambda a, b: a * b, reverse=True)

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: a / b, reverse=True)

    def __floordiv__(self, other):
        return self._binop(other, lambda a, b: a // b)

    def __rfloordiv__(self, other):
        return self._binop(other, lambda a, b: a // b, reverse=True)

    def __mod__(self, other):
        return self._binop(other, lambda a, b: a % b)

    def __rmod__(self, other):
        return self._binop(other, lambda a, b: a % b, reverse=True)

    def __neg__(self):
        return self._binop(0, lambda a, b: b - a, reverse=False) \
            if self.ndim else -self.as_load()

    def __abs__(self):
        return _elementwise_unary(self.ctx, self, lambda a: abs(a)) \
            if self.ndim else abs(self.as_load())

    # comparisons only make sense element-wise on scalars
    def _cmp(self, other, fn):
        if self.ndim != 0:
            raise StagingError("comparisons require 0-D (scalar) tensors")
        other = as_expr(other)
        return fn(self.as_load(), other)

    def __lt__(self, other):
        return self._cmp(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._cmp(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._cmp(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._cmp(other, lambda a, b: a >= b)

    def __eq__(self, other):  # type: ignore[override]
        return self._cmp(other, lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return self._cmp(other, lambda a, b: a != b)

    def __hash__(self):
        return id(self)

    def __bool__(self):
        raise StagingError(
            "a tensor cannot be used as a Python boolean during staging")

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"TensorRef({self.name}, ndim={self.ndim}, "
                f"dtype={self.dtype})")


ScalarLike = Union[int, float, bool, Expr, TensorRef]


def as_expr(value) -> Expr:
    """Convert a staging value to a scalar IR expression."""
    if isinstance(value, TensorRef):
        return value.as_load()
    return wrap(value)


def _map_elementwise_store(target: TensorRef, value, reduce_op):
    """Emit loops storing/reducing ``value`` into every element of target.

    ``value`` may be a scalar (broadcast) or a TensorRef of the same ndim.
    """
    ctx = target.ctx
    if isinstance(value, TensorRef) and value.ndim not in (0, target.ndim):
        raise StagingError(
            f"shape mismatch: assigning {value.ndim}-D into "
            f"{target.ndim}-D view of {target.name!r}")

    def rec(tgt: TensorRef, val):
        if tgt.ndim == 0:
            v = as_expr(val)
            if reduce_op is None:
                tgt._assign(v)
            else:
                tgt._reduce(reduce_op, v)
            return
        with ctx.for_range("i_ew", 0, tgt.shape(0)) as i:
            sub_val = val[i] if isinstance(val, TensorRef) and val.ndim \
                else val
            rec(tgt[i], sub_val)

    rec(target, value)


def _elementwise_binary(ctx: Builder, a, b, fn) -> TensorRef:
    """Create a temporary holding elementwise ``fn(a, b)``."""
    tensor = a if isinstance(a, TensorRef) else b
    if isinstance(a, TensorRef) and isinstance(b, TensorRef) \
            and a.ndim != b.ndim:
        raise StagingError(
            "elementwise operation on tensors of different ndim "
            f"({a.ndim} vs {b.ndim}); broadcasting is only supported "
            "against scalars")
    probe = fn(_probe_expr(a), _probe_expr(b))
    marker = ctx.define("tmp", [d[2] for d in tensor.dims
                                if d[0] == "range"], probe.dtype,
                        "cache", tensor.mtype or ctx.default_mtype)
    marker.fresh_unbound = True
    out = TensorRef.full_view(ctx, marker)

    def rec(o, x, y):
        if o.ndim == 0:
            o._assign(fn(as_expr(x), as_expr(y)))
            return
        with ctx.for_range("i_ew", 0, o.shape(0)) as i:
            xi = x[i] if isinstance(x, TensorRef) and x.ndim else x
            yi = y[i] if isinstance(y, TensorRef) and y.ndim else y
            rec(o[i], xi, yi)

    rec(out, a, b)
    return out


def _elementwise_unary(ctx: Builder, a: TensorRef, fn) -> TensorRef:
    probe = fn(_probe_expr(a))
    marker = ctx.define("tmp", [d[2] for d in a.dims if d[0] == "range"],
                        probe.dtype, "cache", a.mtype or ctx.default_mtype)
    marker.fresh_unbound = True
    out = TensorRef.full_view(ctx, marker)

    def rec(o, x):
        if o.ndim == 0:
            o._assign(fn(as_expr(x)))
            return
        with ctx.for_range("i_ew", 0, o.shape(0)) as i:
            rec(o[i], x[i])

    rec(out, a)
    return out


def _probe_expr(v) -> Expr:
    """A representative scalar expression for dtype inference."""
    if isinstance(v, TensorRef):
        return Load(v.name, [IntConst(0)] * len(v.dims), v.dtype)
    return wrap(v)


# ---------------------------------------------------------------------------
# Scalar math usable on both Expr and TensorRef (element-wise when N-D)
# ---------------------------------------------------------------------------


def _lift_unary(name):

    def fn(x):
        if isinstance(x, TensorRef) and x.ndim > 0:
            return _elementwise_unary(x.ctx, x,
                                      lambda a: makeIntrinsic(name, [a]))
        return makeIntrinsic(name, [as_expr(x)])

    fn.__name__ = name
    fn.__doc__ = f"Element-wise ``{name}`` on scalars or tensors."
    return fn


sqrt = _lift_unary("sqrt")
exp = _lift_unary("exp")
log = _lift_unary("log")
sin = _lift_unary("sin")
cos = _lift_unary("cos")
tan = _lift_unary("tan")
tanh = _lift_unary("tanh")
sigmoid = _lift_unary("sigmoid")
floor = _lift_unary("floor")
ceil = _lift_unary("ceil")
erf = _lift_unary("erf")


def ft_abs(x):
    """Element-wise absolute value (also reachable as builtin ``abs``)."""
    if isinstance(x, TensorRef) and x.ndim > 0:
        return _elementwise_unary(x.ctx, x, lambda a: abs(a))
    return abs(as_expr(x))


def _reduce2(fn, fname):

    def out(*args):
        if len(args) == 1:
            args = tuple(args[0])
        if len(args) < 2:
            raise StagingError(f"{fname}() needs at least two arguments")
        acc = as_expr(args[0])
        for a in args[1:]:
            acc = fn(acc, as_expr(a))
        return acc

    out.__name__ = fname
    out.__doc__ = f"Scalar ``{fname}`` of two or more staged values."
    return out


ft_min = _reduce2(makeMin, "min")
ft_max = _reduce2(makeMax, "max")


class _TensorAnnotation:
    """Parameter annotation: ``Tensor[shape, dtype, atype, mtype?]``.

    ``shape`` is a tuple whose entries are ints or strings; a string names a
    by-value integer parameter (created automatically, shared across uses).
    """

    def __init__(self, spec):
        if not isinstance(spec, tuple) or len(spec) < 3:
            raise StagingError(
                "Tensor annotation must be Tensor[shape, dtype, atype] "
                "or Tensor[shape, dtype, atype, mtype]")
        shape = spec[0]
        if not isinstance(shape, tuple):
            shape = (shape,)
        self.shape = shape
        self.dtype = spec[1]
        self.atype = spec[2]
        self.mtype = spec[3] if len(spec) > 3 else None


class Tensor:
    """Annotation type for DSL tensor parameters; see the frontend docs."""

    def __class_getitem__(cls, spec):
        return _TensorAnnotation(spec)


class Size:
    """Annotation type for an explicit by-value integer parameter."""
