"""Batch-axis prepending: turn a Func into its batched variant.

``batch_axis_prepend(func)`` rewrites a compiled-unit that serves one
request into one that serves ``bsz`` stacked requests in a single call:

- every interface tensor (inputs, inouts, outputs) gains a leading
  symbolic ``bsz`` dimension;
- the whole computation is wrapped in ``for bi in [0, bsz)`` and every
  access to an interface tensor is indexed by ``bi`` first;
- ``bsz`` joins the scalar parameters and is inferred by the driver
  from the leading extent of the stacked arrays, so one compiled
  artifact serves any batch size.

This is the ``baselines/vmap.py`` whole-batch idea carried into the
compiled path: the batched Func goes through the ordinary pipeline
(``build(..., optimize=...)``), lands in the persistent artifact store
like any other program, and amortizes per-call dispatch across the
batch. By-value scalar parameters (``ft.Size``) stay shared across the
batch — requests batched together must agree on them, which the serving
bucketer guarantees by keying buckets on scalars.

The transform is memoized on the input Func's structural hash so repeat
requests reuse one batched Func object (and therefore hit the in-memory
and on-disk build caches).
"""

from __future__ import annotations

from typing import List

from ..errors import InvalidProgram
from ..ir import (AccessType, Assert, Expr, For, Func, LibCall, Load,
                  Mutator, Stmt, Store, Var, VarDef, fresh_name,
                  struct_hash, used_names)
from ..ir import stmt as S
from ..state import BoundedMemo

__all__ = ["BatchingUnsupported", "batch_axis_prepend"]


class BatchingUnsupported(InvalidProgram):
    """The Func cannot be batch-transformed (the serving layer falls
    back to serial per-request execution)."""


#: struct_hash(func) -> batched Func; bounded like the build cache
_MEMO = BoundedMemo("batching", 256)


class _AccessRewriter(Mutator):
    """Prepend ``bi`` to every access of an interface tensor."""

    def __init__(self, iface: set, bi: Expr):
        self.iface = iface
        self.bi = bi

    def mutate_Load(self, e: Load):
        idx = [self.mutate_expr(i) for i in e.indices]
        if e.var in self.iface:
            idx = [self.bi] + idx
        return Load(e.var, idx, e.dtype)

    def mutate_Store(self, s: Store):
        idx = [self.mutate_expr(i) for i in s.indices]
        if s.var in self.iface:
            idx = [self.bi] + idx
        out = Store(s.var, idx, self.mutate_expr(s.expr))
        out.sid, out.label = s.sid, s.label
        return out

    def mutate_ReduceTo(self, s: S.ReduceTo):
        idx = [self.mutate_expr(i) for i in s.indices]
        if s.var in self.iface:
            idx = [self.bi] + idx
        out = S.ReduceTo(s.var, idx, s.op, self.mutate_expr(s.expr),
                         s.atomic)
        out.sid, out.label = s.sid, s.label
        return out

    def mutate_LibCall(self, s: LibCall):
        if self.iface & (set(s.outs) | set(s.args)):
            raise BatchingUnsupported(
                f"cannot batch a LibCall ({s.kind!r}) over interface "
                f"tensors; batch the raw (pre-schedule) program instead")
        return s

    def mutate_VarDef(self, s: VarDef):
        if s.name in self.iface:
            raise BatchingUnsupported(
                f"interface tensor {s.name!r} is redefined in an inner "
                f"scope; cannot batch")
        return self.generic_mutate_stmt(s)


def _strip_interface_defs(s: Stmt, iface: set,
                          found: List[VarDef]) -> Stmt:
    """Remove interface VarDefs (recording them in declaration order)
    and drop the tree down to the remaining computation."""
    if isinstance(s, VarDef) and s.name in iface:
        found.append(s)
        return _strip_interface_defs(s.body, iface, found)
    if isinstance(s, Assert):
        out = Assert(s.cond, _strip_interface_defs(s.body, iface, found))
        out.sid, out.label = s.sid, s.label
        return out
    if isinstance(s, S.StmtSeq):
        out = S.StmtSeq([_strip_interface_defs(c, iface, found)
                         for c in s.stmts])
        out.sid, out.label = s.sid, s.label
        return out
    if isinstance(s, VarDef):  # a local: its body may hide more defs
        out = VarDef(s.name, s.shape, s.dtype, s.atype, s.mtype,
                     _strip_interface_defs(s.body, iface, found), s.pinned)
        out.sid, out.label, out.init_data = s.sid, s.label, s.init_data
        return out
    return s


def batch_axis_prepend(func: Func, batch_var: str = "bsz",
                       iter_var: str = "bi") -> Func:
    """Return the batched variant of ``func`` (see module docstring).

    The result is a fresh Func named ``<name>_batched`` with the same
    parameter and return names; the caller passes arrays stacked along a
    new leading axis and the driver infers the batch size. Raises
    :class:`BatchingUnsupported` for programs the transform cannot
    express (LibCalls over interface tensors, shadowed interfaces).
    """
    func = getattr(func, "func", func)  # unwrap a frontend Program
    memo_key = struct_hash(func)
    hit = _MEMO.get(memo_key)
    if hit is not None:
        return hit

    iface = set(func.interface_tensors())
    taken = used_names(func.body) | set(func.scalar_params) | iface
    bsz = fresh_name(batch_var, taken)
    bi = fresh_name(iter_var, taken | {bsz})

    defs: List[VarDef] = []
    compute = _strip_interface_defs(func.body, iface, defs)
    if {d.name for d in defs} != iface:
        missing = iface - {d.name for d in defs}
        raise BatchingUnsupported(
            f"interface tensors without a reachable VarDef: "
            f"{sorted(missing)}")

    compute = _AccessRewriter(iface, Var(bi))(compute)
    body: Stmt = For(bi, 0, Var(bsz), compute)
    # Re-nest the interface declarations (innermost-last order preserved)
    # around the batch loop, each with the new leading extent.
    for d in reversed(defs):
        out = VarDef(d.name, (Var(bsz),) + tuple(d.shape), d.dtype,
                     d.atype, d.mtype, body, d.pinned)
        out.sid, out.label, out.init_data = d.sid, d.label, d.init_data
        body = out

    batched = Func(func.name + "_batched", list(func.params),
                   list(func.returns), body,
                   scalar_params=list(func.scalar_params) + [bsz])
    _MEMO.put(memo_key, batched)
    return batched
