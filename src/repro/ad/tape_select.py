"""Selective intermediate tensor materialization (paper section 5.2).

For every intermediate tensor whose forward value the backward pass needs,
decide between **taping** it (materialise one version per scope instance in
the forward pass) and **recomputing** it in the backward pass. The decision
balances the materialisation overhead — proportional to the number of
versions, known symbolically at compile time (paper 5.1) — against the
recomputation cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ADError
from ..ir import (AccessType, For, If, ReduceTo, Stmt, StmtSeq, Store,
                  VarDef, collect_stmts, seq)
from ..ir import expr as E

#: recomputation is "cheap" when the defining slice is loop-free and the
#: total operation count stays under this bound (a few dozen scalar ops
#: cost far less than a round-trip of one element through DRAM)
_CHEAP_OPS = 64


class Materialization:
    """The decision for the needed intermediates of one program."""

    def __init__(self, tape: Set[str], recompute: Set[str]):
        self.tape = tape
        self.recompute = recompute

    def __repr__(self):  # pragma: no cover
        return (f"Materialization(tape={sorted(self.tape)}, "
                f"recompute={sorted(self.recompute)})")


def slice_writes(scope_body: Stmt, target: str) -> Tuple[Stmt, Set[str]]:
    """A copy of ``scope_body`` keeping only the control structure around
    writes to ``target``. Returns (slice, names_read_by_slice)."""
    reads: Set[str] = set()

    def keep(s: Stmt) -> Optional[Stmt]:
        if isinstance(s, (Store, ReduceTo)) and s.var == target:
            from ..ir import fresh_copy

            for e in s.child_exprs():
                for l in E.all_reads(e):
                    reads.add(l.var)
            return fresh_copy(s)
        if isinstance(s, StmtSeq):
            kept = [k for k in (keep(c) for c in s.stmts) if k is not None]
            if not kept:
                return None
            return seq(kept)
        if isinstance(s, For):
            inner = keep(s.body)
            if inner is None:
                return None
            for e in (s.begin, s.end):
                for l in E.all_reads(e):
                    reads.add(l.var)
            return For(s.iter_var, s.begin, s.end, inner,
                       s.property.clone())
        if isinstance(s, If):
            t = keep(s.then_case)
            e = keep(s.else_case) if s.else_case is not None else None
            if t is None and e is None:
                return None
            for l in E.all_reads(s.cond):
                reads.add(l.var)
            if t is None:
                t = StmtSeq([])
            return If(s.cond, t, e)
        if isinstance(s, VarDef):
            # slice through nested scopes: the scoped tensor itself is
            # only needed if a kept statement reads it, in which case it
            # shows up in `reads` and is resolved like any other value
            return keep(s.body)
        return None

    sl = keep(scope_body)
    if sl is None:
        sl = StmtSeq([])
    return sl, reads


def _count_ops(e) -> int:
    """Arithmetic operations in an expression (leaves and the index
    arithmetic of loads are free — they are address computation)."""
    from ..ir import Load
    from ..ir.expr import BinOp, Cast, IfExpr, Intrinsic, LNot

    if isinstance(e, Load):
        return 0
    n = 1 if isinstance(e, (BinOp, Intrinsic, IfExpr, Cast, LNot)) else 0
    return n + sum(_count_ops(c) for c in e.children())


def _slice_cost(sl: Stmt) -> Tuple[bool, int]:
    """(has_reduction_loop, per_element_op_count) of a recompute slice.

    A loop whose iterator indexes the written element is a *parallel*
    fill — recomputing it costs the same per element as the forward pass.
    A loop whose iterator does not appear in the write target is a
    *reduction*: recomputing means re-running the whole loop per use,
    which is what the paper's cost balance tapes instead (section 5.2).
    """
    has_reduction = False
    for loop in collect_stmts(sl, lambda s: isinstance(s, For)):
        writes = collect_stmts(loop.body,
                               lambda s: isinstance(s, (Store, ReduceTo)))
        for w in writes:
            used = set()
            for ix in w.indices:
                for v in E.all_vars(ix):
                    used.add(v)
            if loop.iter_var not in used:
                has_reduction = True
    ops = 0
    for s in collect_stmts(sl, lambda s: isinstance(s, (Store, ReduceTo))):
        ops = max(ops, _count_ops(s.expr))
    return has_reduction, ops


def choose_materialization(func, needed: Iterable[str],
                           scope_bodies: Dict[str, Stmt],
                           available: Set[str],
                           policy,
                           force_tape: Set[str] = frozenset(),
                           enclosing: Optional[Dict[str, Set[str]]] = None
                           ) -> Materialization:
    """Pick tape vs recompute for every needed intermediate (the
    decision of :func:`plan_materialization`, without its scratch)."""
    return plan_materialization(func, needed, scope_bodies, available,
                                policy, force_tape, enclosing)[0]


def plan_materialization(func, needed: Iterable[str],
                         scope_bodies: Dict[str, Stmt],
                         available: Set[str],
                         policy,
                         force_tape: Set[str] = frozenset(),
                         enclosing: Optional[Dict[str, Set[str]]] = None
                         ) -> Tuple[Materialization, Dict[str, Stmt]]:
    """Pick tape vs recompute for every needed intermediate; returns the
    decision and, per recomputed tensor, the copied statement slice
    computing it (what the backward builder splices in).

    ``scope_bodies`` maps tensor name -> its VarDef body (the statements
    computing it). ``available`` are tensors the backward pass can read
    directly (inputs, outputs, by-value params). ``enclosing`` maps each
    tensor to the VarDef names whose scope encloses it — a recomputation
    slice may read another *recomputed* tensor only when that tensor's
    scope encloses it (the backward pass re-creates it around this one).
    ``policy`` is ``"selective"`` (cost-based), ``"all"`` (tape
    everything), ``"none"`` (recompute everything possible), or an
    explicit iterable of names to tape.
    """
    needed = set(needed)
    enclosing = enclosing or {}
    tape: Set[str] = set()
    recompute: Set[str] = set()
    slices: Dict[str, Stmt] = {}

    explicit: Optional[Set[str]] = None
    if not isinstance(policy, str):
        explicit = set(policy)
    elif policy not in ("selective", "all", "none"):
        raise ADError(f"unknown tape policy {policy!r}")

    pending: List[str] = []
    for t in sorted(needed):
        if t in force_tape or (explicit is not None and t in explicit) \
                or (explicit is None and policy == "all"):
            tape.add(t)
        else:
            pending.append(t)

    def read_ok(t: str, r: str) -> Optional[bool]:
        """True: usable; False: never usable; None: not yet decided."""
        if r in available:
            return True
        if r in tape:
            return True  # the slice reads it back through the tape
        if r in recompute:
            return r in enclosing.get(t, set())
        if r not in pending:
            return False
        return None

    # Fixed point: availability for recomputation grows as enclosing
    # tensors are themselves chosen for recomputation.
    while pending:
        progressed = False
        for t in list(pending):
            sl, reads = slice_writes(scope_bodies[t], t)
            reads -= {t}
            status = [read_ok(t, r) for r in reads]
            if any(okx is False for okx in status):
                tape.add(t)
                pending.remove(t)
                progressed = True
                continue
            if any(okx is None for okx in status):
                continue  # wait for dependencies
            has_loop, ops = _slice_cost(sl)
            cheap = not has_loop and ops <= _CHEAP_OPS
            selective = explicit is None and policy == "selective"
            if not selective or cheap:
                recompute.add(t)
                slices[t] = sl
            else:
                tape.add(t)
            pending.remove(t)
            progressed = True
        if not progressed:
            for t in pending:  # circular/blocked: tape the remainder
                tape.add(t)
            pending = []
    return Materialization(tape, recompute), slices
