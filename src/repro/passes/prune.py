"""Prune provably-taken/untaken branches using the polyhedral engine.

Walks the tree carrying the affine iteration context (loop bounds and
enclosing conditions) as a *disjunction of conjunctions* — ``min``/``max``
in loop bounds (as produced by ``separate_tail``'s clamped cuts) expand to
case alternatives. An ``If`` whose condition must hold (or must fail) under
every context alternative collapses to a single branch.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import Assert, For, Func, If, Max, Min, Stmt, StmtSeq, VarDef
from ..ir import expr as E
from ..polyhedral import (Affine, AffineBuilder, LinCon, NonAffine,
                          any_feasible)

#: blowup guard for the disjunctive context
_MAX_ALTS = 16

Ctx = List[List[LinCon]]  # disjunction of conjunctions


def _affine(e) -> Optional[tuple]:
    b = AffineBuilder()
    try:
        return b.build(e), b.extra_cons
    except NonAffine:
        return None


def _upper_alts(it: Affine, e) -> Optional[Ctx]:
    """Alternatives for ``it < e`` (Min joins, Max splits)."""
    if isinstance(e, Min):
        l = _upper_alts(it, e.lhs)
        r = _upper_alts(it, e.rhs)
        if l is None or r is None:
            return None
        return [a + b for a in l for b in r]
    if isinstance(e, Max):
        l = _upper_alts(it, e.lhs)
        r = _upper_alts(it, e.rhs)
        if l is None or r is None:
            return None
        return l + r
    res = _affine(e)
    if res is None:
        return [[]]
    a, extra = res
    return [[LinCon.lt(it, a)] + extra]


def _lower_alts(it: Affine, e) -> Optional[Ctx]:
    """Alternatives for ``it >= e`` (Max joins, Min splits)."""
    if isinstance(e, Max):
        l = _lower_alts(it, e.lhs)
        r = _lower_alts(it, e.rhs)
        if l is None or r is None:
            return None
        return [a + b for a in l for b in r]
    if isinstance(e, Min):
        l = _lower_alts(it, e.lhs)
        r = _lower_alts(it, e.rhs)
        if l is None or r is None:
            return None
        return l + r
    res = _affine(e)
    if res is None:
        return [[]]
    a, extra = res
    return [[LinCon.ge(it, a)] + extra]


def _combine(ctx: Ctx, alts: Optional[Ctx]) -> Ctx:
    if not alts:
        return ctx
    out = [c + a for c in ctx for a in alts]
    if len(out) > _MAX_ALTS:
        return ctx  # give up on refinement, keep the coarser context
    return out


def _cond_alts(cond, negate: bool) -> Optional[Ctx]:
    builder = AffineBuilder()
    try:
        alts = builder.build_condition(cond, negate)
    except NonAffine:
        return None
    return [alt + builder.extra_cons for alt in alts]


def _always(cond, ctx: Ctx, negate: bool) -> bool:
    """Whether ``cond`` (or its negation) holds in every context case."""
    neg = _cond_alts(cond, not negate)
    if neg is None:
        return False
    return not any(any_feasible(c, neg) for c in ctx)


def prune_branches(node):
    """Remove branches decided by loop ranges and enclosing conditions."""

    def walk(s: Stmt, ctx: Ctx) -> Stmt:
        if isinstance(s, StmtSeq):
            out = StmtSeq([walk(c, ctx) for c in s.stmts])
            out.sid, out.label = s.sid, s.label
            return out
        if isinstance(s, VarDef):
            nd = VarDef(s.name, s.shape, s.dtype, s.atype, s.mtype,
                        walk(s.body, ctx), s.pinned)
            nd.sid, nd.label, nd.init_data = s.sid, s.label, s.init_data
            return nd
        if isinstance(s, For):
            it = Affine.var(s.iter_var)
            inner = _combine(ctx, _lower_alts(it, s.begin))
            inner = _combine(inner, _upper_alts(it, s.end))
            out = For(s.iter_var, s.begin, s.end, walk(s.body, inner),
                      s.property.clone())
            out.sid, out.label = s.sid, s.label
            return out
        if isinstance(s, If):
            if _always(s.cond, ctx, negate=False):
                return walk(s.then_case, ctx)
            if _always(s.cond, ctx, negate=True):
                if s.else_case is None:
                    return StmtSeq([])
                return walk(s.else_case, ctx)
            then_ctx = _combine(ctx, _single(_cond_alts(s.cond, False)))
            else_ctx = _combine(ctx, _single(_cond_alts(s.cond, True)))
            out = If(s.cond, walk(s.then_case, then_ctx),
                     walk(s.else_case, else_ctx)
                     if s.else_case is not None else None)
            out.sid, out.label = s.sid, s.label
            return out
        if isinstance(s, Assert):
            inner = _combine(ctx, _single(_cond_alts(s.cond, False)))
            out = Assert(s.cond, walk(s.body, inner))
            out.sid, out.label = s.sid, s.label
            return out
        return s

    def _single(alts: Optional[Ctx]) -> Optional[Ctx]:
        # Only conjunctive refinements strengthen the context safely here.
        if alts is not None and len(alts) == 1:
            return alts
        return None

    if isinstance(node, Func):
        return Func(node.name, list(node.params), list(node.returns),
                    walk(node.body, [[]]), list(node.scalar_params))
    return walk(node, [[]])
