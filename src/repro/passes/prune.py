"""Prune provably-taken/untaken branches using the polyhedral engine.

Walks the tree carrying the affine iteration context (loop bounds and
enclosing conditions) as a *disjunction of conjunctions* of ``Linearizer``
rows — ``min``/``max`` in loop bounds (as produced by ``separate_tail``'s
clamped cuts) expand to case alternatives. An ``If`` whose condition must hold (or must fail) under
every context alternative collapses to a single branch.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import Assert, For, Func, If, Max, Min, Stmt, StmtSeq, VarDef
from ..polyhedral import Linearizer, any_feasible, relation
from ..polyhedral.build import Linear, Row

#: blowup guard for the disjunctive context
_MAX_ALTS = 16

Ctx = List[List[Row]]  # disjunction of conjunctions


def _linearizer() -> Linearizer:
    return Linearizer(lambda name: name, object)


def _bound_alts(it: Linear, e, rel: str) -> Ctx:
    """Alternatives for ``it REL e``, an upper (``<``) or lower (``>=``)
    loop bound: a ``Min`` upper or ``Max`` lower bound joins its sides'
    alternatives, the other kind splits them."""
    if isinstance(e, (Min, Max)):
        l = _bound_alts(it, e.lhs, rel)
        r = _bound_alts(it, e.rhs, rel)
        if isinstance(e, Min if rel == "<" else Max):
            return [a + b for a in l for b in r]
        return l + r
    lin = _linearizer()
    a = lin.try_linear(e)
    if a is None:
        return [[]]
    return [[relation(rel, it, a)] + lin.rows]


def _combine(ctx: Ctx, alts: Optional[Ctx]) -> Ctx:
    if not alts:
        return ctx
    out = [c + a for c in ctx for a in alts]
    if len(out) > _MAX_ALTS:
        return ctx  # give up on refinement, keep the coarser context
    return out


def _cond_alts(cond, negate: bool) -> Optional[Ctx]:
    lin = _linearizer()
    alts = lin.try_condition(cond, negate)
    if alts is None:
        return None
    return [alt + lin.rows for alt in alts]


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
            it = {s.iter_var: 1}, 0
            inner = _combine(ctx, _bound_alts(it, s.begin, ">="))
            inner = _combine(inner, _bound_alts(it, s.end, "<"))
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
