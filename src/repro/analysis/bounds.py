"""Symbolic bound analysis for index expressions (paper section 4.2.3).

For an expression over loop iterators, collect *all* lower- and upper-bound
candidate expressions, then answer "the tightest bound expressible with
only these variables" — the inference that sizes ``cache`` tensors and
shrinks over-allocated ones.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Optional, Tuple

from ..ir import (Expr, IntConst, Load, Var, all_vars, makeAdd, makeMax,
                  makeMin, makeMul, makeSub, same_expr, wrap)
from ..ir import expr as E


class BoundsCtx:
    """Iterator ranges in scope: name -> (begin, end) with end exclusive."""

    def __init__(self, ranges: Optional[Dict[str, Tuple[Expr, Expr]]] = None):
        self.ranges = dict(ranges or {})

    def with_loop(self, name: str, begin: Expr, end: Expr) -> "BoundsCtx":
        out = BoundsCtx(self.ranges)
        out.ranges[name] = (wrap(begin), wrap(end))
        return out


def bound_candidates(e: Expr, ctx: BoundsCtx) -> Tuple[List[Expr],
                                                       List[Expr]]:
    """All candidate (lowers, uppers) of ``e``; both lists always include
    ``e`` itself. Bounds are inclusive."""
    lowers, uppers = _cands(e, ctx)
    return _dedup(lowers + [e]), _dedup(uppers + [e])


def _dedup(exprs: List[Expr]) -> List[Expr]:
    out, seen = [], set()
    for x in exprs:
        k = x.key()
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out


def _cands(e: Expr, ctx: BoundsCtx) -> Tuple[List[Expr], List[Expr]]:
    if isinstance(e, IntConst):
        return [e], [e]
    if isinstance(e, Var):
        rng = ctx.ranges.get(e.name)
        if rng is None:
            return [e], [e]
        lo, hi = rng
        los, _ = _cands(lo, ctx)
        _, ups = _cands(makeSub(hi, wrap(1)), ctx)
        return los + [lo], ups + [makeSub(hi, wrap(1))]
    if isinstance(e, E.Add):
        ll, lu = _cands(e.lhs, ctx)
        rl, ru = _cands(e.rhs, ctx)
        return ([makeAdd(a, b) for a in ll for b in rl],
                [makeAdd(a, b) for a in lu for b in ru])
    if isinstance(e, E.Sub):
        ll, lu = _cands(e.lhs, ctx)
        rl, ru = _cands(e.rhs, ctx)
        return ([makeSub(a, b) for a in ll for b in ru],
                [makeSub(a, b) for a in lu for b in rl])
    if isinstance(e, E.Mul):
        k = None
        inner = None
        if isinstance(e.lhs, IntConst):
            k, inner = e.lhs.val, e.rhs
        elif isinstance(e.rhs, IntConst):
            k, inner = e.rhs.val, e.lhs
        if k is None:
            return [], []
        lo, up = _cands(inner, ctx)
        if k >= 0:
            return ([makeMul(a, wrap(k)) for a in lo],
                    [makeMul(a, wrap(k)) for a in up])
        return ([makeMul(a, wrap(k)) for a in up],
                [makeMul(a, wrap(k)) for a in lo])
    if isinstance(e, E.FloorDiv) and isinstance(e.rhs, IntConst) \
            and e.rhs.val > 0:
        lo, up = _cands(e.lhs, ctx)
        d = e.rhs
        from ..ir import makeFloorDiv

        return ([makeFloorDiv(a, d) for a in lo],
                [makeFloorDiv(a, d) for a in up])
    if isinstance(e, E.Mod) and isinstance(e.rhs, IntConst) \
            and e.rhs.val > 0:
        return [wrap(0)], [wrap(e.rhs.val - 1)]
    if isinstance(e, E.Min):
        ll, lu = _cands(e.lhs, ctx)
        rl, ru = _cands(e.rhs, ctx)
        return [makeMin(a, b) for a in ll for b in rl], lu + ru
    if isinstance(e, E.Max):
        ll, lu = _cands(e.lhs, ctx)
        rl, ru = _cands(e.rhs, ctx)
        return ll + rl, [makeMax(a, b) for a in lu for b in ru]
    if isinstance(e, E.IfExpr):
        tl, tu = _cands(e.then_case, ctx)
        el, eu = _cands(e.else_case, ctx)
        return ([makeMin(a, b) for a in tl for b in el],
                [makeMax(a, b) for a in tu for b in eu])
    # Loads and anything else: no further decomposition
    return [], []


def _allowed(e: Expr, allowed_vars: Iterable[str]) -> bool:
    allowed_vars = set(allowed_vars)
    return all(v in allowed_vars for v in all_vars(e)) and not _has_load(e)


def _has_load(e: Expr) -> bool:
    if isinstance(e, Load):
        return True
    return any(_has_load(c) for c in e.children())


def tightest_bounds(e: Expr, ctx: BoundsCtx,
                    allowed_vars: Iterable[str]
                    ) -> Tuple[Optional[Expr], Optional[Expr]]:
    """The tightest inclusive (lower, upper) bounds of ``e`` using only
    ``allowed_vars`` (and constants). Either side may be None when no
    candidate qualifies.

    Sound combination: the max of all admissible lower bounds and the min
    of all admissible upper bounds.
    """
    lowers, uppers = bound_candidates(e, ctx)
    allowed_vars = set(allowed_vars)
    lo_ok = [x for x in lowers if _allowed(x, allowed_vars)]
    up_ok = [x for x in uppers if _allowed(x, allowed_vars)]
    lo = None
    for x in lo_ok:
        lo = x if lo is None else makeMax(lo, x)
    up = None
    for x in up_ok:
        up = x if up is None else makeMin(up, x)
    return lo, up


def const_bounds(e: Expr, ctx: BoundsCtx
                 ) -> Tuple[Optional[int], Optional[int]]:
    """Constant inclusive bounds of ``e`` when derivable, else None.

    The integer reading of ``tightest_bounds(e, ctx, allowed_vars=())``:
    the max of ``e``'s constant lower candidates and the min of its
    constant upper ones, found by interval recursion over the cases
    :func:`_cands` decomposes, without building a candidate tree. Each
    case combines its operands' best bounds monotonically, so the best
    bound of a combination is the combination of the best bounds. An
    unranged ``Var`` or a ``Load`` bounds nothing, so where the candidate
    path cancels a symbolic term (``n - max(n, 1)``) it finds a bound
    this does not; both are sound.
    """
    if isinstance(e, IntConst):
        return e.val, e.val
    if isinstance(e, Var):
        rng = ctx.ranges.get(e.name)
        if rng is None:
            return None, None
        lo, hi = rng
        hi_up = const_bounds(hi, ctx)[1]
        return (const_bounds(lo, ctx)[0],
                None if hi_up is None else hi_up - 1)
    if isinstance(e, (E.Add, E.Sub, E.Min, E.Max)):
        ll, lu = const_bounds(e.lhs, ctx)
        rl, ru = const_bounds(e.rhs, ctx)
        if isinstance(e, E.Add):
            return _apply(operator.add, ll, rl), _apply(operator.add, lu, ru)
        if isinstance(e, E.Sub):
            return _apply(operator.sub, ll, ru), _apply(operator.sub, lu, rl)
        if isinstance(e, E.Min):  # upper: any side's candidate bounds it
            return _apply(min, ll, rl), _either(min, lu, ru)
        return _either(max, ll, rl), _apply(max, lu, ru)
    if isinstance(e, E.Mul):
        if isinstance(e.lhs, IntConst):
            k, inner = e.lhs.val, e.rhs
        elif isinstance(e.rhs, IntConst):
            k, inner = e.rhs.val, e.lhs
        else:
            return None, None
        lo, up = const_bounds(inner, ctx)
        if k < 0:
            lo, up = up, lo
        return _apply(operator.mul, lo, k), _apply(operator.mul, up, k)
    if isinstance(e, (E.FloorDiv, E.Mod)) \
            and isinstance(e.rhs, IntConst) and e.rhs.val > 0:
        d = e.rhs.val
        if isinstance(e, E.Mod):
            return 0, d - 1
        lo, up = const_bounds(e.lhs, ctx)
        return (_apply(operator.floordiv, lo, d),
                _apply(operator.floordiv, up, d))
    if isinstance(e, E.IfExpr):
        tl, tu = const_bounds(e.then_case, ctx)
        el, eu = const_bounds(e.else_case, ctx)
        return _apply(min, tl, el), _apply(max, tu, eu)
    return None, None


def _apply(op, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """``op(a, b)``, or None unless both are known."""
    return None if a is None or b is None else op(a, b)


def _either(op, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """``op(a, b)`` over whichever of the two is known."""
    if a is None:
        return b
    return a if b is None else op(a, b)
