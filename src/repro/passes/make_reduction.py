"""Recognise ``x[i] = x[i] op e`` stores as ReduceTo nodes.

The ReduceTo form is what lets dependence analysis exploit commutativity
(paper Fig. 12(c)), parallel backends use atomics, and AD treat
accumulations without versioning the accumulator.
"""

from __future__ import annotations

from ..ir import (Load, Max, Min, Mutator, ReduceTo, Store, same_expr)
from ..ir import expr as E


def _self_load(store: Store, e) -> bool:
    return (isinstance(e, Load) and e.var == store.var
            and len(e.indices) == len(store.indices)
            and all(same_expr(a, b)
                    for a, b in zip(e.indices, store.indices)))


class _MakeReduction(Mutator):

    def mutate_Store(self, s: Store):
        red = self._recognise(s)
        return red if red is not None else s

    @staticmethod
    def _recognise(s: Store):
        e = s.expr
        # x = x + v  |  x = v + x
        if isinstance(e, E.Add):
            for a, b in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if _self_load(s, a) and not _reads(b, s.var):
                    out = ReduceTo(s.var, s.indices, "+", b)
                    out.sid, out.label = s.sid, s.label
                    return out
        # x = x - v
        if isinstance(e, E.Sub) and _self_load(s, e.lhs) \
                and not _reads(e.rhs, s.var):
            out = ReduceTo(s.var, s.indices, "+", -e.rhs)
            out.sid, out.label = s.sid, s.label
            return out
        # x = x * v | x = v * x
        if isinstance(e, E.Mul):
            for a, b in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if _self_load(s, a) and not _reads(b, s.var):
                    out = ReduceTo(s.var, s.indices, "*", b)
                    out.sid, out.label = s.sid, s.label
                    return out
        # x = min(x, v) / max(x, v)
        if isinstance(e, (Min, Max)):
            op = "min" if isinstance(e, Min) else "max"
            for a, b in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                if _self_load(s, a) and not _reads(b, s.var):
                    out = ReduceTo(s.var, s.indices, op, b)
                    out.sid, out.label = s.sid, s.label
                    return out
        return None


def _reads(e, name: str) -> bool:
    if isinstance(e, Load) and e.var == name:
        return True
    return any(_reads(c, name) for c in e.children())


def make_reduction(node):
    """Convert self-referencing stores into ReduceTo where possible."""
    return _MakeReduction()(node)
