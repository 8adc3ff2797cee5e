"""Cleanup passes: dead-write removal and unused-variable elimination.

These run after scheduling and after automatic differentiation, where
transformations routinely leave behind writes to tensors nobody reads.
"""

from __future__ import annotations

from typing import Set

from ..ir import (AccessType, Assert, For, Func, If, Mutator, ReduceTo,
                  StmtSeq, Store, VarDef, all_loaded_tensors, collect_stmts,
                  reads_of, writes_of)
from .flatten import flatten_stmt_seq


def _live_tensors(func) -> Set[str]:
    """Tensors whose value can reach an output (transitively)."""
    defs = {d.name: d
            for d in collect_stmts(func.body,
                                   lambda s: isinstance(s, VarDef))}
    reads = reads_of(func.body)
    writes = writes_of(func.body)

    # writer statements of y read some tensors: edge x -> y
    producers = {}
    for name, stmts in writes.items():
        srcs = set()
        for st in stmts:
            if isinstance(st, (Store, ReduceTo)):
                for e in st.child_exprs():
                    srcs.update(all_loaded_tensors(e))
            else:  # LibCall
                srcs.update(getattr(st, "args", ()))
        producers[name] = srcs

    live = {n for n, d in defs.items()
            if d.atype in (AccessType.OUTPUT, AccessType.INOUT)}
    live |= set(func.returns)
    # any tensor read by an index expression of a live tensor's
    # reader/writer also matters; approximate by transitive closure over
    # producers plus tensors read anywhere by live consumers
    frontier = list(live)
    while frontier:
        t = frontier.pop()
        for src in producers.get(t, ()):
            if src not in live:
                live.add(src)
                frontier.append(src)
    # tensors read by statements that also read live tensors via indices
    # are already covered: Store indices are in child_exprs above.
    # Finally, anything read inside loop bounds / conditions stays live.
    for name in _control_reads(func):
        if name not in live:
            live.add(name)
            for src in producers.get(name, ()):
                if src not in live:
                    live.add(src)
    return live


def _control_reads(func):
    """Tensors read by control flow (loop bounds, conditions, shapes)."""
    out = set()

    def walk(s):
        if isinstance(s, For):
            for e in (s.begin, s.end):
                out.update(all_loaded_tensors(e))
        if isinstance(s, (If, Assert)):
            out.update(all_loaded_tensors(s.cond))
        if isinstance(s, VarDef):
            for e in s.shape:
                out.update(all_loaded_tensors(e))
        for c in s.children_stmts():
            walk(c)

    walk(func.body)
    return out


class _DropWrites(Mutator):

    def __init__(self, dead: Set[str]):
        self.dead = dead

    def mutate_Store(self, s: Store):
        if s.var in self.dead:
            return StmtSeq([])
        return self.generic_mutate_stmt(s)

    def mutate_ReduceTo(self, s: ReduceTo):
        if s.var in self.dead:
            return StmtSeq([])
        return self.generic_mutate_stmt(s)

    def mutate_VarDef(self, s: VarDef):
        if s.name in self.dead and s.atype is AccessType.CACHE:
            return self.mutate_stmt(s.body)
        return self.generic_mutate_stmt(s)


def remove_dead_writes(func: Func) -> Func:
    """Drop writes to (and definitions of) tensors that cannot reach an
    output; iterates to a fixed point."""
    for _ in range(10):
        live = _live_tensors(func)
        defs = {d.name: d
                for d in collect_stmts(func.body,
                                       lambda s: isinstance(s, VarDef))}
        dead = {n for n, d in defs.items()
                if n not in live and d.atype is AccessType.CACHE}
        if not dead:
            return func
        func = flatten_stmt_seq(_DropWrites(dead)(func))
    return func
