"""Parallelizing transformations: parallelize, unroll, blend, vectorize
(paper Table 1), with dependence-aware legality (paper 4.2.2)."""

from __future__ import annotations

from typing import List

from ..analysis import DirItem, analyzer_for
from ..errors import DependenceViolation, InvalidSchedule
from ..ir import (For, IntConst, Mutator, ReduceTo, StmtSeq, collect_stmts,
                  fresh_copy, seq, substitute, wrap)
from .common import find_loop, replace_stmt, stmts_of_body

#: accepted values for the ``parallel`` annotation
PARALLEL_KINDS = (
    "openmp",
    "cuda.blockIdx.x", "cuda.blockIdx.y", "cuda.blockIdx.z",
    "cuda.threadIdx.x", "cuda.threadIdx.y", "cuda.threadIdx.z",
)


def parallelize(func, loop_sel, kind: str = "openmp", analyzer=None):
    """Run a loop's iterations on parallel threads.

    Illegal when a non-reduction dependence is carried by the loop
    (Fig. 13(b)); same-operator reductions are allowed and lowered with
    atomic updates / parallel reduction (Fig. 13(d)/(e)).
    """
    if kind not in PARALLEL_KINDS:
        raise InvalidSchedule(
            f"unknown parallel kind {kind!r}; choose from {PARALLEL_KINDS}")
    loop = find_loop(func.body, loop_sel)
    analyzer = analyzer_for(func, analyzer)
    deps = analyzer.find(direction=[DirItem.same_loop(loop.sid, "!=")],
                         first_only=True)
    if deps:
        raise DependenceViolation(
            f"cannot parallelize {loop_sel!r}: loop-carried {deps[0]}", deps)

    # Reductions whose target outlives the loop and is updated from
    # multiple iterations must become atomic (Fig. 13(e)).
    atomic_targets = set()
    for r in collect_stmts(loop, lambda s: isinstance(s, ReduceTo)):
        carried = analyzer.find(tensors=[r.var],
                                direction=[DirItem.same_loop(loop.sid,
                                                             "!=")],
                                ignore_reduce_pairs=False,
                                first_only=True)
        if carried:
            atomic_targets.add(r.var)

    def on_loop(l: For):
        prop = l.property.clone()
        prop.parallel = kind

        class MarkAtomic(Mutator):

            def mutate_ReduceTo(self, s: ReduceTo):
                if s.atomic or s.var not in atomic_targets:
                    return s
                out = ReduceTo(s.var, s.indices, s.op, s.expr, atomic=True)
                out.sid, out.label = s.sid, s.label
                return out

        body = MarkAtomic()(l.body) if atomic_targets else l.body
        out = For(l.iter_var, l.begin, l.end, body, prop)
        out.sid, out.label = l.sid, l.label
        return out

    return replace_stmt(func, loop.sid, on_loop)


def unroll(func, loop_sel, immediate: bool = True):
    """Unroll a loop with a constant trip count into straight-line copies;
    with ``immediate=False`` only marks the loop for the backend."""
    loop = find_loop(func.body, loop_sel)
    if not immediate:
        return replace_stmt(func, loop.sid,
                            lambda l: l.with_property(unroll=True))

    if not (isinstance(loop.begin, IntConst)
            and isinstance(loop.end, IntConst)):
        raise InvalidSchedule(
            f"cannot unroll {loop_sel!r}: trip count is not a compile-time "
            f"constant")
    copies = []
    for i in range(loop.begin.val, loop.end.val):
        copies.append(
            substitute(fresh_copy(loop.body), {loop.iter_var: wrap(i)}))
    return replace_stmt(func, loop.sid, seq(copies))


def vectorize(func, loop_sel, analyzer=None):
    """Mark a loop for vector execution (NumPy kernels / SIMD / warps).

    Requires the same independence as ``parallelize``; reductions are
    allowed (lowered to vector reductions).
    """
    check_vectorize(func, loop_sel, analyzer)
    return mark_vectorize(func, loop_sel)


def check_vectorize(func, loop_sel, analyzer=None):
    """``vectorize``'s legality query: raise when the loop carries a
    dependence."""
    loop = find_loop(func.body, loop_sel)
    analyzer = analyzer_for(func, analyzer)
    deps = analyzer.find(direction=[DirItem.same_loop(loop.sid, "!=")],
                         first_only=True)
    if deps:
        raise DependenceViolation(
            f"cannot vectorize {loop_sel!r}: loop-carried {deps[0]}", deps)


def mark_vectorize(func, loop_sel):
    """``vectorize``'s marking, unchecked: callers prove legality
    themselves (the schedule search replays each candidate it measures
    through the checked primitive)."""
    loop = find_loop(func.body, loop_sel)
    return replace_stmt(func, loop.sid,
                        lambda l: l.with_property(vectorize=True))


def blend(func, loop_sel, analyzer=None):
    """Unroll a loop and interleave statement copies statement-major
    (all iterations of the first statement, then of the second, ...).

    Requires a constant trip count and fission-style legality between
    every pair of body statements.
    """
    loop = find_loop(func.body, loop_sel)
    if not (isinstance(loop.begin, IntConst)
            and isinstance(loop.end, IntConst)):
        raise InvalidSchedule(
            f"cannot blend {loop_sel!r}: trip count is not constant")
    stmts = stmts_of_body(loop.body)
    if len(stmts) < 1:
        raise InvalidSchedule("empty loop")
    from ..ir import VarDef

    if any(isinstance(s, VarDef) for s in stmts):
        raise InvalidSchedule(
            "blend across a VarDef is not supported; fission first")

    analyzer = analyzer_for(func, analyzer)
    for i, s1 in enumerate(stmts):
        for s2 in stmts[i + 1:]:
            deps = analyzer.find(
                earlier_in=s2.sid,
                later_in=s1.sid,
                direction=[DirItem.same_loop(loop.sid, ">")],
                first_only=True)
            if deps:
                raise DependenceViolation(
                    f"blend would reverse {deps[0]}", deps)

    copies = []
    for s in stmts:
        for i in range(loop.begin.val, loop.end.val):
            copies.append(substitute(fresh_copy(s),
                                     {loop.iter_var: wrap(i)}))
    return replace_stmt(func, loop.sid, seq(copies))