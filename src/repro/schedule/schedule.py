"""The user-facing Schedule object: a Func plus a fluent, checked API for
every transformation in the paper's Table 1.

Every method validates legality with dependence analysis (raising
:class:`~repro.errors.InvalidSchedule` /
:class:`~repro.errors.DependenceViolation` on conflict), mutates an
internal copy of the program, and returns statement ids so follow-up
transformations can target the results::

    s = Schedule(program)
    outer, inner = s.split("main_loop", factor=32)
    s.parallelize(outer, "openmp")
    s.vectorize(inner)
    exe = build(s.func, backend="pycode")

Each primitive that succeeds appends one step to ``s.trace``, a
:class:`~repro.schedule.trace.ScheduleTrace` that replays the session on
a fresh ``Schedule`` of the same program.
"""

from __future__ import annotations

import copy
import functools
from typing import List, Optional

from ..analysis import DepAnalyzer
from ..frontend.staging import Program
from ..ir import For, Func, Stmt, collect_stmts, dump
from . import loop_trans, mem_trans, misc_trans, parallel_trans
from .common import find_stmt
from .trace import ScheduleTrace


def _primitive(*stmt_params, prim=None):
    """Make a method a recorded primitive: once it returns, it appends one
    step to ``self.trace``, its name (or ``prim``) and the arguments it
    was called with, each of ``stmt_params`` (a statement selector or a
    list of them) as ``{"$stmt": k}`` on the tree before the step. A
    primitive that raises records nothing."""

    def wrap(method):
        code = method.__code__
        params = code.co_varnames[1:code.co_argcount]

        @functools.wraps(method)
        def run(self, *args, **kwargs):
            before = self.func
            out = method(self, *args, **kwargs)
            args = dict(zip(params, args), **kwargs)
            if stmt_params:
                sids = self._preorder(before)

                def ref(sel):
                    sel = getattr(sel, "sid", sel)
                    if sel not in sids:  # a label
                        sel = find_stmt(before.body, sel).sid
                    return {"$stmt": sids.index(sel)}

                for p in stmt_params:
                    v = args[p]
                    args[p] = [ref(x) for x in v] \
                        if isinstance(v, (list, tuple)) else ref(v)
            self.trace.steps.append({"prim": prim or method.__name__,
                                     "args": args})
            return out

        return run

    return wrap


class Schedule:
    """A scheduling session over one program."""

    def __init__(self, program_or_func):
        if isinstance(program_or_func, Program):
            func = program_or_func.func
        elif isinstance(program_or_func, Func):
            func = program_or_func
        else:
            raise TypeError("Schedule needs a Program or Func")
        # normalise through the standard lowering Pipeline before any
        # transformation: its lowering memo makes repeat sessions over
        # the same program (tuner rounds) effectively free
        from ..pipeline import lowering_pipeline

        self.func = lowering_pipeline(name="schedule").run(func)
        #: the applied primitives, replayable on ``Schedule(program)``
        self.trace = ScheduleTrace()
        #: one persistent dependence analyzer for the whole session; each
        #: primitive refreshes it against the current tree instead of
        #: rebuilding analysis state from scratch (feasibility verdicts
        #: for unchanged subtrees are memoized by content).
        self._analyzer: Optional[DepAnalyzer] = None
        #: (tree, its statements' sids in pre-order) of the last tree a step
        #: was recorded or replayed on
        self._walk = (None, None)

    def _deps(self) -> DepAnalyzer:
        """The session's persistent analyzer, refreshed for ``self.func``."""
        if self._analyzer is None:
            self._analyzer = DepAnalyzer(self.func)
        else:
            self._analyzer.refresh(self.func)
        return self._analyzer

    def _preorder(self, func: Func) -> List[str]:
        """The sids of ``func``'s statements in pre-order, kept for the
        last tree (trees are never written): a replayed step resolves its
        references and is recorded from one walk."""
        if self._walk[0] is not func:
            self._walk = (func, [st.sid for st in
                                 collect_stmts(func.body, lambda s: True)])
        return self._walk[1]

    # -- introspection ------------------------------------------------------
    def find(self, selector) -> Stmt:
        """The unique statement matching a sid or label."""
        return find_stmt(self.func.body, selector)

    def find_all(self, pred) -> List[Stmt]:
        return collect_stmts(self.func.body, pred)

    def loops(self) -> List[For]:
        """All loops, in pre-order."""
        return self.find_all(lambda s: isinstance(s, For))

    @_primitive()
    def normalize(self):
        """Re-run the standard lowering pipeline on the current tree
        (what the constructor does to its input). A transformation can
        leave simplifiable structure behind — e.g. a trip-1 outer loop
        after a full split — and starting a *new* session on the result
        folds it away; recording ``normalize`` as an explicit step keeps
        schedule traces replayable across such session boundaries."""
        from ..pipeline import lowering_pipeline

        self.func = lowering_pipeline(name="schedule").run(self.func)

    def verify(self, level: str = "warning"):
        """Run the whole-program verifier (``repro.verify``) on the
        current state of the schedule and return its
        :class:`~repro.analysis.verify.diagnostics.Diagnostics` report.

        Useful for cross-validating a sequence of transformations: every
        primitive already checks its own legality, but ``verify()``
        re-derives races, bounds and def-use facts from the tree as it
        stands, independent of the per-primitive verdicts.
        """
        from ..analysis.verify import verify as run_verifier

        return run_verifier(self.func, level=level)

    def fork(self) -> "Schedule":
        """An independent copy (for trying alternative schedules): the
        same tree and a copy of the trace, with an analyzer of its own."""
        out = copy.copy(self)
        out.trace = ScheduleTrace(self.trace.steps)
        out._analyzer = None
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return dump(self.func)

    # -- loop transformations ------------------------------------------------
    @_primitive("loop")
    def split(self, loop, factor=None, nparts=None):
        """Split a loop; returns (outer_sid, inner_sid)."""
        self.func, outer, inner = loop_trans.split(self.func, loop,
                                                   factor=factor,
                                                   nparts=nparts)
        return outer, inner

    @_primitive("outer", "inner")
    def merge(self, outer, inner):
        """Merge two perfectly nested loops; returns the merged sid."""
        self.func, merged = loop_trans.merge(self.func, outer, inner)
        return merged

    @_primitive("order")
    def reorder(self, order: List):
        """Permute a perfectly nested band into ``order``."""
        self.func = loop_trans.reorder(self.func, order,
                                       analyzer=self._deps())

    @_primitive("loop", "after")
    def fission(self, loop, after):
        """Fission a loop after a statement; returns (front, back) sids."""
        self.func, front, back = loop_trans.fission(self.func, loop, after,
                                                    analyzer=self._deps())
        return front, back

    @_primitive("loop0", "loop1")
    def fuse(self, loop0, loop1):
        """Fuse two consecutive loops; returns the fused sid."""
        self.func, fused = loop_trans.fuse(self.func, loop0, loop1,
                                           analyzer=self._deps())
        return fused

    @_primitive("stmts")
    def swap(self, stmts: List):
        """Reorder consecutive sibling statements into the given order."""
        self.func = loop_trans.swap(self.func, stmts,
                                    analyzer=self._deps())

    # -- parallelizing transformations ---------------------------------------
    @_primitive("loop")
    def parallelize(self, loop, kind: str = "openmp"):
        """Bind a loop to parallel hardware (threads / CUDA grid)."""
        self.func = parallel_trans.parallelize(self.func, loop, kind,
                                               analyzer=self._deps())

    @_primitive("loop")
    def unroll(self, loop, immediate: bool = True):
        """Unroll a constant-trip loop."""
        self.func = parallel_trans.unroll(self.func, loop, immediate)

    @_primitive("loop")
    def vectorize(self, loop):
        """Execute a loop with vector kernels / SIMD."""
        self.func = parallel_trans.vectorize(self.func, loop,
                                             analyzer=self._deps())

    @_primitive("loop", prim="vectorize")
    def _mark_vectorize(self, loop):
        """``vectorize`` without its dependence check, recorded as the
        ``vectorize`` step it replays as: the schedule search marks its
        candidates this way and proves one legal by replaying its trace
        before measuring it."""
        self.func = parallel_trans.mark_vectorize(self.func, loop)

    @_primitive("loop")
    def blend(self, loop):
        """Unroll a loop and interleave its statements."""
        self.func = parallel_trans.blend(self.func, loop,
                                         analyzer=self._deps())

    # -- memory transformations -----------------------------------------------
    @_primitive("stmt")
    def cache(self, stmt, tensor: str, mtype):
        """Stage a tensor region through a new buffer around ``stmt``;
        returns (fill_sid, flush_sid, cache_name)."""
        self.func, fill, flush, name = mem_trans.cache(
            self.func, stmt, tensor, mtype)
        return fill, flush, name

    @_primitive("stmt")
    def cache_reduction(self, stmt, tensor: str, mtype):
        """Accumulate reductions locally, then reduce back once;
        returns (init_sid, flush_sid, cache_name)."""
        self.func, init, flush, name = mem_trans.cache_reduction(
            self.func, stmt, tensor, mtype)
        return init, flush, name

    @_primitive()
    def set_mtype(self, tensor: str, mtype):
        """Change the memory a tensor lives in."""
        self.func = mem_trans.set_mtype(self.func, tensor, mtype)

    @_primitive()
    def var_split(self, tensor: str, dim: int, factor: int):
        """Split a tensor dimension (layout)."""
        self.func = mem_trans.var_split(self.func, tensor, dim, factor)

    @_primitive()
    def var_reorder(self, tensor: str, order: List[int]):
        """Transpose tensor dimensions (layout)."""
        self.func = mem_trans.var_reorder(self.func, tensor, order)

    @_primitive()
    def var_merge(self, tensor: str, dim: int):
        """Merge two adjacent tensor dimensions (layout)."""
        self.func = mem_trans.var_merge(self.func, tensor, dim)

    # -- others ------------------------------------------------------------------
    @_primitive("loop")
    def as_lib(self, loop):
        """Replace a recognised nest with a vendor library call."""
        self.func, sid = misc_trans.as_lib(self.func, loop)
        return sid

    @_primitive("loop")
    def separate_tail(self, loop):
        """Split off boundary iterations to remove branching."""
        self.func, sids = misc_trans.separate_tail(self.func, loop)
        return sids
