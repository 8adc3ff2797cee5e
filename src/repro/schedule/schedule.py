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
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import DepAnalyzer
from ..frontend.staging import Program
from ..ir import For, Func, Stmt, collect_stmts, dump
from . import loop_trans, mem_trans, misc_trans, parallel_trans
from .common import find_loop, find_stmt


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
        self._log: List[str] = []
        #: one persistent dependence analyzer for the whole session; each
        #: primitive refreshes it against the current tree instead of
        #: rebuilding analysis state from scratch (feasibility verdicts
        #: for unchanged subtrees are memoized by content).
        self._analyzer: Optional[DepAnalyzer] = None

    def _deps(self) -> DepAnalyzer:
        """The session's persistent analyzer, refreshed for ``self.func``."""
        if self._analyzer is None:
            self._analyzer = DepAnalyzer(self.func)
        else:
            self._analyzer.refresh(self.func)
        return self._analyzer

    # -- introspection ------------------------------------------------------
    def find(self, selector) -> Stmt:
        """The unique statement matching a sid or label."""
        return find_stmt(self.func.body, selector)

    def find_all(self, pred) -> List[Stmt]:
        return collect_stmts(self.func.body, pred)

    def loops(self) -> List[For]:
        """All loops, in pre-order."""
        return self.find_all(lambda s: isinstance(s, For))

    def normalize(self):
        """Re-run the standard lowering pipeline on the current tree
        (what the constructor does to its input). A transformation can
        leave simplifiable structure behind — e.g. a trip-1 outer loop
        after a full split — and starting a *new* session on the result
        folds it away; recording ``normalize`` as an explicit step keeps
        schedule traces replayable across such session boundaries."""
        from ..pipeline import lowering_pipeline

        self.func = lowering_pipeline(name="schedule").run(self.func)
        self._log.append("normalize()")

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
        """An independent copy (for trying alternative schedules)."""
        out = Schedule(self.func)
        out._log = list(self._log)
        return out

    @property
    def log(self) -> List[str]:
        """Human-readable record of the applied transformations."""
        return list(self._log)

    def __repr__(self):  # pragma: no cover - debugging aid
        return dump(self.func)

    # -- loop transformations ------------------------------------------------
    def split(self, loop, factor=None, nparts=None):
        """Split a loop; returns (outer_sid, inner_sid)."""
        self.func, outer, inner = loop_trans.split(self.func, loop,
                                                   factor=factor,
                                                   nparts=nparts)
        self._log.append(f"split({loop}, factor={factor}, nparts={nparts})")
        return outer, inner

    def merge(self, outer, inner):
        """Merge two perfectly nested loops; returns the merged sid."""
        self.func, merged = loop_trans.merge(self.func, outer, inner)
        self._log.append(f"merge({outer}, {inner})")
        return merged

    def reorder(self, order: List):
        """Permute a perfectly nested band into ``order``."""
        self.func = loop_trans.reorder(self.func, order,
                                       analyzer=self._deps())
        self._log.append(f"reorder({order})")

    def fission(self, loop, after):
        """Fission a loop after a statement; returns (front, back) sids."""
        self.func, front, back = loop_trans.fission(self.func, loop, after,
                                                    analyzer=self._deps())
        self._log.append(f"fission({loop}, after={after})")
        return front, back

    def fuse(self, loop0, loop1):
        """Fuse two consecutive loops; returns the fused sid."""
        self.func, fused = loop_trans.fuse(self.func, loop0, loop1,
                                           analyzer=self._deps())
        self._log.append(f"fuse({loop0}, {loop1})")
        return fused

    def swap(self, stmts: List):
        """Reorder consecutive sibling statements into the given order."""
        self.func = loop_trans.swap(self.func, stmts,
                                    analyzer=self._deps())
        self._log.append(f"swap({stmts})")

    # -- parallelizing transformations ---------------------------------------
    def parallelize(self, loop, kind: str = "openmp"):
        """Bind a loop to parallel hardware (threads / CUDA grid)."""
        self.func = parallel_trans.parallelize(self.func, loop, kind,
                                               analyzer=self._deps())
        self._log.append(f"parallelize({loop}, {kind})")

    def unroll(self, loop, immediate: bool = True):
        """Unroll a constant-trip loop."""
        self.func = parallel_trans.unroll(self.func, loop, immediate)
        self._log.append(f"unroll({loop})")

    def vectorize(self, loop):
        """Execute a loop with vector kernels / SIMD."""
        self.func = parallel_trans.vectorize(self.func, loop,
                                             analyzer=self._deps())
        self._log.append(f"vectorize({loop})")

    def blend(self, loop):
        """Unroll a loop and interleave its statements."""
        self.func = parallel_trans.blend(self.func, loop,
                                         analyzer=self._deps())
        self._log.append(f"blend({loop})")

    # -- memory transformations -----------------------------------------------
    def cache(self, stmt, tensor: str, mtype):
        """Stage a tensor region through a new buffer around ``stmt``;
        returns (fill_sid, flush_sid, cache_name)."""
        self.func, fill, flush, name = mem_trans.cache(
            self.func, stmt, tensor, mtype)
        self._log.append(f"cache({stmt}, {tensor}, {mtype})")
        return fill, flush, name

    def cache_reduction(self, stmt, tensor: str, mtype):
        """Accumulate reductions locally, then reduce back once;
        returns (init_sid, flush_sid, cache_name)."""
        self.func, init, flush, name = mem_trans.cache_reduction(
            self.func, stmt, tensor, mtype)
        self._log.append(f"cache_reduction({stmt}, {tensor}, {mtype})")
        return init, flush, name

    def set_mtype(self, tensor: str, mtype):
        """Change the memory a tensor lives in."""
        self.func = mem_trans.set_mtype(self.func, tensor, mtype)
        self._log.append(f"set_mtype({tensor}, {mtype})")

    def var_split(self, tensor: str, dim: int, factor: int):
        """Split a tensor dimension (layout)."""
        self.func = mem_trans.var_split(self.func, tensor, dim, factor)
        self._log.append(f"var_split({tensor}, {dim}, {factor})")

    def var_reorder(self, tensor: str, order: List[int]):
        """Transpose tensor dimensions (layout)."""
        self.func = mem_trans.var_reorder(self.func, tensor, order)
        self._log.append(f"var_reorder({tensor}, {order})")

    def var_merge(self, tensor: str, dim: int):
        """Merge two adjacent tensor dimensions (layout)."""
        self.func = mem_trans.var_merge(self.func, tensor, dim)
        self._log.append(f"var_merge({tensor}, {dim})")

    # -- others ------------------------------------------------------------------
    def as_lib(self, loop):
        """Replace a recognised nest with a vendor library call."""
        self.func, sid = misc_trans.as_lib(self.func, loop)
        self._log.append(f"as_lib({loop})")
        return sid

    def separate_tail(self, loop):
        """Split off boundary iterations to remove branching."""
        self.func, sids = misc_trans.separate_tail(self.func, loop)
        self._log.append(f"separate_tail({loop})")
        return sids
