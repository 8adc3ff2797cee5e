"""Performance lint (codes FT501/FT502/FT503) — findings that cost
nothing in correctness but leave measurable performance on the table:

- **FT501** provably-parallelizable sequential hot loop: an outermost
  sequential loop with no loop-carried dependence (the exact legality
  query ``schedule.parallelize`` uses) whose nest does enough work to be
  worth distributing;
- **FT502** cache-hostile innermost stride: an access site whose
  innermost loop strides a non-contiguous dimension (or a constant
  stride past the prefetch-friendly range) often enough to matter —
  usually fixed by ``reorder``;
- **FT503** loop-invariant recomputation: a stored expression that
  depends on none of its innermost enclosing loops' iterators and reads
  nothing written inside them — hoistable out of the loop.

All FT5xx findings are **info** severity: they describe optimization
opportunities, not mistakes, and the default ``verify()`` report
(level="warning") does not run them. Ask for them with
``verify(f, level="info")``, ``perf_lint(f)`` or the CLI's ``--cost``.
"""

from __future__ import annotations

from typing import List, Set

from ...ir import all_vars
from ...ir import stmt as S
from ..deps import DepAnalyzer, DirItem
from ..verify.diagnostics import Diagnostic, ir_path

#: minimum ops a loop nest must execute for FT501 ("hot")
HOT_LOOP_OPS = 256
#: minimum execution count of a hostile-stride site for FT502
HOT_STRIDE_EXECS = 256
#: minimum countable ops in an invariant stored expression for FT503
INVARIANT_MIN_OPS = 2
#: minimum trip count of the loop the recomputation rides in for FT503
INVARIANT_MIN_TRIP = 8


def check_perf(func: S.Func, backend: str = "pycode",
               target=None) -> List[Diagnostic]:
    """All performance-lint findings for one function."""
    from .api import analyze_cost

    est = analyze_cost(func, backend=backend, target=target)
    diags: List[Diagnostic] = []
    diags.extend(_check_parallelizable(func, est))
    diags.extend(_check_strides(func, est))
    diags.extend(_check_invariant_recompute(func, est))
    return diags


# -- FT501 ------------------------------------------------------------------


def _check_parallelizable(func: S.Func, est) -> List[Diagnostic]:
    rows = {l.sid: l for l in est.loops}
    analyzer = DepAnalyzer(func)
    diags: List[Diagnostic] = []

    def walk(s: S.Stmt):
        if isinstance(s, S.For):
            if s.property.parallel or s.property.vectorize:
                return  # this nest already exploits hardware parallelism
            row = rows.get(s.sid)
            if row is not None and row.total_ops >= HOT_LOOP_OPS \
                    and row.trip > 1:
                carried = analyzer.find(
                    direction=[DirItem.same_loop(s.sid, "!=")],
                    first_only=True)
                if not carried:
                    diags.append(Diagnostic(
                        "FT501", "info",
                        f"hot sequential loop over '{s.iter_var}' "
                        f"(~{row.total_ops} ops, trip {row.trip}) carries "
                        f"no dependence and could be parallelized",
                        stmt=s, path=ir_path(func, s.sid)))
                    return  # parallelizing this loop covers the nest
        for c in s.children_stmts():
            walk(c)

    walk(func.body)
    return diags


# -- FT502 ------------------------------------------------------------------


def _check_strides(func: S.Func, est) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    seen: Set[str] = set()
    for a, cls, stride, execs in est.stride_sites:
        if execs < HOT_STRIDE_EXECS:
            continue
        key = f"{a.stmt.sid}:{a.tensor}"
        if key in seen:
            continue
        seen.add(key)
        inner = a.loops[-1].iter_var if a.loops else "?"
        how = f"stride {stride} elements" if stride is not None \
            else "a whole outer dimension per step"
        diags.append(Diagnostic(
            "FT502", "info",
            f"access to {a.tensor!r} jumps {how} along innermost loop "
            f"'{inner}' (~{execs} times); reordering the loop nest "
            f"would restore contiguous traversal",
            stmt=a.stmt, tensor=a.tensor,
            path=ir_path(func, a.stmt.sid)))
    return diags


# -- FT503 ------------------------------------------------------------------


def _check_invariant_recompute(func: S.Func, est) -> List[Diagnostic]:
    trips = {l.sid: l.trip for l in est.loops}
    diags: List[Diagnostic] = []

    def written_under(loop: S.For) -> Set[str]:
        out: Set[str] = set()

        def walk(s: S.Stmt):
            if isinstance(s, (S.Store, S.ReduceTo)):
                out.add(s.var)
            for c in s.children_stmts():
                walk(c)

        walk(loop.body)
        return out

    def expr_ops(e) -> int:
        from .model import Counts
        from .count import count_expr

        c = Counts()
        count_expr(e, c)
        return c.total_ops()

    def loads_of(e) -> Set[str]:
        from ...ir import expr as E

        out: Set[str] = set()

        def walk(x):
            if isinstance(x, E.Load):
                out.add(x.var)
            for ch in x.children():
                walk(ch)

        walk(e)
        return out

    def walk(s: S.Stmt, loops):
        if isinstance(s, S.For):
            for c in s.children_stmts():
                walk(c, loops + (s,))
            return
        if isinstance(s, (S.Store, S.ReduceTo)) and loops:
            inner = loops[-1]
            vs = set(all_vars(s.expr))
            for i in s.indices:
                vs |= set(all_vars(i))
            if inner.iter_var not in vs \
                    and trips.get(inner.sid, 0) >= INVARIANT_MIN_TRIP \
                    and expr_ops(s.expr) >= INVARIANT_MIN_OPS \
                    and not (loads_of(s.expr) & written_under(inner)):
                diags.append(Diagnostic(
                    "FT503", "info",
                    f"value stored to {s.var!r} is recomputed identically "
                    f"on every iteration of loop '{inner.iter_var}' "
                    f"(trip {trips.get(inner.sid)}); hoist it out",
                    stmt=s, tensor=s.var,
                    path=ir_path(func, s.sid)))
            return
        for c in s.children_stmts():
            walk(c, loops)

    walk(func.body, ())
    return diags
