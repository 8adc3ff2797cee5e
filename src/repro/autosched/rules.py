"""The rule-based auto-scheduler (paper section 4.3).

Six passes run in the paper's order — ``auto_fuse``, ``auto_vectorize``,
``auto_parallelize``, ``auto_mem_type``, ``auto_use_lib``, ``auto_unroll``
— each *trying* transformations and letting dependence analysis veto the
illegal ones ("we can aggressively try transformations without worrying
about their correctness").
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import InvalidSchedule
from ..ir import For, Func, IntConst, StmtSeq, VarDef, collect_stmts
from ..schedule import Schedule
from ..schedule.common import only_stmt_of, parent_of
from .target import (BLOCK_SIZE, MAX_LOCAL_ELEMS, MAX_SHARED_ELEMS,
                     UNROLL_LIMIT, Target, default_target)


def auto_schedule(program_or_func, target: Optional[Target] = None,
                  backend: Optional[str] = None,
                  passes: Optional[List[str]] = None,
                  times=None) -> Func:
    """Apply the automatic transformation pipeline; returns a new Func.

    The rule passes run as one pass-manager :class:`~repro.pipeline.Pipeline`
    (they share this Schedule session), followed by the standard
    lowering and the backend's declared legalization passes, so per-pass
    timing, ``REPRO_DUMP_IR`` snapshots and
    ``REPRO_VERIFY_EACH_PASS`` cover every rule individually. ``times``,
    when given, accumulates per-pass wall-clock seconds.
    """
    from ..pipeline import Pass, Pipeline, build_pipeline

    if target is None:
        target = default_target(backend or "pycode")
    enabled = passes if passes is not None else [
        "fuse", "vectorize", "parallelize", "mem_type", "use_lib",
        "unroll",
    ]
    s = Schedule(program_or_func)
    rules = (
        ("fuse", auto_fuse, ()),
        ("vectorize", auto_vectorize, ()),
        ("parallelize", auto_parallelize, (target,)),
        ("mem_type", auto_mem_type, (target,)),
        ("use_lib", auto_use_lib, ()),
        ("unroll", auto_unroll, ()),
    )

    def rule_pass(fn, args):
        # rule passes transform the shared Schedule session; the session's
        # current tree is by construction the previous pass's output
        def run(_func):
            fn(s, *args)
            return s.func

        return run

    rule_passes = [Pass("auto_" + key, rule_pass(fn, args))
                   for key, fn, args in rules if key in enabled]
    tail = build_pipeline(backend=backend or "pycode")
    pipe = Pipeline(rule_passes + tail.passes, name="autosched")
    return pipe.run(s.func, times=times)


# ---------------------------------------------------------------------------


def _sibling_loop_pairs(func):
    """(loop, next_loop) pairs that are plausibly fusable: consecutive
    siblings, or separated only by VarDef scopes."""
    pairs = []
    loops = collect_stmts(func.body, lambda s: isinstance(s, For))
    for l in loops:
        parent = parent_of(func.body, l.sid)
        if not isinstance(parent, StmtSeq):
            continue
        idx = next((i for i, c in enumerate(parent.stmts)
                    if c.sid == l.sid), None)
        if idx is None:
            continue
        # the immediate next loop in program order, skipping into VarDefs
        rest = parent.stmts[idx + 1:]
        nxt = _first_loop_through_defs(rest)
        if nxt is not None:
            pairs.append((l.sid, nxt.sid))
    return pairs


def _first_loop_through_defs(stmts):
    for s in stmts:
        if isinstance(s, For):
            return s
        if isinstance(s, VarDef):
            return _first_loop_through_defs(
                s.body.stmts if isinstance(s.body, StmtSeq) else [s.body])
        if isinstance(s, StmtSeq):
            inner = _first_loop_through_defs(s.stmts)
            if inner is not None:
                return inner
            continue
        return None  # a non-loop statement intervenes: let fuse decide
    return None


def auto_fuse(s: Schedule, max_rounds: int = 20):
    """Fuse nearby loops to increase locality (pass 1)."""
    for _ in range(max_rounds):
        for a, b in _sibling_loop_pairs(s.func):
            try:
                s.fuse(a, b)
                break  # structure changed: recompute pairs
            except InvalidSchedule:
                continue
        else:
            return


def _innermost_loops(func) -> List[For]:
    out = []
    for l in collect_stmts(func.body, lambda s: isinstance(s, For)):
        if not collect_stmts(l.body, lambda s: isinstance(s, For)):
            out.append(l)
    return out


def auto_vectorize(s: Schedule):
    """Vectorize dependence-free innermost loops (pass 2).

    Very short constant loops are left alone — ``auto_unroll`` (pass 6)
    turns those into straight-line code instead, which beats a 3-lane
    vector op."""
    for l in _innermost_loops(s.func):
        if isinstance(l.begin, IntConst) and isinstance(l.end, IntConst) \
                and l.end.val - l.begin.val <= UNROLL_LIMIT:
            continue
        try:
            s.vectorize(l.sid)
        except InvalidSchedule:
            continue


def _outermost_loops(func) -> List[For]:
    out = []

    def walk(node, inside_loop):
        if isinstance(node, For):
            if not inside_loop:
                out.append(node)
            walk(node.body, True)
            return
        for c in node.children_stmts():
            walk(c, inside_loop)

    walk(func.body, False)
    return out


def auto_parallelize(s: Schedule, target: Target):
    """Bind outer loops to hardware parallelism (pass 3)."""
    for outer in _outermost_loops(s.func):
        try:
            outer = s.find(outer.sid)
        except InvalidSchedule:
            continue  # consumed by an earlier restructuring
        if target.kind == "cpu":
            _parallelize_cpu(s, outer)
        else:
            _parallelize_gpu(s, outer)


def _merge_chain(s: Schedule, outer: For,
                 const_only: bool = False) -> str:
    """Merge a perfect rectangular nest under ``outer`` as deep as
    possible; returns the resulting loop sid.

    With ``const_only``, only merge loops of constant extent: merging a
    symbolic-extent inner loop introduces ``// n`` / ``% n`` by a symbol,
    which is outside the (linear) polyhedral model and would block later
    legality proofs.
    """
    sid = outer.sid
    while True:
        loop = s.find(sid)
        inner = only_stmt_of(loop)
        if not isinstance(inner, For):
            return sid
        if const_only and not isinstance(inner.len, IntConst):
            return sid
        try:
            sid = s.merge(sid, inner.sid)
        except InvalidSchedule:
            return sid


def _parallelize_cpu(s: Schedule, outer: For):
    sid = outer.sid
    try:
        s.parallelize(sid, "openmp")
        return
    except InvalidSchedule:
        pass
    # the outer loop carries a dependence: try one level further in
    loop = s.find(sid)
    inner = only_stmt_of(loop)
    if isinstance(inner, For):
        try:
            s.parallelize(inner.sid, "openmp")
        except InvalidSchedule:
            pass


def _parallelize_gpu(s: Schedule, outer: For):
    sid = _merge_chain(s, outer, const_only=True)
    loop = s.find(sid)
    inner = only_stmt_of(loop)
    # Prefer binding an existing 2-level nest directly: outer loop to the
    # grid, inner loop to the block (keeps all indices affine).
    if isinstance(inner, For):
        probe = s.fork()
        try:
            probe.parallelize(sid, "cuda.blockIdx.x")
            probe.parallelize(inner.sid, "cuda.threadIdx.x")
            s.parallelize(sid, "cuda.blockIdx.x")
            s.parallelize(inner.sid, "cuda.threadIdx.x")
            return
        except InvalidSchedule:
            pass
    # Otherwise tile the (possibly merged) loop into (blocks, threads).
    try:
        blk, thr = s.split(sid, factor=BLOCK_SIZE)
    except InvalidSchedule:
        return
    try:
        s.parallelize(blk, "cuda.blockIdx.x")
        s.parallelize(thr, "cuda.threadIdx.x")
    except InvalidSchedule:
        pass  # a carried dependence: stays a sequential host loop


def auto_mem_type(s: Schedule, target: Target):
    """Move tensors toward the processor (pass 4): registers over
    scratchpad over main memory."""
    if target.kind != "gpu":
        return
    from ..schedule.common import path_to

    for vd in collect_stmts(s.func.body,
                            lambda x: isinstance(x, VarDef)):
        if vd.atype.value != "cache":
            continue
        size = 1
        const = True
        for d in vd.shape:
            if isinstance(d, IntConst):
                size *= d.val
            else:
                const = False
                break
        if not const:
            continue
        try:
            path = path_to(s.func.body, vd.sid)
        except InvalidSchedule:
            continue
        kinds = {l.property.parallel for l in path
                 if isinstance(l, For) and l.property.parallel}
        in_thread = any(k and k.startswith("cuda.threadIdx")
                        for k in kinds)
        in_block = any(k and k.startswith("cuda.blockIdx")
                       for k in kinds)
        try:
            if in_thread and size <= MAX_LOCAL_ELEMS:
                s.set_mtype(vd.name, "gpu/local")
            elif in_block and size <= MAX_SHARED_ELEMS:
                s.set_mtype(vd.name, "gpu/shared")
        except InvalidSchedule:  # pragma: no cover - defensive
            continue


def auto_use_lib(s: Schedule):
    """Replace recognised compute-intensive nests with library calls
    (pass 5). Loops already inside parallel regions stay as device code:
    a per-thread library call is not a library call."""
    from ..schedule.common import loops_on_path

    for l in collect_stmts(s.func.body, lambda x: isinstance(x, For)):
        try:
            if any(p.property.parallel
                   for p in loops_on_path(s.func.body, l.sid)):
                continue
            s.as_lib(l.sid)
        except InvalidSchedule:
            continue


def auto_unroll(s: Schedule):
    """Unroll very short loops (pass 6)."""
    changed = True
    while changed:
        changed = False
        for l in collect_stmts(s.func.body, lambda x: isinstance(x, For)):
            if not (isinstance(l.begin, IntConst)
                    and isinstance(l.end, IntConst)):
                continue
            trip = l.end.val - l.begin.val
            if not (0 < trip <= UNROLL_LIMIT):
                continue
            if l.property.parallel or l.property.vectorize:
                continue
            from ..ir import count_nodes

            if count_nodes(l.body) > 60:
                continue
            try:
                s.unroll(l.sid)
                changed = True
                break
            except InvalidSchedule:
                continue
