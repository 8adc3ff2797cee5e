"""The static cost walker: trip counts, op counts, traffic, parallelism.

One pass over a lowered ``Func`` computes a :class:`.model.CostEstimate`
without executing anything:

- **trip counts** come from ``analysis.bounds``: the loop length
  ``end - begin`` is bounded symbolically under the enclosing iterator
  ranges plus the caller's scalar environment; when no constant bound
  exists (CSR neighbour loops — the extent lives in ``indptr`` data) an
  interval fallback of ``ASSUMED_TRIP`` iterations is used and the
  estimate is demoted from *sound* to *approximate*;
- **op counts** mirror the interpreter's dynamic semantics node for node
  (same ``op_category``, branch maxima for ``If``/``IfExpr``, an
  over-count allowance for short-circuited ``LAnd``/``LOr``), so the
  ``Interpreter(op_counts=...)`` oracle can check them for equality on exact
  programs and for the upper-bound direction on sound ones;
- **parallelism** discounts the ``seq`` axis through the backend's
  declared capabilities (``Target.capabilities``): a loop annotation the
  backend ignores buys nothing, one it honours divides the sequential
  trip by the hardware lane count;
- **traffic** re-walks the access sites (``analysis.access``) for
  per-tensor element counts, a reuse-discounted distinct-element
  estimate, and an innermost-stride classification per site.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Tuple

from ...backend import backend_caps
from ...ir import AccessType, all_vars, defined_tensors, makeSub, wrap
from ...ir import expr as E
from ...ir import stmt as S
from ..access import Access, collect_accesses
from ..bounds import BoundsCtx, const_bounds
from .model import (LIB_CALL_SEQ, STRIDE_ORDER, Counts, CostEstimate,
                    LoopCost, TensorTraffic, op_category)

#: |elementwise stride| at which an innermost access stops prefetching
#: usefully on real hardware (8 × f32 = one 32-byte sector per element)
HOSTILE_STRIDE = 8

#: modeled dispatch overhead (scalar-op units) of lowering a vectorized
#: loop to one whole-width NumPy kernel. Kernel dispatch (index-vector
#: construction, ufunc setup) costs on the order of dozens of
#: interpreted scalar ops, so vectorizing a short loop is modeled as
#: a net loss — matching measurement, where only trips past a few
#: dozen elements amortize the dispatch.
VEC_KERNEL_SEQ = 80.0

#: modeled per-element throughput advantage of a whole-loop NumPy kernel
#: over the interpreted scalar loop it replaces. The kernel still
#: touches every element — memory traffic and ufunc inner loops scale
#: with the trip count — so vectorization is a constant-factor discount,
#: not a free pass (dispatch overhead is VEC_KERNEL_SEQ on top).
VEC_WHOLE_WIDTH = 16

#: iterations assumed for a loop whose trip count has no constant bound
#: (CSR neighbour loops: the extent lives in data); the estimate is then
#: approximate, not sound
ASSUMED_TRIP = 8


def count_expr(e: E.Expr, c: Counts) -> bool:
    """Accumulate the ops of one evaluation of ``e`` into ``c``; returns
    True when the count is exact (equals any dynamic evaluation)."""
    if isinstance(e, (E.Const, E.Var, E.AnyExpr)):
        return True
    if isinstance(e, E.Load):
        exact = True
        for i in e.indices:
            exact &= count_expr(i, c)
        c.note("loads")
        c.tensor_read(e.var)
        return exact
    if isinstance(e, E.IfExpr):
        exact = count_expr(e.cond, c)
        t, f = Counts(), Counts()
        te = count_expr(e.then_case, t)
        fe = count_expr(e.else_case, f)
        c.add(Counts.maxed(t, f))
        return exact and te and fe and t.same_totals(f)
    if isinstance(e, (E.LAnd, E.LOr)):
        # the interpreter short-circuits: the rhs may never evaluate, so
        # counting it is an over-approximation unless it is free
        exact = count_expr(e.lhs, c)
        r = Counts()
        re_ = count_expr(e.rhs, r)
        c.add(r)
        c.note("int_ops")
        return exact and re_ and r.total_ops() == 0
    if isinstance(e, E.LNot):
        exact = count_expr(e.operand, c)
        c.note("int_ops")
        return exact
    if isinstance(e, E.Cast):
        return count_expr(e.operand, c)
    if isinstance(e, E.Intrinsic):
        exact = True
        for a in e.args:
            exact &= count_expr(a, c)
        c.note("flops")
        return exact
    cat = op_category(e)
    exact = True
    for ch in e.children():
        exact &= count_expr(ch, c)
    if cat is not None:
        c.note(cat)
    return exact


class _Walker:
    """Statement walk producing per-execution :class:`Counts`."""

    def __init__(self, func: S.Func, caps, scalar_env: Dict[str, int]):
        self.caps = caps
        self.params = set(func.params)
        self.trips: Dict[str, Tuple[int, bool]] = {}
        #: iterator name -> trip count of the *currently open* loops,
        #: innermost wins (used by the guard-frequency analysis)
        self.var_trips: Dict[str, int] = {}
        self.loops: List[LoopCost] = []
        self.sound = True
        base = BoundsCtx()
        for k, v in sorted(scalar_env.items()):
            base = base.with_loop(k, wrap(int(v)), wrap(int(v) + 1))
        self.base_ctx = base

    def trip_of(self, s: S.For, ctx: BoundsCtx) -> Tuple[int, bool]:
        lo, up = const_bounds(makeSub(s.end, s.begin), ctx)
        if up is None:
            self.sound = False
            return ASSUMED_TRIP, False
        up = max(0, up)
        return up, (lo is not None and max(0, lo) == up)

    def _vec_honored(self, s: S.For) -> bool:
        """Whether the backend will actually vectorize ``s`` — the code
        generators silently fall back to a plain loop on shapes their
        lowering cannot handle, and the model must charge the fallback."""
        f = self.caps.vec_feasible
        return f is None or bool(f(s))

    def seq_trip(self, s: S.For, trip: int, vec_ok: bool) -> float:
        prop = s.property
        if prop.parallel:
            cap = self.caps.capacity(prop.parallel)
            if cap is None:
                return 1.0
            return float(ceil(trip / max(1, cap))) if trip else 0.0
        if prop.vectorize and vec_ok:
            w = self.caps.vector_width
            if w is None:  # whole-loop kernel (NumPy vector backends);
                # the per-element discount is the model default unless
                # the backend's declared caps override it
                w = self.caps.vec_whole_width or VEC_WHOLE_WIDTH
            return float(ceil(trip / max(1, w))) if trip else 0.0
        return float(trip)

    def _guard_frac(self, cond: E.Expr,
                    ctx: BoundsCtx) -> Optional[float]:
        """Sound upper bound on the fraction of evaluations on which an
        else-less guard holds, or None when nothing is provable.

        For ``a (<|<=|>|>=) b``, direction-normalised to "holds iff
        ``d <= thr``" with ``d = a - b``, interval analysis under the
        enclosing loop ranges gives ``d ∈ [lo, up]``, of which ``S``
        integers satisfy the guard. If some open loop iterator ``v``
        appears in ``d`` with coefficient ±1, then for any fixed
        assignment of the other variables ``d`` sweeps ``trip(v)``
        *consecutive* integers inside ``[lo, up]`` — at most ``S`` of
        them satisfying — so the guard holds on at most
        ``min(1, S / trip(v))`` of the v-iterations, uniformly over the
        outer ones. The smallest such bound over eligible iterators is
        returned; conjunctions take the min of their sides (an
        intersection is no larger than either set)."""
        if isinstance(cond, E.LAnd):
            a = self._guard_frac(cond.lhs, ctx)
            b = self._guard_frac(cond.rhs, ctx)
            if a is None:
                return b
            return a if b is None else min(a, b)
        if isinstance(cond, (E.LT, E.LE)):
            d = makeSub(cond.lhs, cond.rhs)
            thr = -1 if isinstance(cond, E.LT) else 0
        elif isinstance(cond, (E.GT, E.GE)):
            d = makeSub(cond.rhs, cond.lhs)
            thr = -1 if isinstance(cond, E.GT) else 0
        else:
            return None
        lo, up = const_bounds(d, ctx)
        if lo is None or up is None:
            return None
        if up <= thr:
            return 1.0
        if lo > thr:
            return 0.0
        sat = thr - lo + 1  # integers of [lo, up] satisfying d <= thr
        best = None
        for v, trip in self.var_trips.items():
            if trip <= 1:
                continue
            k = _linear_coeff(d, v)
            if k is not None and abs(k) == 1:
                frac = min(1.0, sat / trip)
                best = frac if best is None else min(best, frac)
        return best

    def walk(self, s: S.Stmt, ctx: BoundsCtx,
             execs: int) -> Tuple[Counts, bool]:
        c = Counts()
        if isinstance(s, S.StmtSeq):
            exact = True
            for ch in s.stmts:
                cc, e = self.walk(ch, ctx, execs)
                c.add(cc)
                exact &= e
            return c, exact
        if isinstance(s, S.VarDef):
            exact = True
            if s.name not in self.params:
                # the runtime evaluates local shapes at every entry;
                # parameter/output buffers are bound by the driver
                for d in s.shape:
                    exact &= count_expr(d, c)
            cc, e = self.walk(s.body, ctx, execs)
            c.add(cc)
            return c, exact and e
        if isinstance(s, S.For):
            exact = count_expr(s.begin, c) & count_expr(s.end, c)
            trip, t_exact = self.trip_of(s, ctx)
            vec_ok = bool(s.property.vectorize) and self._vec_honored(s)
            seq = self.seq_trip(s, trip, vec_ok)
            head_seq = seq
            if vec_ok and self.caps.vector_width is None and trip:
                # kernel dispatch overhead: model default, unless the
                # backend's declared caps override it
                head_seq = seq + (self.caps.vec_kernel_seq
                                  or VEC_KERNEL_SEQ)
            inner_ctx = ctx.with_loop(s.iter_var, s.begin, s.end)
            prev_trip = self.var_trips.get(s.iter_var)
            self.var_trips[s.iter_var] = trip
            body_c, b_exact = self.walk(s.body, inner_ctx, execs * trip)
            if prev_trip is None:
                self.var_trips.pop(s.iter_var, None)
            else:
                self.var_trips[s.iter_var] = prev_trip
            c.note("iters", trip, head_seq)
            c.add_scaled(body_c, trip, seq)
            self.trips[s.sid] = (trip, t_exact)
            self.loops.append(
                LoopCost(s, trip, t_exact, seq, execs,
                         body_c.total_ops()))
            return c, exact and t_exact and b_exact
        if isinstance(s, S.If):
            exact = count_expr(s.cond, c)
            if s.else_case is None:
                frac = self._guard_frac(s.cond, ctx)
                if frac is not None:
                    # the guard provably holds on at most this fraction
                    # of the enclosing iterations: charge the body pro
                    # rata instead of the full branch max (split tails,
                    # window boundaries)
                    if frac <= 0.0:
                        return c, exact
                    t, te = self.walk(
                        s.then_case, ctx,
                        max(1, int(round(execs * frac))))
                    if frac >= 1.0:
                        c.add(t)
                        return c, exact and te
                    c.add_scaled(t, frac, frac)
                    return c, False
            t, te = self.walk(s.then_case, ctx, execs)
            if s.else_case is not None:
                f, fe = self.walk(s.else_case, ctx, execs)
            else:
                f, fe = Counts(), True
            c.add(Counts.maxed(t, f))
            return c, exact and te and fe and t.same_totals(f)
        if isinstance(s, S.Assert):
            exact = count_expr(s.cond, c)
            cc, e = self.walk(s.body, ctx, execs)
            c.add(cc)
            return c, exact and e
        if isinstance(s, S.Store):
            exact = True
            for i in s.indices:
                exact &= count_expr(i, c)
            exact &= count_expr(s.expr, c)
            c.note("stores")
            c.tensor_write(s.var)
            return c, exact
        if isinstance(s, S.ReduceTo):
            exact = True
            for i in s.indices:
                exact &= count_expr(i, c)
            exact &= count_expr(s.expr, c)
            c.note("reduces")
            # read-modify-write: the target is touched on both sides
            c.tensor_read(s.var)
            c.tensor_write(s.var)
            return c, exact
        if isinstance(s, S.Eval):
            return c, count_expr(s.expr, c)
        if isinstance(s, S.LibCall):
            c.note("lib_calls", 1, LIB_CALL_SEQ)
            return c, True
        # Alloc/Free/Any: free
        return c, True


# ---------------------------------------------------------------------------
# Traffic / stride second pass
# ---------------------------------------------------------------------------


def _linear_coeff(e: E.Expr, var: str) -> Optional[int]:
    """Coefficient of ``var`` in ``e`` when ``e`` is affine in it; None
    when ``var`` occurs non-linearly (or behind a Load — a gather)."""
    if isinstance(e, E.Var):
        return 1 if e.name == var else 0
    if isinstance(e, E.Const):
        return 0
    if isinstance(e, E.Load):
        return None if var in all_vars(e) else 0
    if isinstance(e, E.Add):
        a, b = _linear_coeff(e.lhs, var), _linear_coeff(e.rhs, var)
        return None if a is None or b is None else a + b
    if isinstance(e, E.Sub):
        a, b = _linear_coeff(e.lhs, var), _linear_coeff(e.rhs, var)
        return None if a is None or b is None else a - b
    if isinstance(e, E.Mul):
        if isinstance(e.lhs, E.IntConst):
            k = _linear_coeff(e.rhs, var)
            return None if k is None else e.lhs.val * k
        if isinstance(e.rhs, E.IntConst):
            k = _linear_coeff(e.lhs, var)
            return None if k is None else e.rhs.val * k
        return 0 if var not in all_vars(e) else None
    if isinstance(e, E.Cast):
        return _linear_coeff(e.operand, var)
    return 0 if var not in all_vars(e) else None


def _dim_extents(vd: S.VarDef, ctx: BoundsCtx) -> List[Optional[int]]:
    out = []
    for d in vd.shape:
        _lo, up = const_bounds(d, ctx)
        out.append(up if up is None or up >= 0 else 0)
    return out


def _numel_ub(vd: S.VarDef, ctx: BoundsCtx) -> Optional[int]:
    n = 1
    for ext in _dim_extents(vd, ctx):
        if ext is None:
            return None
        n *= ext
    return n


def classify_stride(a: Access, vd: Optional[S.VarDef],
                    ctx: BoundsCtx) -> Tuple[str, Optional[int]]:
    """(class, |element stride|) of the access along its innermost
    enclosing loop. Classes, friendliest first: ``invariant`` (index free
    of the loop var), ``unit``, ``bulk`` (whole-tensor library operand),
    ``strided`` (constant stride > 1 in the last dim), ``outer`` (the
    loop var strides a non-innermost dim — row-major hostile),
    ``indirect`` (a data-dependent gather/scatter)."""
    if a.indices is None:
        return "bulk", None
    if not a.loops:
        return "invariant", 0
    var = a.loops[-1].iter_var
    coeffs = [_linear_coeff(i, var) for i in a.indices]
    if any(k is None for k in coeffs):
        return "indirect", None
    if all(k == 0 for k in coeffs):
        return "invariant", 0
    exts = _dim_extents(vd, ctx) if vd is not None else \
        [None] * len(coeffs)
    if all(k == 0 for k in coeffs[:-1]):
        last = abs(coeffs[-1])
        return ("unit", 1) if last == 1 else ("strided", last)
    # the loop var moves an outer dimension: each step jumps a whole
    # row of the trailing dims
    stride = 0
    row = 1
    known = True
    for dim in range(len(coeffs) - 1, -1, -1):
        if coeffs[dim]:
            stride += abs(coeffs[dim]) * (row if known else 0)
        ext = exts[dim]
        if ext is None:
            known = False
        else:
            row *= max(1, ext)
    return "outer", (stride if known and stride else None)


def _reuse_iters(a: Access, trips: Dict[str, Tuple[int, bool]]) -> int:
    """Product of the trip counts of the innermost enclosing loops whose
    iterator does not appear in the access's indices — iterations across
    which the *same* elements are re-touched (temporal reuse)."""
    if a.indices is None:
        return 1
    used = set()
    for i in a.indices:
        used |= set(all_vars(i))
    factor = 1
    for l in reversed(a.loops):
        if l.iter_var in used:
            break
        factor *= max(1, trips.get(l.sid, (1, False))[0])
    return factor


def _traffic_pass(func: S.Func, trips, base_ctx: BoundsCtx):
    defs = defined_tensors(func.body)
    traffic: Dict[str, TensorTraffic] = {}
    stride_sites = []
    penalty = 0.0
    for a in collect_accesses(func.body):
        vd = defs.get(a.tensor)
        execs = 1
        for l in a.loops:
            execs *= max(0, trips.get(l.sid, (1, False))[0])
        row = traffic.get(a.tensor)
        if row is None:
            elem = vd.dtype.size_bytes if vd is not None else 4
            numel = _numel_ub(vd, base_ctx) if vd is not None else None
            row = traffic[a.tensor] = TensorTraffic(a.tensor, elem, numel)
        cls, stride = classify_stride(a, vd, base_ctx)
        if cls == "bulk":
            amount = row.numel if row.numel else 1
        else:
            amount = execs
        if a.is_write:
            row.writes += amount
            if a.reduce_op:
                row.reads += amount
        else:
            row.reads += amount
        row.distinct += amount / max(1, _reuse_iters(a, trips))
        if STRIDE_ORDER.index(cls) > STRIDE_ORDER.index(row.stride_class):
            row.stride_class = cls
        hostile = cls == "outer" or (
            cls == "strided" and (stride is None or stride >= HOSTILE_STRIDE))
        if hostile:
            penalty += float(execs)
            stride_sites.append((a, cls, stride, execs))
    footprint = 0
    for name, vd in defs.items():
        if vd.atype is not AccessType.CACHE or name not in traffic:
            continue
        n = _numel_ub(vd, base_ctx)
        if n is not None:
            footprint += n * vd.dtype.size_bytes
    return traffic, penalty, stride_sites, footprint


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def analyze(func: S.Func, backend: str, target,
            scalar_env: Optional[Dict[str, int]] = None) -> CostEstimate:
    """Compute the :class:`CostEstimate` of ``func`` for ``backend`` on
    ``target``. Pure and deterministic."""
    caps = backend_caps(backend, target)
    w = _Walker(func, caps, scalar_env or {})
    totals, exact = w.walk(func.body, w.base_ctx, 1)
    traffic, penalty, stride_sites, footprint = _traffic_pass(
        func, w.trips, w.base_ctx)
    return CostEstimate(
        name=func.name, backend=backend, target_name=target.name,
        counts=totals, loops=w.loops, traffic=traffic,
        stride_penalty=penalty, footprint_bytes=footprint,
        exact=exact and w.sound, sound=w.sound, stride_sites=stride_sites,
        stride_weight=0.25 if caps.stride_matters else 0.0)
