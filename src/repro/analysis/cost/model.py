"""Cost vectors and the comparable :class:`CostEstimate`.

The model follows Ahrens & Kjolstad's asymptotic-cost-model idea
(PAPERS.md): a schedule's cost is a small vector of machine-independent
resource counts — arithmetic by dtype class, memory operations, loop
bookkeeping, library-call invocations — plus a *sequential-work* axis
that discounts iterations the target backend can actually run in
parallel. Estimates are comparable through a **dominance partial
order**: estimate ``a`` dominates ``b`` when ``a`` is no worse on every
axis. Dominance is what makes measurement-free pruning honest — a
dominated candidate can only be pruned, never preferred — while the
scalar :attr:`CostEstimate.time_proxy` gives a total order for ranking.

``op_category`` is the single classification shared by the static walker
(`count.py`) and the interpreter, which classifies every expression node
it evaluates with it (its ``OpCounts`` oracle and the simulated device's
FLOP counter both read the result), so the two sides count the same
events by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...ir import expr as E

#: integer counting axes, in reporting order
COUNT_FIELDS = ("flops", "int_ops", "loads", "stores", "reduces",
                "lib_calls", "iters")

#: modeled sequential cost of one library-kernel invocation, in scalar-op
#: units (launch/dispatch overhead; the kernel's interior is vendor code
#: and is deliberately not counted — neither statically nor dynamically)
LIB_CALL_SEQ = 32.0


def op_category(e: E.Expr) -> Optional[str]:
    """The counting axis one evaluation of ``e``'s *root node* lands on
    (children are counted separately), or None for free nodes (constants,
    variables, casts, ``IfExpr`` selection).

    This *is* the interpreter's classification, not a copy of it:
    ``Interpreter.eval_expr`` calls it on every node, counting the axis
    in ``OpCounts`` and charging a ``"flops"`` node to the device's
    ``on_flop``. Float add/sub/mul/min/max and every real
    division/intrinsic are flops; integer/boolean arithmetic,
    comparisons and logic are int ops.
    """
    if isinstance(e, E.Load):
        return "loads"
    if isinstance(e, (E.Intrinsic, E.RealDiv)):
        return "flops"
    if isinstance(e, (E.Add, E.Sub, E.Mul, E.Min, E.Max)):
        return "flops" if e.dtype.is_float else "int_ops"
    if isinstance(e, (E.FloorDiv, E.Mod, E.LNot, E.LAnd, E.LOr, E.CmpOp)):
        return "int_ops"
    return None


class Counts:
    """A vector of operation counts plus the derived sequential work.

    ``seq`` tracks the *sequential* schedule length: every counted op
    contributes 1, but a loop body multiplied by a parallelised loop
    scales ``seq`` by the residual iterations per hardware lane instead
    of the full trip count. ``by_tensor`` carries per-tensor element
    traffic (reads, writes) for the memory report.
    """

    __slots__ = COUNT_FIELDS + ("seq", "by_tensor")

    def __init__(self):
        for f in COUNT_FIELDS:
            setattr(self, f, 0)
        self.seq = 0.0
        self.by_tensor: Dict[str, List[int]] = {}

    # -- building ----------------------------------------------------------
    def note(self, field: str, n: int = 1, seq: Optional[float] = None):
        setattr(self, field, getattr(self, field) + n)
        self.seq += float(n) if seq is None else seq

    def tensor_read(self, name: str, n: int = 1):
        self.by_tensor.setdefault(name, [0, 0])[0] += n

    def tensor_write(self, name: str, n: int = 1):
        self.by_tensor.setdefault(name, [0, 0])[1] += n

    def add(self, other: "Counts"):
        for f in COUNT_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.seq += other.seq
        for name, (r, w) in other.by_tensor.items():
            row = self.by_tensor.setdefault(name, [0, 0])
            row[0] += r
            row[1] += w

    def add_scaled(self, other: "Counts", k: float, seq_k: float):
        """``self += other * k``, with the ``seq`` axis scaled by the
        (possibly smaller) effective sequential trip count ``seq_k``.
        ``k`` is the trip count of an enclosing loop, or a fractional
        guard frequency — counts may become non-integral (still sound
        upper bounds)."""
        for f in COUNT_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f) * k)
        self.seq += other.seq * seq_k
        for name, (r, w) in other.by_tensor.items():
            row = self.by_tensor.setdefault(name, [0, 0])
            row[0] += r * k
            row[1] += w * k

    @staticmethod
    def maxed(a: "Counts", b: "Counts") -> "Counts":
        """Componentwise max — the sound merge of ``If`` branches."""
        out = Counts()
        for f in COUNT_FIELDS:
            setattr(out, f, max(getattr(a, f), getattr(b, f)))
        out.seq = max(a.seq, b.seq)
        for name in set(a.by_tensor) | set(b.by_tensor):
            ra = a.by_tensor.get(name, [0, 0])
            rb = b.by_tensor.get(name, [0, 0])
            out.by_tensor[name] = [max(ra[0], rb[0]), max(ra[1], rb[1])]
        return out

    # -- queries -----------------------------------------------------------
    def total_ops(self) -> int:
        return sum(getattr(self, f) for f in COUNT_FIELDS)

    def same_totals(self, other: "Counts") -> bool:
        """True when both vectors count the identical work — the condition
        under which an ``If``'s branch max is still *exact*."""
        return all(getattr(self, f) == getattr(other, f)
                   for f in COUNT_FIELDS) and self.by_tensor == other.by_tensor

    def as_dict(self) -> Dict[str, object]:
        d = {f: getattr(self, f) for f in COUNT_FIELDS}
        d["seq"] = round(self.seq, 2)
        return d

    def __repr__(self):  # pragma: no cover - debugging aid
        body = ", ".join(f"{f}={getattr(self, f)}" for f in COUNT_FIELDS
                         if getattr(self, f))
        return f"Counts({body}, seq={self.seq:.0f})"


class LoopCost:
    """Per-loop-nest report row: trip count, per-iteration work, and how
    the loop's iterations map onto the target's parallel hardware."""

    __slots__ = ("sid", "iter_var", "trip", "exact", "seq_trip", "execs",
                 "parallel", "vectorize", "per_iter_ops", "total_ops",
                 "stmt")

    def __init__(self, stmt, trip: int, exact: bool, seq_trip: float,
                 execs: int, per_iter_ops: int):
        self.stmt = stmt
        self.sid = stmt.sid
        self.iter_var = stmt.iter_var
        self.trip = trip
        self.exact = exact
        #: iterations that remain sequential after parallel mapping
        self.seq_trip = seq_trip
        #: how many times the loop statement itself executes
        self.execs = execs
        self.parallel = stmt.property.parallel
        self.vectorize = bool(stmt.property.vectorize)
        self.per_iter_ops = per_iter_ops
        self.total_ops = per_iter_ops * trip * execs

    def as_dict(self) -> Dict[str, object]:
        return {
            "sid": self.sid,
            "iter_var": self.iter_var,
            "trip": self.trip,
            "exact": self.exact,
            "seq_trip": round(self.seq_trip, 2),
            "execs": self.execs,
            "parallel": self.parallel,
            "vectorize": self.vectorize,
            "per_iter_ops": self.per_iter_ops,
            "total_ops": self.total_ops,
        }


class TensorTraffic:
    """Memory-traffic report row for one tensor."""

    __slots__ = ("name", "elem_bytes", "reads", "writes", "distinct",
                 "numel", "stride_class")

    def __init__(self, name: str, elem_bytes: int,
                 numel: Optional[int] = None):
        self.name = name
        self.elem_bytes = elem_bytes
        self.reads = 0
        self.writes = 0
        #: reuse-discounted estimate of distinct elements touched
        self.distinct = 0.0
        self.numel = numel
        #: worst innermost-stride class over this tensor's access sites
        self.stride_class = "invariant"

    @property
    def bytes(self) -> int:
        return (self.reads + self.writes) * self.elem_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes": self.bytes,
            "distinct": round(self.distinct, 1),
            "numel": self.numel,
            "stride_class": self.stride_class,
        }


#: severity order of innermost-stride classes, friendliest first
STRIDE_ORDER = ("invariant", "unit", "bulk", "strided", "outer", "indirect")


class CostEstimate:
    """The comparable whole-program estimate.

    ``exact`` — every count is provably equal to what an execution under
    the given scalar environment performs. ``sound`` — every count is a
    proven upper bound (False once any loop fell back to the assumed
    trip count, e.g. CSR neighbour loops whose extents live in data).
    """

    __slots__ = ("name", "backend", "target_name", "counts", "loops",
                 "traffic", "stride_penalty", "footprint_bytes", "exact",
                 "sound", "stride_sites",
                 "_stride_weight")

    #: axes of the dominance partial order, as (label, getter) pairs
    DOMINANCE_AXES = COUNT_FIELDS + ("seq", "stride_penalty",
                                     "footprint_bytes")

    def __init__(self, name: str, backend: str, target_name: str,
                 counts: Counts, loops: List[LoopCost],
                 traffic: Dict[str, TensorTraffic],
                 stride_penalty: float, footprint_bytes: int,
                 exact: bool, sound: bool, stride_sites=(),
                 stride_weight: float = 0.25):
        self.name = name
        self.backend = backend
        self.target_name = target_name
        self.counts = counts
        self.loops = loops
        self.traffic = traffic
        #: accesses (weighted by execution count) with a cache-hostile
        #: innermost stride on this backend
        self.stride_penalty = stride_penalty
        self.footprint_bytes = footprint_bytes
        self.exact = exact
        self.sound = sound
        #: (access, class, elem_stride, execs) rows backing FT502
        self.stride_sites = tuple(stride_sites)
        self._stride_weight = stride_weight

    # -- comparison --------------------------------------------------------
    def axes(self) -> Tuple[float, ...]:
        c = self.counts
        return tuple(getattr(c, f) for f in COUNT_FIELDS) + (
            c.seq, self.stride_penalty, self.footprint_bytes)

    def dominates_or_equal(self, other: "CostEstimate") -> bool:
        """No worse than ``other`` on every axis."""
        return all(a <= b for a, b in zip(self.axes(), other.axes()))

    def dominates(self, other: "CostEstimate") -> bool:
        """Strictly better on at least one axis, no worse on the rest."""
        mine, theirs = self.axes(), other.axes()
        return all(a <= b for a, b in zip(mine, theirs)) \
            and any(a < b for a, b in zip(mine, theirs))

    @property
    def time_proxy(self) -> float:
        """Scalar ranking proxy: sequential work plus a locality penalty
        on backends where strides reach real memory."""
        return self.counts.seq + self._stride_weight * self.stride_penalty

    @property
    def parallelism(self) -> float:
        """Exploited parallelism: total ops per sequential step."""
        return self.counts.total_ops() / max(1.0, self.counts.seq)

    # -- reporting ---------------------------------------------------------
    def as_dict(self, top_loops: int = 5) -> Dict[str, object]:
        loops = sorted(self.loops, key=lambda l: -l.total_ops)
        return {
            "name": self.name,
            "backend": self.backend,
            "target": self.target_name,
            "counts": self.counts.as_dict(),
            "time_proxy": round(self.time_proxy, 2),
            "parallelism": round(self.parallelism, 2),
            "stride_penalty": round(self.stride_penalty, 1),
            "footprint_bytes": self.footprint_bytes,
            "exact": self.exact,
            "sound": self.sound,
            "loops": [l.as_dict() for l in loops[:top_loops]],
            "traffic": {t.name: t.as_dict()
                        for t in self.traffic.values()},
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        c = self.counts
        flag = "exact" if self.exact else \
            ("sound" if self.sound else "approx")
        return (f"<CostEstimate {self.name}/{self.backend} {flag} "
                f"flops={c.flops} loads={c.loads} stores={c.stores} "
                f"seq={c.seq:.0f} proxy={self.time_proxy:.0f}>")
