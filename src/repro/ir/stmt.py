"""Statement nodes of the FreeTensor IR.

The IR is a *stack-scoped* AST (paper section 4): every tensor is introduced
by a :class:`VarDef` node and is alive only inside that node's sub-tree.
This guarantees transformations never split an allocation from its free, and
lets dependence analysis project away false dependences on tensors whose
lifetime is nested under the loops being transformed (paper Figure 12(d)).

Every statement carries a unique ``sid`` and an optional user ``label``;
schedules address statements through either (see ``repro.schedule``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .dtype import AccessType, DataType, MemType
from .expr import Expr, IntConst, wrap

_sid_counter = itertools.count(1)


def fresh_sid() -> str:
    """Return a fresh statement id (unique within a process)."""
    return f"#{next(_sid_counter)}"


def bump_sid_counter(past: int):
    """Ensure future :func:`fresh_sid` values are numbered beyond
    ``past``.

    Loading IR serialized by another process (``repro.cache.serial``)
    can introduce sids minted by that process's counter; bumping keeps
    this process's counter from ever re-minting one of them.
    """
    global _sid_counter
    nxt = next(_sid_counter)
    _sid_counter = itertools.count(max(nxt, int(past) + 1))


#: Python source spans by statement id: sid -> (filename, line). Keyed by
#: sid rather than stored on the node so spans survive every transformation
#: that preserves statement identity (``Mutator._copy_identity`` and the
#: schedules' manual sid copies) without each rewrite threading the span
#: through. Content hashing (``ir.hashing``) never reads spans, so the
#: compile-path caches are unaffected.
_SPANS: Dict[str, Tuple[str, int]] = {}


class Stmt:
    """Base class of all IR statements."""

    __slots__ = ("sid", "label")

    def __init__(self, label: Optional[str] = None):
        self.sid = fresh_sid()
        self.label = label

    @property
    def span(self) -> Optional[Tuple[str, int]]:
        """Python source location ``(filename, line)``, or None.

        Captured by the frontend while staging; follows the statement's
        ``sid`` through schedules and lowering passes.
        """
        return _SPANS.get(self.sid)

    @span.setter
    def span(self, value: Optional[Tuple[str, int]]):
        if value is None:
            _SPANS.pop(self.sid, None)
        else:
            _SPANS[self.sid] = (str(value[0]), int(value[1]))

    def children_stmts(self) -> Sequence["Stmt"]:
        """Direct sub-statements."""
        return ()

    def child_exprs(self) -> Sequence[Expr]:
        """Direct sub-expressions (not descending into sub-statements)."""
        return ()

    def __repr__(self) -> str:
        from .printer import print_ast

        return print_ast(self)


class StmtSeq(Stmt):
    """An ordered sequence of statements."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: Iterable[Stmt], label: Optional[str] = None):
        super().__init__(label)
        self.stmts = list(stmts)

    def children_stmts(self):
        return self.stmts


class VarDef(Stmt):
    """Defines tensor ``name`` with ``shape`` for the scope of ``body``.

    This is the paper's *TensorDef* node. ``shape`` entries are integer
    expressions (possibly symbolic in by-value parameters and enclosing
    iterators). A 0-D shape denotes a scalar.
    """

    __slots__ = ("name", "shape", "dtype", "atype", "mtype", "body", "pinned",
                 "init_data")

    def __init__(self,
                 name: str,
                 shape: Iterable,
                 dtype: DataType | str,
                 atype: AccessType | str,
                 mtype: MemType | str,
                 body: Stmt,
                 pinned: bool = False,
                 label: Optional[str] = None):
        super().__init__(label)
        self.name = name
        self.shape = tuple(wrap(s) for s in shape)
        self.dtype = DataType.parse(dtype)
        self.atype = AccessType.parse(atype)
        self.mtype = MemType.parse(mtype)
        self.body = body
        self.pinned = pinned  # pinned tensors resist shrink/layout passes
        #: compile-time constant contents (from frontend capture()), or None
        self.init_data = None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def children_stmts(self):
        return (self.body,)

    def child_exprs(self):
        return self.shape


class ForProperty:
    """Scheduling annotations attached to a :class:`For` loop."""

    __slots__ = ("parallel", "unroll", "vectorize", "no_deps", "prefer_libs")

    def __init__(self,
                 parallel: Optional[str] = None,
                 unroll: bool = False,
                 vectorize: bool = False,
                 no_deps: Iterable[str] = (),
                 prefer_libs: bool = False):
        #: None, "openmp", "cuda.blockIdx.x/y/z", "cuda.threadIdx.x/y/z"
        self.parallel = parallel
        self.unroll = unroll
        self.vectorize = vectorize
        #: tensor names the user asserts carry no loop-carried dependence
        self.no_deps = tuple(no_deps)
        self.prefer_libs = prefer_libs

    def clone(self) -> "ForProperty":
        return ForProperty(self.parallel, self.unroll, self.vectorize,
                           self.no_deps, self.prefer_libs)

    def __repr__(self):  # pragma: no cover - debugging aid
        parts = []
        if self.parallel:
            parts.append(f"parallel={self.parallel}")
        if self.unroll:
            parts.append("unroll")
        if self.vectorize:
            parts.append("vectorize")
        if self.no_deps:
            parts.append(f"no_deps={list(self.no_deps)}")
        return f"ForProperty({', '.join(parts)})"


class For(Stmt):
    """``for iter_var in [begin, end)`` with unit step.

    Non-unit steps are normalised by the frontend (the iterator is rescaled),
    which keeps the polyhedral model simple and exact.
    """

    __slots__ = ("iter_var", "begin", "end", "body", "property")

    def __init__(self,
                 iter_var: str,
                 begin,
                 end,
                 body: Stmt,
                 property: Optional[ForProperty] = None,
                 label: Optional[str] = None):
        super().__init__(label)
        self.iter_var = iter_var
        self.begin = wrap(begin)
        self.end = wrap(end)
        self.body = body
        self.property = property if property is not None else ForProperty()

    @property
    def len(self) -> Expr:
        from .expr import makeSub

        return makeSub(self.end, self.begin)

    def children_stmts(self):
        return (self.body,)

    def child_exprs(self):
        return (self.begin, self.end)


class If(Stmt):
    """``if cond: then_case else: else_case`` (else optional)."""

    __slots__ = ("cond", "then_case", "else_case")

    def __init__(self,
                 cond,
                 then_case: Stmt,
                 else_case: Optional[Stmt] = None,
                 label: Optional[str] = None):
        super().__init__(label)
        self.cond = wrap(cond)
        self.then_case = then_case
        self.else_case = else_case

    def children_stmts(self):
        if self.else_case is not None:
            return (self.then_case, self.else_case)
        return (self.then_case,)

    def child_exprs(self):
        return (self.cond,)


class Store(Stmt):
    """``tensor[indices] = expr``."""

    __slots__ = ("var", "indices", "expr")

    def __init__(self,
                 var: str,
                 indices: Iterable,
                 expr,
                 label: Optional[str] = None):
        super().__init__(label)
        self.var = var
        self.indices = tuple(wrap(i) for i in indices)
        self.expr = wrap(expr)

    def child_exprs(self):
        return (*self.indices, self.expr)


#: Reduction operators supported by :class:`ReduceTo`.
REDUCE_OPS = ("+", "*", "min", "max")


class ReduceTo(Stmt):
    """``tensor[indices] op= expr`` for a commutative/associative ``op``.

    The paper introduces this node so write-after-write dependences between
    reductions over the same location can be ignored during transformations
    (Figure 12(c)), and so parallel backends can lower it with parallel
    reduction algorithms or atomics (Figure 13(d)/(e)).
    """

    __slots__ = ("var", "indices", "op", "expr", "atomic")

    def __init__(self,
                 var: str,
                 indices: Iterable,
                 op: str,
                 expr,
                 atomic: bool = False,
                 label: Optional[str] = None):
        super().__init__(label)
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduction op: {op!r}")
        self.var = var
        self.indices = tuple(wrap(i) for i in indices)
        self.op = op
        self.expr = wrap(expr)
        self.atomic = atomic

    def child_exprs(self):
        return (*self.indices, self.expr)


class Eval(Stmt):
    """Evaluate an expression for effect (used for extern/lib calls)."""

    __slots__ = ("expr",)

    def __init__(self, expr, label: Optional[str] = None):
        super().__init__(label)
        self.expr = wrap(expr)

    def child_exprs(self):
        return (self.expr,)


class Assert(Stmt):
    """Assert ``cond`` holds for the scope of ``body``.

    Asserts communicate shape facts (e.g. "2N is even") to the simplifier
    and the polyhedral engine (paper section 3.3).
    """

    __slots__ = ("cond", "body")

    def __init__(self, cond, body: Stmt, label: Optional[str] = None):
        super().__init__(label)
        self.cond = wrap(cond)
        self.body = body

    def children_stmts(self):
        return (self.body,)

    def child_exprs(self):
        return (self.cond,)


class Alloc(Stmt):
    """Explicit allocation marker emitted by lowering for heap tensors."""

    __slots__ = ("var",)

    def __init__(self, var: str, label: Optional[str] = None):
        super().__init__(label)
        self.var = var


class Free(Stmt):
    """Explicit free marker paired with :class:`Alloc`."""

    __slots__ = ("var",)

    def __init__(self, var: str, label: Optional[str] = None):
        super().__init__(label)
        self.var = var


class LibCall(Stmt):
    """A call into a vendor library (``as_lib`` schedule, paper Table 1).

    ``kind`` identifies the routine (e.g. ``"matmul"``); ``args``/``outs``
    name tensors in scope. Backends map this to their native library: the
    NumPy backends call BLAS through NumPy, the C backend emits a call into
    a bundled C routine, and the simulated GPU accounts it as one kernel.
    """

    __slots__ = ("kind", "outs", "args", "attrs")

    def __init__(self,
                 kind: str,
                 outs: Sequence[str],
                 args: Sequence[str],
                 attrs: Optional[dict] = None,
                 label: Optional[str] = None):
        super().__init__(label)
        self.kind = kind
        self.outs = tuple(outs)
        self.args = tuple(args)
        self.attrs = dict(attrs or {})


class Any(Stmt):
    """Wildcard statement used only in pattern-matching tests."""

    __slots__ = ()


# ---------------------------------------------------------------------------


def seq(stmts: Iterable[Stmt]) -> Stmt:
    """Make a statement from a list, flattening trivial sequences."""
    flat: list[Stmt] = []
    for s in stmts:
        if isinstance(s, StmtSeq) and s.label is None:
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return StmtSeq(flat)


class Func:
    """A compiled-unit: named parameters plus a statement body.

    ``params`` is the ordered list of parameter tensor names; each must be
    defined by a top-level chain of :class:`VarDef` nodes in ``body`` with an
    I/O access type. ``returns`` names output tensors that the driver should
    hand back to the caller.
    """

    __slots__ = ("name", "params", "scalar_params", "returns", "body")

    def __init__(self,
                 name: str,
                 params: Sequence[str],
                 returns: Sequence[str],
                 body: Stmt,
                 scalar_params: Sequence[str] = ()):
        self.name = name
        self.params = list(params)
        #: by-value integer parameters (shape variables etc.)
        self.scalar_params = list(scalar_params)
        self.returns = list(returns)
        self.body = body

    def interface_tensors(self) -> list:
        """All tensors crossing the function boundary: parameters plus
        returned tensors that are not already parameters, in order."""
        out = list(self.params)
        for r in self.returns:
            if r not in self.params:
                out.append(r)
        return out

    def __repr__(self) -> str:
        from .printer import dump

        return dump(self)
