"""Visitor and mutator infrastructure over the IR.

:class:`Visitor` walks a tree read-only; :class:`Mutator` rewrites it
copy-on-write: a node whose mutated children all come back as the same
objects is returned as itself, so a rewrite allocates only the nodes on
the paths to what it changed, and its output shares every untouched
subtree with its input. Rebuilt statements keep their ``sid`` and
``label`` so schedules applied earlier can still address statements after
later transformations.

Because subtrees are shared — between a rewrite's input and output, with
the lowering memo and with parent schedules — no node is written after it is
built: a rewrite that changes a node constructs a new one.
"""

from __future__ import annotations

from . import expr as E
from . import stmt as S


class Visitor:
    """Read-only traversal; override ``visit_<NodeClass>`` methods."""

    def __call__(self, node):
        return self.visit(node)

    def visit(self, node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        if isinstance(node, S.Stmt):
            for e in node.child_exprs():
                self.visit(e)
            for s in node.children_stmts():
                self.visit(s)
        elif isinstance(node, E.Expr):
            for c in node.children():
                self.visit(c)
        elif isinstance(node, S.Func):
            self.visit(node.body)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot visit {type(node).__name__}")


def _copy_identity(old: S.Stmt, new: S.Stmt) -> S.Stmt:
    new.sid = old.sid
    new.label = old.label
    return new


def _same(new, old) -> bool:
    """Whether two equal-length child sequences hold the same objects."""
    return new is old or all(a is b for a, b in zip(new, old))


def _expr_hooks() -> frozenset:
    """``mutate_<ExprClass>`` for every expression node class."""
    names, todo = set(), [E.Expr]
    while todo:
        cls = todo.pop()
        names.add("mutate_" + cls.__name__)
        todo.extend(cls.__subclasses__())
    return frozenset(names)


_EXPR_HOOKS = _expr_hooks()


class Mutator:
    """Copy-on-write traversal; override ``mutate_<NodeClass>`` methods.

    The default behaviour returns every node whose children come back
    unchanged as itself, and rebuilds the others from their mutated
    children (statements keep sid/label; binary expressions go through
    their folding constructors). A subclass that overrides none of
    ``mutate_expr``, ``generic_mutate_expr`` and ``mutate_<ExprClass>``
    rewrites statements only: its default walk does not enter
    expressions, which could only come back unchanged.
    """

    #: whether the default statement walk descends into expressions;
    #: decided per class by ``__init_subclass__``
    _rewrites_exprs = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._rewrites_exprs = (
            cls.mutate_expr is not Mutator.mutate_expr
            or cls.generic_mutate_expr is not Mutator.generic_mutate_expr
            or any(hasattr(cls, hook) for hook in _EXPR_HOOKS))

    def __call__(self, node):
        if isinstance(node, S.Func):
            return S.Func(node.name, list(node.params), list(node.returns),
                          self.mutate_stmt(node.body),
                          scalar_params=list(node.scalar_params))
        if isinstance(node, S.Stmt):
            return self.mutate_stmt(node)
        return self.mutate_expr(node)

    # -- expressions ----------------------------------------------------
    def mutate_expr(self, e: E.Expr) -> E.Expr:
        method = getattr(self, "mutate_" + type(e).__name__, None)
        if method is not None:
            return method(e)
        return self.generic_mutate_expr(e)

    #: binary nodes are rebuilt through their folding constructors so the
    #: IR stays canonical (constants folded) after every mutation
    _FOLDING = {
        E.Add: E.makeAdd,
        E.Sub: E.makeSub,
        E.Mul: E.makeMul,
        E.RealDiv: E.makeRealDiv,
        E.FloorDiv: E.makeFloorDiv,
        E.Mod: E.makeMod,
        E.Min: E.makeMin,
        E.Max: E.makeMax,
        E.LAnd: E.makeLAnd,
        E.LOr: E.makeLOr,
    }

    def generic_mutate_expr(self, e: E.Expr) -> E.Expr:
        if isinstance(e, (E.Const, E.Var, E.AnyExpr)):
            return e
        if isinstance(e, E.Load):
            idx = [self.mutate_expr(i) for i in e.indices]
            if _same(idx, e.indices):
                return e
            return E.Load(e.var, idx, e.dtype)
        if isinstance(e, E.BinOp):
            lhs = self.mutate_expr(e.lhs)
            rhs = self.mutate_expr(e.rhs)
            if lhs is e.lhs and rhs is e.rhs:
                return e
            if isinstance(e, E.CmpOp):
                return E.makeCmp(type(e), lhs, rhs)
            make = self._FOLDING.get(type(e))
            if make is not None:
                return make(lhs, rhs)
            return type(e)(lhs, rhs)
        if isinstance(e, (E.LNot, E.Cast)):
            operand = self.mutate_expr(e.operand)
            if operand is e.operand:
                return e
            if isinstance(e, E.LNot):
                return E.makeLNot(operand)
            return E.makeCast(operand, e.dtype)
        if isinstance(e, E.IfExpr):
            kids = (self.mutate_expr(e.cond), self.mutate_expr(e.then_case),
                    self.mutate_expr(e.else_case))
            if _same(kids, e.children()):
                return e
            return E.makeIfExpr(*kids)
        if isinstance(e, E.Intrinsic):
            args = [self.mutate_expr(a) for a in e.args]
            if _same(args, e.args):
                return e
            return E.makeIntrinsic(e.name, args, e.dtype)
        raise TypeError(f"cannot mutate {type(e).__name__}")  # pragma: no cover

    # -- statements -------------------------------------------------------
    def mutate_stmt(self, s: S.Stmt) -> S.Stmt:
        method = getattr(self, "mutate_" + type(s).__name__, None)
        if method is not None:
            return method(s)
        return self.generic_mutate_stmt(s)

    def _exprs(self, es):
        """``es`` mutated, or ``es`` itself for a statement-only mutator."""
        if self._rewrites_exprs:
            return [self.mutate_expr(e) for e in es]
        return es

    def _expr(self, e: E.Expr) -> E.Expr:
        return self.mutate_expr(e) if self._rewrites_exprs else e

    def generic_mutate_stmt(self, s: S.Stmt) -> S.Stmt:
        if isinstance(s, S.StmtSeq):
            stmts = [self.mutate_stmt(c) for c in s.stmts]
            if _same(stmts, s.stmts):
                return s
            return _copy_identity(s, S.StmtSeq(stmts))
        if isinstance(s, S.VarDef):
            shape = self._exprs(s.shape)
            body = self.mutate_stmt(s.body)
            if body is s.body and _same(shape, s.shape):
                return s
            out = S.VarDef(s.name, shape, s.dtype, s.atype, s.mtype, body,
                           s.pinned)
            out.init_data = s.init_data
            return _copy_identity(s, out)
        if isinstance(s, S.For):
            begin = self._expr(s.begin)
            end = self._expr(s.end)
            body = self.mutate_stmt(s.body)
            if begin is s.begin and end is s.end and body is s.body:
                return s
            return _copy_identity(
                s, S.For(s.iter_var, begin, end, body, s.property.clone()))
        if isinstance(s, S.If):
            else_case = (self.mutate_stmt(s.else_case)
                         if s.else_case is not None else None)
            cond = self._expr(s.cond)
            then_case = self.mutate_stmt(s.then_case)
            if cond is s.cond and then_case is s.then_case \
                    and else_case is s.else_case:
                return s
            return _copy_identity(s, S.If(cond, then_case, else_case))
        if isinstance(s, (S.Store, S.ReduceTo)):
            indices = self._exprs(s.indices)
            expr = self._expr(s.expr)
            if expr is s.expr and _same(indices, s.indices):
                return s
            if isinstance(s, S.Store):
                return _copy_identity(s, S.Store(s.var, indices, expr))
            return _copy_identity(
                s, S.ReduceTo(s.var, indices, s.op, expr, s.atomic))
        if isinstance(s, S.Eval):
            expr = self._expr(s.expr)
            if expr is s.expr:
                return s
            return _copy_identity(s, S.Eval(expr))
        if isinstance(s, S.Assert):
            cond = self._expr(s.cond)
            body = self.mutate_stmt(s.body)
            if cond is s.cond and body is s.body:
                return s
            return _copy_identity(s, S.Assert(cond, body))
        if isinstance(s, (S.Alloc, S.Free, S.Any, S.LibCall)):
            return s
        raise TypeError(f"cannot mutate {type(s).__name__}")  # pragma: no cover


class ExprMutator(Mutator):
    """A mutator that rewrites expressions with a single callable."""

    def __init__(self, fn):
        self._fn = fn

    def mutate_expr(self, e: E.Expr) -> E.Expr:
        out = self._fn(e)
        if out is not None:
            return out
        return self.generic_mutate_expr(e)


def map_exprs(node, fn):
    """Rewrite every expression in ``node`` with ``fn``.

    ``fn(expr)`` may return a replacement expression or ``None`` to recurse
    into the expression's children.
    """
    return ExprMutator(fn)(node)
