"""Rebuild expressions through folding constructors, canonicalise integer
``+``/``-``/``*`` as linear forms, and prune dead control flow (constant
conditions, empty or single-iteration loops), in one bottom-up sweep."""

from __future__ import annotations

from ..ir import (BoolConst, Expr, If, IntConst, For, Stmt, StmtSeq,
                  join_dtype, makeAdd, makeCast, makeCmp, makeIfExpr,
                  makeIntrinsic, makeLNot, makeMul, makeSub, substitute,
                  wrap_like)
from ..ir import expr as E
from ..polyhedral.build import Linear, combine, scale
from .flatten import Flatten


def _emit(lin: Linear, atoms, dtype) -> Expr:
    """The canonical tree of a linear form: its atoms in ``repr`` order of
    their columns, each times its coefficient, then the constant."""
    def term(c, a):
        return a if c == 1 else makeMul(wrap_like(c, dtype), a)

    coeffs, const = lin
    out = None
    for k in sorted(coeffs, key=repr):
        c, a = coeffs[k], atoms[k]
        if out is None:
            out = term(c, a)
        elif c < 0:
            out = makeSub(out, term(-c, a))
        else:
            out = makeAdd(out, term(c, a))
    if out is None:
        return wrap_like(const, dtype)
    if const:
        out = (makeAdd if const > 0 else makeSub)(
            out, wrap_like(abs(const), dtype))
    return out


_LINEAR = (E.Add, E.Sub, E.Mul)


class _Sum(Expr):
    """A linear form standing in for its :func:`_emit` tree (a non-constant
    of ``dtype``) while only ``+``/``-``/``*`` consume it. Its key matches
    nothing; equal operands of a ``-`` still cancel, in the form."""

    __slots__ = ("lin", "atoms")

    def __init__(self, lin: Linear, atoms, dtype):
        self.lin, self.atoms, self.dtype = lin, atoms, dtype

    def key(self):
        return ("_Sum", id(self))


class _Simplify(Flatten):
    """One bottom-up folding sweep over expressions and control flow. Each
    non-float ``+``/``-``/``*`` gets its linear form once, from its
    operands'. A column is the ``key()`` of an atom, which keeps its own
    node: any operand but an integer constant or such a sum, ``//`` and
    ``%`` included (no quotient columns here). Statement sequences splice
    nested ones and drop empty statements as they are rebuilt (the
    inherited :class:`~repro.passes.flatten.Flatten` rule), so a loop or
    ``else`` that empties only once flattened goes in the same sweep."""

    def __init__(self):
        #: id(tree) -> (tree, _Sum) of each sum made a tree; a fold such
        #: as ``x // 1`` may pass one on
        self.forms = {}

    def _form(self, x: Expr):
        x = self.forms.get(id(x), (x, x))[1]
        if isinstance(x, _Sum):
            return x.lin, x.atoms
        if isinstance(x, IntConst):
            return ({}, x.val), {}
        k = x.key()
        return ({k: 1}, 0), {k: x}

    def _tree(self, x: Expr) -> Expr:
        if not isinstance(x, _Sum):
            return x
        out = _emit(x.lin, x.atoms, x.dtype)
        self.forms[id(out)] = out, x
        return out

    def _sum(self, e: Expr) -> Expr:
        """``e`` folded; an integer sum as a :class:`_Sum` if one can."""
        if type(e) not in _LINEAR:
            return self.mutate_expr(e)
        make = self._FOLDING[type(e)]
        lhs, rhs = self._sum(e.lhs), self._sum(e.rhs)
        k, x = (lhs, rhs) if isinstance(lhs, IntConst) else (rhs, lhs)
        if join_dtype(lhs.dtype, rhs.dtype).is_float or \
                type(e) is E.Mul and not isinstance(k, IntConst):
            return make(self._tree(lhs), self._tree(rhs))  # not linear
        out = make(lhs, rhs)
        if out is lhs or out is rhs or not isinstance(out, _LINEAR):
            return out  # an operand or a constant
        if isinstance(out, E.Mul):
            lin, atoms = self._form(x)
            lin = scale(lin, k.val)
        else:
            (x, xa), (y, ya) = self._form(lhs), self._form(rhs)
            lin = combine(x, y, 1 if isinstance(out, E.Add) else -1)
            atoms = {**xa, **ya}
        s = _Sum(lin, atoms, out.dtype)
        if not out.dtype.is_int:  # a boolean sum stays as built
            self.forms[id(out)] = out, s
            return out
        # stand in only for a tree with columns (no constant) and the sum's
        # dtype: it has that with a constant term or an atom of that dtype
        if lin[0] and (lin[1] or any(atoms[c].dtype is s.dtype
                                     for c in lin[0])):
            return s
        return self._tree(s)

    def mutate_expr(self, e: Expr) -> Expr:
        cls = type(e)
        if cls in _LINEAR:
            return self._tree(self._sum(e))
        if cls in self._FOLDING:
            return self._FOLDING[cls](self.mutate_expr(e.lhs),
                                      self.mutate_expr(e.rhs))
        if isinstance(e, E.CmpOp):
            return makeCmp(cls, self.mutate_expr(e.lhs),
                           self.mutate_expr(e.rhs))
        if isinstance(e, E.LNot):
            return makeLNot(self.mutate_expr(e.operand))
        if isinstance(e, E.IfExpr):
            return makeIfExpr(self.mutate_expr(e.cond),
                              self.mutate_expr(e.then_case),
                              self.mutate_expr(e.else_case))
        if isinstance(e, E.Cast):
            return makeCast(self.mutate_expr(e.operand), e.dtype)
        if isinstance(e, E.Intrinsic):
            return makeIntrinsic(e.name,
                                 [self.mutate_expr(a) for a in e.args],
                                 e.dtype)
        return super().generic_mutate_expr(e)

    def mutate_If(self, s: If) -> Stmt:
        cond = self.mutate_expr(s.cond)
        if isinstance(cond, BoolConst):
            if cond.val:
                return self.mutate_stmt(s.then_case)
            if s.else_case is not None:
                return self.mutate_stmt(s.else_case)
            return StmtSeq([])
        else_case = (self.mutate_stmt(s.else_case)
                     if s.else_case is not None else None)
        if isinstance(else_case, StmtSeq) and not else_case.stmts:
            else_case = None
        out = If(cond, self.mutate_stmt(s.then_case), else_case)
        out.sid, out.label = s.sid, s.label
        return out

    def mutate_For(self, s: For) -> Stmt:
        begin = self.mutate_expr(s.begin)
        end = self.mutate_expr(s.end)
        if isinstance(begin, IntConst) and isinstance(end, IntConst):
            if end.val <= begin.val:
                return StmtSeq([])
            if end.val == begin.val + 1:
                body = self.mutate_stmt(s.body)
                return self.mutate_stmt(
                    substitute(body, {s.iter_var: begin}))
        body = self.mutate_stmt(s.body)
        if isinstance(body, StmtSeq) and not body.stmts:
            return StmtSeq([])
        out = For(s.iter_var, begin, end, body, s.property.clone())
        out.sid, out.label = s.sid, s.label
        return out


def simplify_expr(e: Expr) -> Expr:
    """Fold and canonicalise a single expression."""
    return _Simplify().mutate_expr(e)


def simplify(node):
    """Fold, canonicalise and prune ``node`` in one sweep, which is a
    fixed point: a second sweep changes nothing."""
    return _Simplify()(node)
