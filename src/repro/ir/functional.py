"""Functional helpers over IR trees: substitution, renaming, matching,
collection, and copies with fresh statement identities.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List, Optional

from . import expr as E
from . import stmt as S
from .visitor import Mutator, map_exprs


def substitute(node, mapping: Dict[str, E.Expr]):
    """Replace :class:`Var` occurrences by name with given expressions."""
    if not mapping:
        return node

    def rewrite(e):
        if isinstance(e, E.Var) and e.name in mapping:
            return mapping[e.name]
        return None

    return map_exprs(node, rewrite)


def rename_tensor(node, old: str, new: str):
    """Rename a tensor in loads, stores, reductions and its VarDef."""

    class Renamer(Mutator):

        def mutate_Load(self, e):
            if e.var != old:
                return self.generic_mutate_expr(e)
            return E.Load(new, [self.mutate_expr(i) for i in e.indices],
                          e.dtype)

        def mutate_VarDef(self, s):
            if s.name != old:
                return self.generic_mutate_stmt(s)
            body = self.mutate_stmt(s.body)
            out = S.VarDef(new, [self.mutate_expr(d) for d in s.shape],
                           s.dtype, s.atype, s.mtype, body, s.pinned)
            out.sid, out.label, out.init_data = s.sid, s.label, s.init_data
            return out

        def mutate_Store(self, s):
            if s.var != old:
                return self.generic_mutate_stmt(s)
            out = S.Store(new, [self.mutate_expr(i) for i in s.indices],
                          self.mutate_expr(s.expr))
            out.sid, out.label = s.sid, s.label
            return out

        def mutate_ReduceTo(self, s):
            if s.var != old:
                return self.generic_mutate_stmt(s)
            out = S.ReduceTo(new, [self.mutate_expr(i) for i in s.indices],
                             s.op, self.mutate_expr(s.expr), s.atomic)
            out.sid, out.label = s.sid, s.label
            return out

        def mutate_LibCall(self, s):
            if old not in s.outs and old not in s.args:
                return s
            ren = lambda n: new if n == old else n
            out = S.LibCall(s.kind, [ren(n) for n in s.outs],
                            [ren(n) for n in s.args], s.attrs)
            out.sid, out.label = s.sid, s.label
            return out

    return Renamer()(node)


class _Copier(Mutator):
    """Copies every statement under a fresh sid, dropping labels."""

    def mutate_stmt(self, s):
        span = s.span
        out = self.generic_mutate_stmt(s)
        if out is s:  # a leaf: the walk hands back the input node itself
            out = copy.copy(s)
        out.sid = S.fresh_sid()
        out.label = None
        if span is not None:
            out.span = span  # the copy still comes from the same line
        return out


def fresh_copy(stmt: S.Stmt) -> S.Stmt:
    """Copy a statement tree, assigning fresh sids (labels dropped);
    expressions are shared with the input.

    Used by ``unroll``/``blend``-style transformations that duplicate code:
    the duplicates must not alias the original statements' identities.
    """
    return _Copier()(stmt)


def collect_stmts(node, pred: Callable[[S.Stmt], bool]) -> List[S.Stmt]:
    """All statements in pre-order satisfying ``pred``."""
    if isinstance(node, S.Func):
        node = node.body
    found: List[S.Stmt] = []

    def walk(s: S.Stmt):
        if pred(s):
            found.append(s)
        for c in s.children_stmts():
            walk(c)

    walk(node)
    return found


def find_stmt(node, sid_or_label: str) -> S.Stmt:
    """Find the unique statement with the given sid or label."""
    hits = collect_stmts(
        node, lambda s: s.sid == sid_or_label or s.label == sid_or_label)
    if not hits:
        raise KeyError(f"no statement {sid_or_label!r}")
    if len(hits) > 1:
        raise KeyError(f"statement selector {sid_or_label!r} is ambiguous "
                       f"({len(hits)} matches)")
    return hits[0]


def defined_tensors(node) -> Dict[str, S.VarDef]:
    """Map every tensor name to its defining VarDef."""
    return {d.name: d for d in collect_stmts(
        node, lambda s: isinstance(s, S.VarDef))}


def reads_of(node) -> Dict[str, List[E.Load]]:
    """All Load nodes in a statement tree, grouped by tensor name."""
    if isinstance(node, S.Func):
        node = node.body
    out: Dict[str, List[E.Load]] = {}

    def walk_stmt(s: S.Stmt):
        for e in s.child_exprs():
            walk_expr(e)
        for c in s.children_stmts():
            walk_stmt(c)

    def walk_expr(e: E.Expr):
        if isinstance(e, E.Load):
            out.setdefault(e.var, []).append(e)
        for c in e.children():
            walk_expr(c)

    walk_stmt(node)
    return out


def writes_of(node) -> Dict[str, List[S.Stmt]]:
    """All Store/ReduceTo statements, grouped by tensor name."""
    out: Dict[str, List[S.Stmt]] = {}
    for s in collect_stmts(node,
                           lambda s: isinstance(s, (S.Store, S.ReduceTo))):
        out.setdefault(s.var, []).append(s)
    for s in collect_stmts(node, lambda s: isinstance(s, S.LibCall)):
        for name in s.outs:
            out.setdefault(name, []).append(s)
    return out


def used_names(node) -> set:
    """Names of all tensors and scalar vars referenced anywhere."""
    names: set = set()

    def expr_names(e: E.Expr):
        if isinstance(e, E.Var):
            names.add(e.name)
        if isinstance(e, E.Load):
            names.add(e.var)
        for c in e.children():
            expr_names(c)

    def walk(s: S.Stmt):
        if isinstance(s, S.VarDef):
            names.add(s.name)
        if isinstance(s, S.For):
            names.add(s.iter_var)
        if isinstance(s, (S.Store, S.ReduceTo, S.Alloc, S.Free)):
            names.add(s.var)
        if isinstance(s, S.LibCall):
            names.update(s.outs)
            names.update(s.args)
        for e in s.child_exprs():
            expr_names(e)
        for c in s.children_stmts():
            walk(c)

    walk(node.body if isinstance(node, S.Func) else node)
    return names


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A name derived from ``base`` that is not in ``taken``."""
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}.{i}" in taken:
        i += 1
    return f"{base}.{i}"


def count_nodes(node) -> int:
    """Total number of statements and expressions in a tree."""
    total = 0

    def walk_expr(e):
        nonlocal total
        total += 1
        for c in e.children():
            walk_expr(c)

    def walk(s):
        nonlocal total
        total += 1
        for e in s.child_exprs():
            walk_expr(e)
        for c in s.children_stmts():
            walk(c)

    walk(node.body if isinstance(node, S.Func) else node)
    return total


# ---------------------------------------------------------------------------
# Structural matching (with Any/AnyExpr wildcards) for tests
# ---------------------------------------------------------------------------


def match(pattern, node) -> bool:
    """Whether ``node`` matches ``pattern`` structurally.

    :class:`repro.ir.stmt.Any` in the pattern matches any statement;
    :class:`repro.ir.expr.AnyExpr` matches any expression. Statement ids and
    labels are ignored. Iterator names must match exactly.
    """
    if isinstance(pattern, S.Func) and isinstance(node, S.Func):
        return match(pattern.body, node.body)
    if isinstance(pattern, E.Expr) or isinstance(node, E.Expr):
        if not (isinstance(pattern, E.Expr) and isinstance(node, E.Expr)):
            return False
        return E.same_expr(pattern, node)
    if isinstance(pattern, S.Any):
        return True
    if type(pattern) is not type(node):
        # A one-element StmtSeq is equivalent to its element.
        if isinstance(pattern, S.StmtSeq) and len(pattern.stmts) == 1:
            return match(pattern.stmts[0], node)
        if isinstance(node, S.StmtSeq) and len(node.stmts) == 1:
            return match(pattern, node.stmts[0])
        return False
    if isinstance(pattern, S.StmtSeq):
        return (len(pattern.stmts) == len(node.stmts) and all(
            match(p, n) for p, n in zip(pattern.stmts, node.stmts)))
    if isinstance(pattern, S.VarDef):
        return (pattern.name == node.name and pattern.dtype is node.dtype
                and len(pattern.shape) == len(node.shape) and all(
                    E.same_expr(p, n)
                    for p, n in zip(pattern.shape, node.shape))
                and match(pattern.body, node.body))
    if isinstance(pattern, S.For):
        return (pattern.iter_var == node.iter_var
                and E.same_expr(pattern.begin, node.begin)
                and E.same_expr(pattern.end, node.end)
                and match(pattern.body, node.body))
    if isinstance(pattern, S.If):
        if not E.same_expr(pattern.cond, node.cond):
            return False
        if not match(pattern.then_case, node.then_case):
            return False
        if (pattern.else_case is None) != (node.else_case is None):
            return False
        return (pattern.else_case is None
                or match(pattern.else_case, node.else_case))
    if isinstance(pattern, S.Store):
        return (pattern.var == node.var
                and len(pattern.indices) == len(node.indices) and all(
                    E.same_expr(p, n)
                    for p, n in zip(pattern.indices, node.indices))
                and E.same_expr(pattern.expr, node.expr))
    if isinstance(pattern, S.ReduceTo):
        return (pattern.var == node.var and pattern.op == node.op
                and len(pattern.indices) == len(node.indices) and all(
                    E.same_expr(p, n)
                    for p, n in zip(pattern.indices, node.indices))
                and E.same_expr(pattern.expr, node.expr))
    if isinstance(pattern, S.Eval):
        return E.same_expr(pattern.expr, node.expr)
    if isinstance(pattern, S.Assert):
        return (E.same_expr(pattern.cond, node.cond)
                and match(pattern.body, node.body))
    if isinstance(pattern, S.LibCall):
        return (pattern.kind == node.kind and pattern.outs == node.outs
                and pattern.args == node.args)
    if isinstance(pattern, (S.Alloc, S.Free)):
        return pattern.var == node.var
    return False  # pragma: no cover - exhaustive above
