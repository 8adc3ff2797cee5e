"""Shared machinery for schedule transformations: locating statements,
replacing subtrees, and collecting context."""

from __future__ import annotations

import copy
from typing import List, Optional

from ..errors import InvalidSchedule
from ..ir import (For, Func, If, Stmt, StmtSeq, collect_stmts, fresh_name,
                  used_names)


def find_stmt(root: Stmt, selector) -> Stmt:
    """Resolve a selector (sid, label, or Stmt) to a unique statement."""
    if isinstance(selector, Stmt):
        selector = selector.sid
    hits = collect_stmts(
        root, lambda s: s.sid == selector or s.label == selector)
    if not hits:
        raise InvalidSchedule(f"no statement matching {selector!r}")
    if len(hits) > 1:
        raise InvalidSchedule(
            f"selector {selector!r} is ambiguous ({len(hits)} matches)")
    return hits[0]


def find_loop(root: Stmt, selector) -> For:
    s = find_stmt(root, selector)
    if not isinstance(s, For):
        raise InvalidSchedule(f"{selector!r} is not a loop")
    return s


def _with_child(parent: Stmt, old: Stmt, new: Stmt) -> Stmt:
    """A shallow copy of ``parent`` (same sid, label and other children)
    whose child ``old`` is ``new``."""
    out = copy.copy(parent)
    if isinstance(parent, StmtSeq):
        k = next(i for i, c in enumerate(parent.stmts) if c is old)
        out.stmts = parent.stmts[:k] + [new] + parent.stmts[k + 1:]
    elif isinstance(parent, If):
        if parent.then_case is old:
            out.then_case = new
        else:
            out.else_case = new
    else:  # VarDef, For, Assert
        out.body = new
    return out


def replace_stmt(root, sid: str, new_stmt_or_fn) -> Stmt:
    """Replace the statement with ``sid``; ``new_stmt_or_fn`` is either the
    replacement or a function old->new.

    Only the spine from ``root`` down to the statement is rebuilt, one
    shallow copy per ancestor; every other subtree is shared with
    ``root``."""
    path = path_to(root, sid)
    new = new_stmt_or_fn(path[-1]) if callable(new_stmt_or_fn) \
        else new_stmt_or_fn
    for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
        new = _with_child(parent, child, new)
    if isinstance(root, Func):
        return Func(root.name, list(root.params), list(root.returns), new,
                    scalar_params=list(root.scalar_params))
    return new


def path_to(root: Stmt, sid: str) -> List[Stmt]:
    """The chain of statements from ``root`` down to the statement with
    ``sid`` (inclusive)."""
    path: List[Stmt] = []

    def walk(s: Stmt) -> bool:
        path.append(s)
        if s.sid == sid:
            return True
        for c in s.children_stmts():
            if walk(c):
                return True
        path.pop()
        return False

    start = root.body if isinstance(root, Func) else root
    if not walk(start):
        raise InvalidSchedule(f"statement {sid!r} not found")
    return path


def parent_of(root: Stmt, sid: str) -> Optional[Stmt]:
    path = path_to(root, sid)
    return path[-2] if len(path) >= 2 else None


def loops_on_path(root, sid: str) -> List[For]:
    """Loops enclosing (strictly above) the statement with ``sid``."""
    return [s for s in path_to(root, sid)[:-1] if isinstance(s, For)]


def fresh_iter(root, base: str) -> str:
    return fresh_name(base, used_names(root))


def only_stmt_of(loop: For) -> Optional[Stmt]:
    """The single statement of a loop body, unwrapping trivial sequences."""
    body = loop.body
    while isinstance(body, StmtSeq):
        if len(body.stmts) != 1:
            return None
        body = body.stmts[0]
    return body


def perfectly_nested(outer: For, inner_sel: str) -> List[For]:
    """The chain of perfectly nested loops from ``outer`` down to the loop
    with sid/label ``inner_sel``; raises if the nest is imperfect."""
    chain = [outer]
    cur = outer
    while cur.sid != inner_sel and cur.label != inner_sel:
        nxt = only_stmt_of(cur)
        if not isinstance(nxt, For):
            raise InvalidSchedule(
                f"loops between {outer.sid} and {inner_sel} are not "
                f"perfectly nested")
        chain.append(nxt)
        cur = nxt
    return chain


def stmts_of_body(body: Stmt) -> List[Stmt]:
    """Body statements as a list (single statements become one-element)."""
    if isinstance(body, StmtSeq):
        return list(body.stmts)
    return [body]
