"""Stable structural hashing of IR trees.

The compile-path caches (the build cache in ``repro.runtime.driver``, the
lowering memo in ``repro.pipeline.manager`` and the incremental
dependence analysis in ``repro.analysis.deps``) all need a cheap,
*content-addressed* identity for IR subtrees: two trees that would
compile to the same artifact must hash equal, and any semantic
difference must change the hash.

Two flavours are provided:

- ``include_sids=False`` (the default): statement ids are ignored, so two
  structurally identical programs staged independently hash equal. This is
  the right key for caching *compilation outputs* (generated code does not
  depend on sids).
- ``include_sids=True``: statement identity participates, so the hash also
  distinguishes trees that only differ in which statements schedules can
  address. This is the right key for caching *schedule-facing* artifacts
  (lowered functions whose sids later transformations target).

Hashes are computed in one linear walk — orders of magnitude cheaper than
the passes and polyhedral queries they guard.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from . import expr as E
from . import stmt as S


def expr_fingerprint(e: E.Expr):
    """A hashable tuple uniquely identifying an expression tree."""
    return e.key()


def _prop_fingerprint(p: S.ForProperty):
    return (p.parallel, p.unroll, p.vectorize, tuple(p.no_deps),
            p.prefer_libs)


def _data_fingerprint(data):
    """Fingerprint for VarDef.init_data (a NumPy array or None)."""
    if data is None:
        return None
    try:
        import numpy as np

        arr = np.asarray(data)
        digest = hashlib.blake2b(arr.tobytes(), digest_size=8).hexdigest()
        return (tuple(arr.shape), arr.dtype.str, digest)
    except Exception:  # pragma: no cover - exotic captured payloads
        return repr(data)


def stmt_fingerprint(s: S.Stmt, include_sids: bool = False,
                     sid_map: Optional[dict] = None):
    """A hashable tuple uniquely identifying a statement tree.

    ``sid_map``, when given with ``include_sids``, translates statement
    ids before they enter the fingerprint. The on-disk compile cache uses
    this to hash trees under *canonical* (preorder-renumbered) ids, so
    two processes that staged the same program with different absolute
    sid values produce the same key (see ``repro.cache.serial``).
    """
    def fp(c, _inc=include_sids):
        return stmt_fingerprint(c, _inc, sid_map)

    if include_sids:
        sid = s.sid if sid_map is None else sid_map.get(s.sid, s.sid)
    else:
        sid = None
    t = type(s).__name__
    if isinstance(s, S.StmtSeq):
        return (t, sid, tuple(fp(c, include_sids) for c in s.stmts))
    if isinstance(s, S.VarDef):
        return (t, sid, s.name, tuple(d.key() for d in s.shape),
                s.dtype.value, s.atype.value, s.mtype.value, s.pinned,
                _data_fingerprint(s.init_data), fp(s.body, include_sids))
    if isinstance(s, S.For):
        return (t, sid, s.iter_var, s.begin.key(), s.end.key(),
                _prop_fingerprint(s.property), fp(s.body, include_sids))
    if isinstance(s, S.If):
        return (t, sid, s.cond.key(), fp(s.then_case, include_sids),
                None if s.else_case is None else fp(s.else_case,
                                                    include_sids))
    if isinstance(s, S.Store):
        return (t, sid, s.var, tuple(i.key() for i in s.indices),
                s.expr.key())
    if isinstance(s, S.ReduceTo):
        return (t, sid, s.var, tuple(i.key() for i in s.indices), s.op,
                s.expr.key(), s.atomic)
    if isinstance(s, S.Eval):
        return (t, sid, s.expr.key())
    if isinstance(s, S.Assert):
        return (t, sid, s.cond.key(), fp(s.body, include_sids))
    if isinstance(s, (S.Alloc, S.Free)):
        return (t, sid, s.var)
    if isinstance(s, S.LibCall):
        return (t, sid, s.kind, s.outs, s.args,
                tuple(sorted((k, repr(v)) for k, v in s.attrs.items())))
    if isinstance(s, S.Any):
        return (t, sid)
    raise TypeError(f"cannot fingerprint {t}")  # pragma: no cover


def func_fingerprint(func: S.Func, include_sids: bool = False,
                     sid_map: Optional[dict] = None):
    """A hashable tuple uniquely identifying a Func."""
    return ("Func", func.name, tuple(func.params),
            tuple(func.scalar_params), tuple(func.returns),
            stmt_fingerprint(func.body, include_sids, sid_map))


def fingerprint(node, include_sids: bool = False,
                sid_map: Optional[dict] = None):
    """Fingerprint any IR node (Func, Stmt or Expr)."""
    if isinstance(node, S.Func):
        return func_fingerprint(node, include_sids, sid_map)
    if isinstance(node, S.Stmt):
        return stmt_fingerprint(node, include_sids, sid_map)
    if isinstance(node, E.Expr):
        return expr_fingerprint(node)
    raise TypeError(f"cannot fingerprint {type(node).__name__}")


def struct_hash(node, include_sids: bool = False,
                sid_map: Optional[dict] = None) -> str:
    """A short stable content hash (hex digest) of any IR node."""
    fp = fingerprint(node, include_sids, sid_map)
    return hashlib.blake2b(repr(fp).encode(), digest_size=16).hexdigest()
