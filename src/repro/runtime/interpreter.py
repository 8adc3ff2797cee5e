"""Reference interpreter for the IR.

Executes a :class:`~repro.ir.stmt.Func` directly over NumPy buffers, one
scalar operation at a time. It is deliberately simple — it is the executable
semantics of the IR, used as the golden reference against which the code
generators are tested, and as the paper's "Julia"-like *fine-grained but
unoptimised* execution mode in the benchmarks.

Optionally charges its accesses, FLOPs and footprint to a
:class:`repro.runtime.gpusim.Device`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..analysis.cost.model import COUNT_FIELDS, op_category
from ..errors import InvalidProgram
from ..ir import expr as E
from ..ir import stmt as S


class OpCounts:
    """Dynamic operation counter — the cost model's ground-truth oracle.

    Counts every event the static analysis (``repro.analysis.cost``)
    claims to predict, on the *same* axes (``COUNT_FIELDS``) and with the
    interpreter's one ``op_category`` classification of each expression
    node, so static-vs-dynamic comparisons are apples to apples: on an
    exact estimate the two agree to the operation; on a sound one the
    static side is an upper bound. Pass an instance as
    ``Interpreter(op_counts=...)`` to enable it.
    """

    __slots__ = COUNT_FIELDS

    def __init__(self):
        self.reset()

    def reset(self):
        for f in COUNT_FIELDS:
            setattr(self, f, 0)

    def note(self, category: str):
        setattr(self, category, getattr(self, category) + 1)

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in COUNT_FIELDS}

    def __repr__(self):  # pragma: no cover - debugging aid
        body = ", ".join(f"{f}={getattr(self, f)}" for f in COUNT_FIELDS
                         if getattr(self, f))
        return f"OpCounts({body})"


_INTRIN_IMPL = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": lambda a, b: a**b,
    "erf": math.erf,
    "unbound_min": min,
    "unbound_max": max,
}


class Interpreter:
    """Evaluates IR over an environment of NumPy buffers and scalars."""

    def __init__(self, metrics=None, op_counts: Optional[OpCounts] = None):
        self.metrics = metrics
        self.ops = op_counts

    # -- expressions ------------------------------------------------------
    def eval_expr(self, e: E.Expr, env: Dict[str, object]):
        ev = self.eval_expr
        if self.metrics is not None or self.ops is not None:
            self._count(e)
        if isinstance(e, E.Const):
            return e.val
        if isinstance(e, E.Var):
            try:
                return env[e.name]
            except KeyError:
                raise InvalidProgram(f"unbound scalar {e.name!r}") from None
        if isinstance(e, E.Load):
            buf = env[e.var]
            idx = tuple(int(ev(i, env)) for i in e.indices)
            if self.metrics is not None:
                self.metrics.on_access(buf, idx)
            if idx:
                return buf[idx]
            return buf[()] if isinstance(buf, np.ndarray) else buf
        if isinstance(e, E.Add):
            return ev(e.lhs, env) + ev(e.rhs, env)
        if isinstance(e, E.Sub):
            return ev(e.lhs, env) - ev(e.rhs, env)
        if isinstance(e, E.Mul):
            return ev(e.lhs, env) * ev(e.rhs, env)
        if isinstance(e, E.RealDiv):
            return ev(e.lhs, env) / ev(e.rhs, env)
        if isinstance(e, E.FloorDiv):
            return ev(e.lhs, env) // ev(e.rhs, env)
        if isinstance(e, E.Mod):
            return ev(e.lhs, env) % ev(e.rhs, env)
        if isinstance(e, E.Min):
            return min(ev(e.lhs, env), ev(e.rhs, env))
        if isinstance(e, E.Max):
            return max(ev(e.lhs, env), ev(e.rhs, env))
        if isinstance(e, E.LT):
            return ev(e.lhs, env) < ev(e.rhs, env)
        if isinstance(e, E.LE):
            return ev(e.lhs, env) <= ev(e.rhs, env)
        if isinstance(e, E.GT):
            return ev(e.lhs, env) > ev(e.rhs, env)
        if isinstance(e, E.GE):
            return ev(e.lhs, env) >= ev(e.rhs, env)
        if isinstance(e, E.EQ):
            return ev(e.lhs, env) == ev(e.rhs, env)
        if isinstance(e, E.NE):
            return ev(e.lhs, env) != ev(e.rhs, env)
        if isinstance(e, E.LAnd):
            return bool(ev(e.lhs, env)) and bool(ev(e.rhs, env))
        if isinstance(e, E.LOr):
            return bool(ev(e.lhs, env)) or bool(ev(e.rhs, env))
        if isinstance(e, E.LNot):
            return not bool(ev(e.operand, env))
        if isinstance(e, E.IfExpr):
            if ev(e.cond, env):
                return ev(e.then_case, env)
            return ev(e.else_case, env)
        if isinstance(e, E.Cast):
            v = ev(e.operand, env)
            if e.dtype.is_float:
                return float(v)
            if e.dtype.is_bool:
                return bool(v)
            return int(v)
        if isinstance(e, E.Intrinsic):
            args = [ev(a, env) for a in e.args]
            return _INTRIN_IMPL[e.name](*args)
        raise InvalidProgram(
            f"cannot interpret {type(e).__name__}")  # pragma: no cover

    def _count(self, e: E.Expr):
        """Charge one evaluation of ``e``'s root node to the counting
        axis ``op_category`` assigns it; a flop also goes to the device."""
        cat = op_category(e)
        if cat is None:
            return
        if self.ops is not None:
            self.ops.note(cat)
        if cat == "flops" and self.metrics is not None:
            self.metrics.on_flop(1)

    def _shape(self, vardef: S.VarDef, env) -> tuple:
        return tuple(int(self.eval_expr(d, env)) for d in vardef.shape)

    # -- statements ----------------------------------------------------------
    def exec_stmt(self, s: S.Stmt, env: Dict[str, object]):
        ex = self.exec_stmt
        if isinstance(s, S.StmtSeq):
            for c in s.stmts:
                ex(c, env)
            return
        if isinstance(s, S.VarDef):
            if s.name in env:  # a parameter, already bound by the driver
                ex(s.body, env)
                return
            shape = self._shape(s, env)
            buf = np.empty(shape, dtype=s.dtype.to_numpy())
            if s.init_data is not None:
                buf[...] = s.init_data
            if self.metrics is not None:
                self.metrics.on_alloc(buf, s.mtype)
            env[s.name] = buf
            try:
                ex(s.body, env)
            finally:
                if self.metrics is not None:
                    self.metrics.on_free(buf, s.mtype)
                del env[s.name]
            return
        if isinstance(s, S.For):
            begin = int(self.eval_expr(s.begin, env))
            end = int(self.eval_expr(s.end, env))
            if self.ops is not None:
                self.ops.iters += max(0, end - begin)
            body = s.body
            for i in range(begin, end):
                env[s.iter_var] = i
                ex(body, env)
            env.pop(s.iter_var, None)
            return
        if isinstance(s, S.If):
            if self.eval_expr(s.cond, env):
                ex(s.then_case, env)
            elif s.else_case is not None:
                ex(s.else_case, env)
            return
        if isinstance(s, S.Store):
            buf = env[s.var]
            idx = tuple(int(self.eval_expr(i, env)) for i in s.indices)
            val = self.eval_expr(s.expr, env)
            if self.ops is not None:
                self.ops.stores += 1
            if self.metrics is not None:
                self.metrics.on_access(buf, idx)
            buf[idx if idx else ()] = val
            return
        if isinstance(s, S.ReduceTo):
            buf = env[s.var]
            idx = tuple(int(self.eval_expr(i, env)) for i in s.indices)
            val = self.eval_expr(s.expr, env)
            key = idx if idx else ()
            if self.ops is not None:
                self.ops.reduces += 1
            if self.metrics is not None:
                self.metrics.on_access(buf, idx)
                self.metrics.on_flop(1)
            if s.op == "+":
                buf[key] += val
            elif s.op == "*":
                buf[key] *= val
            elif s.op == "min":
                buf[key] = min(buf[key], val)
            else:
                buf[key] = max(buf[key], val)
            return
        if isinstance(s, S.Assert):
            if not self.eval_expr(s.cond, env):
                raise AssertionError(f"IR assertion failed: {s.cond!r}")
            ex(s.body, env)
            return
        if isinstance(s, S.Eval):
            self.eval_expr(s.expr, env)
            return
        if isinstance(s, (S.Alloc, S.Free)):
            return
        if isinstance(s, S.LibCall):
            self._exec_libcall(s, env)
            return
        raise InvalidProgram(
            f"cannot interpret {type(s).__name__}")  # pragma: no cover

    def _exec_libcall(self, s: S.LibCall, env):
        from .libcalls import run_libcall

        if self.ops is not None:
            # the kernel's interior is vendor code: count the invocation
            # only, exactly like the static side
            self.ops.lib_calls += 1
        run_libcall(s, env, metrics=self.metrics)

    # -- entry point ----------------------------------------------------------
    def run(self, func: S.Func, env: Dict[str, object]):
        """Execute ``func.body`` in-place over ``env`` (name -> buffer)."""
        self.exec_stmt(func.body, env)
        return env
