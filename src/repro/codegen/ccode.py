"""C/OpenMP backend: IR -> C99 source -> gcc -> ctypes-loaded native code.

This is the reproduction's CPU vendor-compiler path (the paper generates
OpenMP code and compiles it with gcc, section 4.3). Loops marked
``parallelize`` emit ``#pragma omp parallel for``, vectorized loops emit
``#pragma omp simd``, atomic reductions emit ``#pragma omp atomic``.
Integer ``//`` and ``%`` follow Python (floor) semantics via helpers.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import suppress
from typing import Dict, List, Optional

import numpy as np

from ..errors import BackendError
from ..ir import (AccessType, DataType, Func, Load, MemType, Stmt, VarDef,
                  defined_tensors)
from ..ir import expr as E
from ..ir import stmt as S

# gcc only allows simd-safe constructs inside an ``omp simd`` region;
# the simd_suppress pass clears vectorize markings this backend could
# not honour (declared on the "c" Backend in repro.backend.builtin), so
# codegen below can emit the pragma unconditionally

_CTYPE = {
    DataType.FLOAT32: "float",
    DataType.FLOAT64: "double",
    DataType.INT32: "int32_t",
    DataType.INT64: "int64_t",
    DataType.BOOL: "uint8_t",
}

_INTRIN_C = {
    "abs": "fabs",
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "sin": "sin",
    "cos": "cos",
    "tan": "tan",
    "tanh": "tanh",
    "sigmoid": "ft_sigmoid",
    "floor": "floor",
    "ceil": "ceil",
    "erf": "erf",
}

_LIBM = [fn for fn in _INTRIN_C.values() if not fn.startswith("ft_")]

#: every declaration a unit may need beyond <stdint.h> and <stddef.h>, in
#: the order a unit declares the ones it uses: prototypes of the libc and
#: libm functions it calls (gcc spends ~10 ms per unit parsing <stdlib.h>,
#: <math.h> and <omp.h>, which no kernel needs), then the helpers
_DECLS = {
    "malloc": "void *malloc(size_t);",
    "free": "void free(void *);",
    **{fn: f"double {fn}(double);" for fn in _LIBM},
    **{fn + "f": f"float {fn}f(float);" for fn in _LIBM},
    "pow": "double pow(double, double);",
    "powf": "float powf(float, float);",
    "ft_floordiv": """\
static inline int64_t ft_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}""",
    "ft_mod": """\
static inline int64_t ft_mod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}""",
    "ft_sigmoid":
        "static inline double ft_sigmoid(double x) "
        "{ return 1.0/(1.0+exp(-x)); }",
    "ft_sigmoidf":
        "static inline float ft_sigmoidf(float x) "
        "{ return 1.0f/(1.0f+expf(-x)); }",
    "ft_matmul": """\
static void ft_matmul(double alpha_unused, const float* A, const float* B,
                      float* C, int64_t M, int64_t N, int64_t K,
                      int ta, int tb, int accumulate) {
    (void)alpha_unused;
    for (int64_t i = 0; i < M; i++) {
        for (int64_t j = 0; j < N; j++) {
            float acc = accumulate ? C[i*N + j] : 0.0f;
            for (int64_t k = 0; k < K; k++) {
                float a = ta ? A[k*M + i] : A[i*K + k];
                float b = tb ? B[j*K + k] : B[k*N + j];
                acc += a * b;
            }
            C[i*N + j] = acc;
        }
    }
}""",
}

#: what a helper itself calls
_HELPER_CALLS = {"ft_sigmoid": "exp", "ft_sigmoidf": "expf"}


class CCodegen:
    """Generates a C translation unit exporting ``void entry(void**)``."""

    #: the special float constants, as the gcc builtins <math.h> would
    #: expand them to
    INF, NAN = "__builtin_inff()", '__builtin_nanf("")'

    def __init__(self, func: Func):
        self.func = func
        self.defs = defined_tensors(func.body)
        self.lines: List[str] = []
        self.names: Dict[str, str] = {}
        self.taken = set()
        self.scalar_vars = set()
        self.interface = func.interface_tensors()
        self.param_set = set(self.interface)
        self.consts: List = []  # (mangled name, ndarray)
        #: per-statement-block CSE state: interned structural keys
        #: (shallow tuple -> small int, for the whole translation unit),
        #: the block's node-identity -> key table, and key -> temporary
        self._cse_intern: Dict[tuple, int] = {}
        self._cse_ids: Dict[int, int] = {}
        self._cse_map: Dict[int, str] = {}
        self._cse_counter = 0
        #: scalar targets currently lowered via an OpenMP reduction
        #: clause (their ReduceTo statements skip the atomic pragma)
        self._reduction_vars = set()
        #: 0-D interface tensors temporarily aliased to a C local while
        #: inside a reduction-clause loop
        self._scalar_alias: Dict[str, str] = {}
        #: the ``_DECLS`` names the unit's code calls
        self.used = set()

    def call(self, fn: str) -> str:
        """``fn``, recorded as called (with what it calls itself)."""
        self.used.add(fn)
        if fn in _HELPER_CALLS:
            self.used.add(_HELPER_CALLS[fn])
        return fn

    def prelude(self) -> str:
        """The headers and the declarations of what the unit calls."""
        return "#include <stdint.h>\n#include <stddef.h>\n\n" + "".join(
            text + "\n" for fn, text in _DECLS.items() if fn in self.used)

    # -- names -----------------------------------------------------------
    def mangle(self, name: str) -> str:
        if name not in self.names:
            base = "v_" + "".join(c if c.isalnum() else "_" for c in name)
            out, i = base, 1
            while out in self.taken:
                out = f"{base}_{i}"
                i += 1
            self.taken.add(out)
            self.names[name] = out
        return self.names[name]

    # -- common-subexpression elimination (per statement) --------------------
    @staticmethod
    def _cse_worth(e: E.Expr) -> bool:
        """Hoisting pays off for transcendental calls and larger trees."""
        def has_call(x):
            if isinstance(x, (E.Intrinsic, E.RealDiv)):
                return True
            return any(has_call(c) for c in x.children())

        def ops(x):
            n = 0 if isinstance(x, (E.Const, E.Var, Load)) else 1
            return n + sum(ops(c) for c in x.children())

        return has_call(e) or ops(e) >= 4

    def _key_id(self, e: E.Expr, kids: tuple) -> int:
        """The interned structural key of ``e`` given its children's:
        equal ints exactly where ``Expr.key()`` tuples are equal, built
        from one shallow tuple per node instead of the whole subtree."""
        if isinstance(e, E.Const):
            shallow = (type(e).__name__, e.val)
        elif isinstance(e, E.Var):
            shallow = ("Var", e.name)
        elif isinstance(e, Load):
            shallow = ("Load", e.var, kids)
        elif isinstance(e, E.Cast):
            shallow = ("Cast", kids, e.dtype.value)
        elif isinstance(e, E.Intrinsic):
            shallow = ("Intrinsic", e.name, kids)
        else:
            shallow = (type(e).__name__, kids)
        return self._cse_intern.setdefault(shallow, len(self._cse_intern))

    def _cse_key(self, e: E.Expr) -> int:
        """Key of a node ``pexpr`` meets while temporaries are installed:
        recorded by ``_emit_cse``'s walk, or (shape expressions of the
        indexed tensors) derived on the spot."""
        k = self._cse_ids.get(id(e))
        if k is None:
            k = self._key_id(e, tuple(self._cse_key(c)
                                      for c in e.children()))
        return k

    def _emit_cse(self, exprs, indent,
                  forbidden_reads=frozenset()) -> Dict[int, str]:
        """Emit temporaries for repeated subexpressions; returns the
        (block-local) substitution map installed in the printer.

        ``forbidden_reads``: tensors written inside the block — any
        subexpression loading one of them cannot be hoisted.
        """
        # one walk: every node's key is computed once, bottom-up from its
        # children's, and recorded by node identity for pexpr; visits are
        # kept in preorder, which fixes the order temporaries are named in
        visits: List = []
        ids = self._cse_ids

        def walk(e):
            slot = len(visits)
            visits.append(None)
            k = self._key_id(e, tuple([walk(c) for c in e.children()]))
            ids[id(e)] = k
            visits[slot] = (k, e)
            return k

        for e in exprs:
            walk(e)
        counts: Dict[int, int] = {}
        by_key: Dict[int, E.Expr] = {}
        for k, e in visits:
            counts[k] = counts.get(k, 0) + 1
            by_key.setdefault(k, e)
        cands = []

        def size(e):
            return 1 + sum(size(c) for c in e.children())

        def reads_forbidden(e):
            if isinstance(e, Load) and e.var in forbidden_reads:
                return True
            return any(reads_forbidden(c) for c in e.children())

        for k, e in by_key.items():
            if counts[k] >= 2 and not isinstance(e, (E.Const, E.Var,
                                                     Load)) \
                    and self._cse_worth(e) and not reads_forbidden(e):
                cands.append((size(e), k, e))
        cands.sort(key=lambda t: t[0])  # inner subtrees first
        installed = {}
        for _sz, k, e in cands:
            text = self.pexpr(e)  # uses previously-installed temps
            name = f"cse_{self._cse_counter}"
            self._cse_counter += 1
            self.line(indent, f"const {_CTYPE[e.dtype]} {name} = {text};")
            self._cse_map[k] = name
            installed[k] = name
        return installed

    def _clear_cse(self, installed: Dict[int, str]):
        for k in installed:
            self._cse_map.pop(k, None)
        self._cse_ids.clear()

    def line(self, indent: int, text: str):
        self.lines.append("    " * indent + text)

    # -- expressions ---------------------------------------------------------
    def _strides(self, name: str) -> List[str]:
        """Row-major stride expressions (as C source) for a tensor."""
        vd = self.defs[name]
        dims = [self.pexpr(d) for d in vd.shape]
        out = []
        for i in range(len(dims)):
            if i == len(dims) - 1:
                out.append("1")
            else:
                out.append("*".join(f"({d})" for d in dims[i + 1:]))
        return out

    def _index(self, name: str, indices) -> str:
        if name in self.scalar_vars:
            return self.mangle(name)
        if not indices:
            alias = self._scalar_alias.get(name)
            if alias is not None:
                return alias
            return f"{self.mangle(name)}[0]"
        strides = self._strides(name)
        parts = [f"({self.pexpr(i)})*({s})" if s != "1"
                 else f"({self.pexpr(i)})"
                 for i, s in zip(indices, strides)]
        return f"{self.mangle(name)}[{' + '.join(parts)}]"

    def pexpr(self, e: E.Expr) -> str:
        p = self.pexpr
        if self._cse_map and not isinstance(e, (E.Const, E.Var)):
            hit = self._cse_map.get(self._cse_key(e))
            if hit is not None:
                return hit
        if isinstance(e, E.IntConst):
            return f"{e.val}LL" if abs(e.val) > 2**31 else str(e.val)
        if isinstance(e, E.FloatConst):
            v = e.val
            if v != v:
                return self.NAN
            if v == float("inf"):
                return self.INF
            if v == float("-inf"):
                return "-" + self.INF
            return repr(v)
        if isinstance(e, E.BoolConst):
            return "1" if e.val else "0"
        if isinstance(e, E.Var):
            return self.mangle(e.name)
        if isinstance(e, Load):
            return self._index(e.var, e.indices)
        if isinstance(e, E.Add):
            return f"({p(e.lhs)} + {p(e.rhs)})"
        if isinstance(e, E.Sub):
            return f"({p(e.lhs)} - {p(e.rhs)})"
        if isinstance(e, E.Mul):
            return f"({p(e.lhs)} * {p(e.rhs)})"
        if isinstance(e, E.RealDiv):
            ct = "float" if e.dtype is DataType.FLOAT32 else "double"
            return f"(({ct})({p(e.lhs)}) / ({ct})({p(e.rhs)}))"
        if isinstance(e, E.FloorDiv):
            return f"{self.call('ft_floordiv')}({p(e.lhs)}, {p(e.rhs)})"
        if isinstance(e, E.Mod):
            return f"{self.call('ft_mod')}({p(e.lhs)}, {p(e.rhs)})"
        if isinstance(e, E.Min):
            a, b = p(e.lhs), p(e.rhs)
            return f"(({a}) < ({b}) ? ({a}) : ({b}))"
        if isinstance(e, E.Max):
            a, b = p(e.lhs), p(e.rhs)
            return f"(({a}) > ({b}) ? ({a}) : ({b}))"
        if isinstance(e, E.CmpOp):
            return f"({p(e.lhs)} {e.op_name} {p(e.rhs)})"
        if isinstance(e, E.LAnd):
            return f"({p(e.lhs)} && {p(e.rhs)})"
        if isinstance(e, E.LOr):
            return f"({p(e.lhs)} || {p(e.rhs)})"
        if isinstance(e, E.LNot):
            return f"(!{p(e.operand)})"
        if isinstance(e, E.IfExpr):
            return (f"(({p(e.cond)}) ? ({p(e.then_case)}) : "
                    f"({p(e.else_case)}))")
        if isinstance(e, E.Cast):
            return f"(({_CTYPE[e.dtype]})({p(e.operand)}))"
        if isinstance(e, E.Intrinsic):
            f32 = (e.dtype is DataType.FLOAT32 and all(
                a.dtype is DataType.FLOAT32 for a in e.args))
            if e.name == "pow":
                fn = self.call("powf" if f32 else "pow")
                return f"{fn}({p(e.args[0])}, {p(e.args[1])})"
            if e.name in ("unbound_min", "unbound_max"):
                op = "<" if e.name == "unbound_min" else ">"
                a, b = p(e.args[0]), p(e.args[1])
                return f"(({a}) {op} ({b}) ? ({a}) : ({b}))"
            fn = _INTRIN_C[e.name]
            if f32:  # single-precision math: ~2-4x faster on f32 data
                fn = "ft_sigmoidf" if fn == "ft_sigmoid" else fn + "f"
            return f"{self.call(fn)}({p(e.args[0])})"
        raise BackendError(f"C backend cannot lower {type(e).__name__}")

    # -- statements -------------------------------------------------------------
    def pstmt(self, s: Stmt, indent: int):
        if isinstance(s, S.StmtSeq):
            self._gen_seq(s.stmts, indent)
            return
        if isinstance(s, VarDef):
            self._gen_vardef(s, indent)
            return
        if isinstance(s, S.For):
            self._gen_for(s, indent)
            return
        if isinstance(s, S.If):
            self.line(indent, f"if ({self.pexpr(s.cond)}) {{")
            self.pstmt(s.then_case, indent + 1)
            if s.else_case is not None:
                self.line(indent, "} else {")
                self.pstmt(s.else_case, indent + 1)
            self.line(indent, "}")
            return
        if isinstance(s, (S.Store, S.ReduceTo)):
            self.line(indent, "{")
            installed = self._emit_cse([s.expr, *s.indices], indent + 1)
            self._gen_store_like(s, indent + 1)
            self._clear_cse(installed)
            self.line(indent, "}")
            return
        if isinstance(s, S.Assert):
            self.pstmt(s.body, indent)
            return
        if isinstance(s, S.Eval):
            self.line(indent, f"(void)({self.pexpr(s.expr)});")
            return
        if isinstance(s, (S.Alloc, S.Free)):
            return
        if isinstance(s, S.LibCall):
            self._gen_libcall(s, indent)
            return
        raise BackendError(f"C backend cannot lower {type(s).__name__}")

    def _gen_store_like(self, s, indent: int):
        if isinstance(s, S.Store):
            self.line(indent,
                      f"{self._index(s.var, s.indices)} = "
                      f"{self.pexpr(s.expr)};")
            return
        tgt = self._index(s.var, s.indices)
        val = self.pexpr(s.expr)
        atomic = s.atomic and s.var not in self._reduction_vars
        if atomic and s.op in ("+", "*"):
            self.line(indent, "#pragma omp atomic")
        if s.op in ("+", "*"):
            self.line(indent, f"{tgt} {s.op}= {val};")
        else:
            op = "<" if s.op == "min" else ">"
            if atomic:
                self.line(indent, "#pragma omp critical")
                self.line(indent, "{")
                self.line(indent + 1,
                          f"if (({val}) {op} {tgt}) {tgt} = {val};")
                self.line(indent, "}")
            else:
                self.line(indent,
                          f"if (({val}) {op} {tgt}) {tgt} = {val};")

    def _gen_seq(self, stmts, indent: int):
        """Emit a statement list, hoisting subexpressions shared by runs
        of consecutive scalar stores (e.g. the adjoint groups AD emits)."""
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if not isinstance(s, (S.Store, S.ReduceTo)):
                self.pstmt(s, indent)
                i += 1
                continue
            j = i
            while j < len(stmts) and isinstance(stmts[j],
                                                (S.Store, S.ReduceTo)):
                j += 1
            run = stmts[i:j]
            if len(run) == 1:
                self.pstmt(run[0], indent)
            else:
                written = {c.var for c in run}
                exprs = []
                for c in run:
                    exprs.append(c.expr)
                    exprs.extend(c.indices)
                self.line(indent, "{")
                installed = self._emit_cse(exprs, indent + 1,
                                           forbidden_reads=written)
                for c in run:
                    self._gen_store_like(c, indent + 1)
                self._clear_cse(installed)
                self.line(indent, "}")
            i = j

    def _gen_vardef(self, s: VarDef, indent: int):
        if s.name in self.param_set:
            self.pstmt(s.body, indent)
            return
        name = self.mangle(s.name)
        ct = _CTYPE[s.dtype]
        if s.ndim == 0 and s.init_data is None:
            self.scalar_vars.add(s.name)
            self.line(indent, f"{ct} {name} = 0;")
            self.pstmt(s.body, indent)
            return
        size = " * ".join(f"(size_t)({self.pexpr(d)})"
                          for d in s.shape) or "1"
        self.line(indent, f"{ct}* {name} = ({ct}*){self.call('malloc')}("
                          f"({size}) * sizeof({ct}));")
        if s.init_data is not None:
            cname = f"c_{len(self.consts)}"
            self.consts.append((cname, np.ascontiguousarray(
                s.init_data, dtype=s.dtype.to_numpy())))
            self.line(indent, f"for (size_t q_ = 0; q_ < ({size}); q_++) "
                              f"{name}[q_] = {cname}[q_];")
        self.pstmt(s.body, indent)
        self.line(indent, f"{self.call('free')}({name});")

    _OMP_RED_OP = {"+": "+", "*": "*", "min": "min", "max": "max"}

    def _scalar_reductions(self, loop: S.For):
        """Scalar reduction targets lowered with an OpenMP ``reduction``
        clause instead of per-iteration atomics (paper Fig. 13(d)).

        Eligible targets are 0-D tensors defined outside the loop: plain
        C locals directly, interface scalars through a local alias."""
        from ..ir import collect_stmts

        ops = {}
        ok = set()
        for r in collect_stmts(loop.body,
                               lambda x: isinstance(x, S.ReduceTo)):
            is_scalar = (r.var in self.scalar_vars or
                         (not r.indices and r.var in self.defs and
                          self.defs[r.var].ndim == 0))
            if not is_scalar:
                continue
            prev = ops.get(r.var)
            if prev is None:
                ops[r.var] = r.op
                ok.add(r.var)
            elif prev != r.op:
                ok.discard(r.var)  # mixed operators: keep atomics
        # a target also written by a plain Store inside the loop cannot
        # use a reduction clause
        for w in collect_stmts(loop.body,
                               lambda x: isinstance(x, S.Store)):
            ok.discard(w.var)
        return {v: ops[v] for v in ok}

    def _gen_for(self, s: S.For, indent: int):
        it = self.mangle(s.iter_var)
        released = set()
        aliases = []  # (tensor name, local alias)
        if s.property.parallel:  # CUDA kinds degrade to OpenMP on CPU
            pragma = "#pragma omp parallel for"
            reds = self._scalar_reductions(s)
            for var, op in sorted(reds.items()):
                if var in self._reduction_vars:
                    continue
                if var in self.scalar_vars:
                    cname = self.mangle(var)
                else:
                    # interface 0-D tensor: reduce through a local alias
                    cname = f"red_{self.mangle(var)}"
                    ct = _CTYPE[self.defs[var].dtype]
                    self.line(indent,
                              f"{ct} {cname} = {self.mangle(var)}[0];")
                    aliases.append((var, cname))
                    self._scalar_alias[var] = cname
                pragma += f" reduction({self._OMP_RED_OP[op]}:{cname})"
                self._reduction_vars.add(var)
                released.add(var)
            self.line(indent, pragma)
        elif s.property.vectorize:
            # vectorize markings gcc cannot honour were cleared by the
            # simd_suppress legalization pass (repro.backend.builtin)
            self.line(indent, "#pragma omp simd")
        elif s.property.unroll:
            self.line(indent, "#pragma GCC unroll 8")
        self.line(indent,
                  f"for (int64_t {it} = {self.pexpr(s.begin)}; "
                  f"{it} < {self.pexpr(s.end)}; {it}++) {{")
        self.pstmt(s.body, indent + 1)
        self.line(indent, "}")
        self._reduction_vars -= released
        for var, cname in aliases:
            del self._scalar_alias[var]
            self.line(indent, f"{self.mangle(var)}[0] = {cname};")

    def _gen_libcall(self, s: S.LibCall, indent: int):
        if s.kind == "matmul":
            c, (a, b) = s.outs[0], s.args
            cd = self.defs[c]
            m = self.pexpr(cd.shape[0])
            n = self.pexpr(cd.shape[1])
            ad = self.defs[a]
            ta = 1 if s.attrs.get("trans_a") else 0
            k = self.pexpr(ad.shape[0] if ta else ad.shape[1])
            acc = 1 if s.attrs.get("accumulate") else 0
            tb = 1 if s.attrs.get("trans_b") else 0
            self.line(indent,
                      f"{self.call('ft_matmul')}(0.0, {self.mangle(a)}, "
                      f"{self.mangle(b)},"
                      f" {self.mangle(c)}, {m}, {n}, {k}, {ta}, {tb},"
                      f" {acc});")
            return
        if s.kind == "fill":
            out = s.outs[0]
            size = " * ".join(f"(size_t)({self.pexpr(d)})"
                              for d in self.defs[out].shape) or "1"
            self.line(indent,
                      f"for (size_t q_ = 0; q_ < ({size}); q_++) "
                      f"{self.mangle(out)}[q_] = {s.attrs['value']};")
            return
        if s.kind == "copy":
            out, src = s.outs[0], s.args[0]
            size = " * ".join(f"(size_t)({self.pexpr(d)})"
                              for d in self.defs[out].shape) or "1"
            self.line(indent,
                      f"for (size_t q_ = 0; q_ < ({size}); q_++) "
                      f"{self.mangle(out)}[q_] = {self.mangle(src)}[q_];")
            return
        raise BackendError(f"C backend: unknown library call {s.kind!r}")

    # -- entry ------------------------------------------------------------------
    def generate(self) -> str:
        self.lines = []
        args = []
        for p in self.interface:
            ct = _CTYPE[self.defs[p].dtype]
            args.append(f"{ct}* {self.mangle(p)}")
        for p in self.func.scalar_params:
            args.append(f"int64_t {self.mangle(p)}")
        self.line(0, f"void kernel({', '.join(args)}) {{")
        self.pstmt(self.func.body, 1)
        self.line(0, "}")
        const_decls = []
        for cname, arr in self.consts:
            ct = _CTYPE[DataType.parse(str(arr.dtype))] \
                if str(arr.dtype) in ("float32", "float64", "int32",
                                      "int64") else "float"
            flat = ", ".join(repr(x) for x in arr.ravel().tolist())
            const_decls.append(
                f"static const {ct} {cname}[] = {{{flat}}};")
        return self.prelude() + "\n" + "\n".join(const_decls) + "\n\n" + \
            "\n".join(self.lines) + "\n"


#: ``_ADDRESS.from_buffer(arr)`` passes as a ``c_void_p`` argument and
#: costs 0.35 us where ``arr.ctypes.data`` costs 1.2 us (NumPy builds a
#: helper object per access); it needs a writable buffer, so read-only
#: inputs take the slower spelling of the same address
_ADDRESS = ctypes.c_char * 0

#: the per-process native directory of ``REPRO_NO_DISK_CACHE=1`` runs
_TEMP_DIR = None


def _cache_dir() -> str:
    """Native artifact directory.

    With the persistent cache on (the default) this is the ``native``
    directory of whichever store ``REPRO_CACHE_DIR`` names right now, so
    kernels survive the process, are shared machine-wide and sit beside
    the IR entries that lead to them. When ``REPRO_NO_DISK_CACHE=1`` it
    is a per-process temp directory that is removed at interpreter exit.
    """
    global _TEMP_DIR
    from ..cache import store as disk_store

    shared = disk_store.get_store()
    if shared is not None:
        cdir = shared.native_dir()
        os.makedirs(cdir, exist_ok=True)
        return cdir
    if _TEMP_DIR is None:
        import atexit
        import shutil
        import tempfile

        _TEMP_DIR = tempfile.mkdtemp(prefix="repro_cc_")
        atexit.register(shutil.rmtree, _TEMP_DIR, ignore_errors=True)
    return _TEMP_DIR


def compile_func_native(func: Func, cc: str = "gcc", openmp: bool = True,
                        opt: str = "-O3 -march=native -fno-math-errno",
                        **_opts):
    """Compile a legalized Func (``compile_ir``'s output for backend
    ``c``) with the host C compiler; returns ``run(env)``.

    Artifacts are content-addressed by the full gcc input — generated
    source, compiler identity (``cc --version``) and flags — so any
    process that ever compiled this translation unit on this machine
    already paid for the ``.so`` everyone else loads. Concurrent builders
    of one key serialize on a per-key lock file, and the winner publishes
    with an atomic rename so readers never observe a half-written object.

    A ``"native"`` index entry in the persistent store leads from the
    tree (``cache.keys.native_index_key``) to that digest, so a warm
    process loads the ``.so`` without generating the source; an entry
    whose kernel was evicted is no answer (regenerate, rebuild, re-index).
    """
    from ..cache.keys import native_digest, native_index_key
    from ..pipeline.manager import product_store

    cdir = _cache_dir()
    src = lib = None
    disk = product_store()
    if disk is not None:
        key = native_index_key(func, cc, opt, openmp)
        lib = disk.lookup("native", key, lambda entry: _load_kernel(
            os.path.join(cdir, f"k{entry['digest']}.so")))
    if lib is None:
        src = CCodegen(func).generate()
        digest = native_digest(src, cc, opt, openmp)
        stem = os.path.join(cdir, f"k{digest}")
        lib = _load_kernel(stem + ".so")
        if lib is None:
            _build_native(src, cc, opt, openmp, stem)
            lib = ctypes.CDLL(stem + ".so")
        if disk is not None:
            disk.store("native", key, lambda: {"digest": digest})
    kernel = lib.kernel
    defs = defined_tensors(func.body)
    tensors = [(p, defs[p].dtype.to_numpy())
               for p in func.interface_tensors()]
    scalars = list(func.scalar_params)
    kernel.argtypes = [ctypes.c_void_p] * len(tensors) + \
        [ctypes.c_int64] * len(scalars)
    kernel.restype = None

    def run(env):
        # The kernel takes raw addresses: dtype and C-contiguity are the
        # binder's contract (Executable._bind establishes both), so what
        # is left here is one comparison per array, for environments
        # built by hand (Executable.run_env).
        args, copied = [], []
        for p, np_dt in tensors:
            given = env[p]
            arr = given if isinstance(given, np.ndarray) and \
                given.flags.c_contiguous else np.ascontiguousarray(given)
            if arr.dtype != np_dt:
                raise TypeError(
                    f"parameter {p!r} expects {np_dt} data, got "
                    f"{arr.dtype}")
            if arr is not given:
                # env keeps the original alive; this keeps the temporary
                # alive until the kernel returns
                copied.append((given, arr))
            args.append(_ADDRESS.from_buffer(arr) if arr.flags.writeable
                        else arr.ctypes.data)
        for p in scalars:
            args.append(int(env[p]))
        kernel(*args)
        for given, arr in copied:  # e.g. a non-contiguous inout
            given[...] = arr

    def source() -> str:
        # the twin gcc compiled, kept beside the .so; else the same text
        try:
            with open(lib._name[:-3] + ".c") as f:
                return f.read()
        except OSError:
            return CCodegen(func).generate()

    # the text when this call generated it, else how to get it
    run.__ft_source__ = src or source
    return run


def _load_kernel(so_path: str):
    """The compiled kernel at ``so_path``, or None when there is none."""
    from ..runtime import metrics

    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    with suppress(OSError):  # LRU recency for the shared store's GC
        os.utime(so_path)
    metrics.DISK.add("native_hits")
    return lib


def _build_native(src: str, cc: str, opt: str, openmp: bool, stem: str):
    """Compile ``src`` and publish ``<stem>.so`` (and its ``.c`` twin)
    atomically: one winner per key across processes."""
    import subprocess
    import time as _time

    from ..runtime import metrics

    metrics.DISK.add("native_misses")
    lock = open(stem + ".lock", "w")
    # gcc dispatches on the suffix, so the temp names keep .c / .so and
    # embed the pid before it (unique per concurrent builder)
    tmp_c = f"{stem}.{os.getpid()}.tmp.c"
    tmp_so = f"{stem}.{os.getpid()}.tmp.so"
    try:
        try:
            import fcntl

            fcntl.flock(lock, fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - non-posix
            pass
        if os.path.exists(stem + ".so"):  # raced: another process built it
            return
        t0 = _time.perf_counter()
        with open(tmp_c, "w") as f:
            f.write(src)
        cmd = [cc, *opt.split(), "-shared", "-fPIC", "-o", tmp_so,
               tmp_c, "-lm"]
        if openmp:
            cmd.insert(2, "-fopenmp")
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except FileNotFoundError:
            raise BackendError(f"C compiler {cc!r} not found") from None
        except subprocess.CalledProcessError as exc:
            raise BackendError(
                f"gcc failed:\n{exc.stderr}\n--- source ---\n{src}"
            ) from None
        metrics.record_gcc_run(_time.perf_counter() - t0)
        # keep the source beside the object (debugging aid), then publish
        os.replace(tmp_c, stem + ".c")
        os.replace(tmp_so, stem + ".so")
    finally:
        for tmp in (tmp_c, tmp_so):
            with suppress(OSError):
                os.unlink(tmp)
        lock.close()
