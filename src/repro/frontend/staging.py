"""Staging: turning free-form Python functions into FreeTensor IR.

``@transform`` rewrites a function's AST so that, when executed once with
symbolic arguments, it *emits* IR instead of computing values:

* ``for i in range(...)`` loops become :class:`~repro.ir.stmt.For` nodes
  (any other iterable loops run natively at staging time);
* ``if`` statements on **symbolic** conditions become
  :class:`~repro.ir.stmt.If` nodes, while ``if`` statements on **concrete**
  compile-time values execute natively — this is the paper's *partial
  evaluation* (section 4.1): conditions over tensor meta-data (``.ndim``,
  concrete shapes) are decided during staging, so dimension-free recursion
  unrolls into nested loops;
* function calls execute at staging time, i.e. every call is inlined
  (paper section 3.2, "always-inlined function calls");
* assignments and augmented assignments on tensors emit ``Store`` /
  ``ReduceTo`` nodes.

``@inline`` applies the same rewriting but stages into the *caller's*
context instead of producing a standalone program — use it for helper
functions (the operator library ``repro.libop`` is built this way).
"""

from __future__ import annotations

import ast
import copy
import functools
import inspect
import textwrap
import threading
from typing import Dict, List, Optional

from ..errors import StagingError
from ..ir import Expr, Func, IntConst, Var, wrap
from ..state import BoundedMemo
from .context import Builder
from .source import register_staged
from .tensor import (Size, Tensor, TensorRef, _TensorAnnotation, as_expr,
                     ft_abs, ft_max, ft_min)

# ---------------------------------------------------------------------------
# The active-context stack (supports nested inlining)
# ---------------------------------------------------------------------------

class _Staging(threading.local):
    """What the calling thread is staging: the active-context,
    symbol-table and parameter-spec stacks and the @inline depth. Per
    thread, because threads stage at once (a server's dispatchers stage
    endpoint variants on first use) and each must see only its own
    program."""

    def __init__(self):
        self.ctx: List[Builder] = []
        self.symbols: List["_SymbolTable"] = []
        self.specs: List[Dict[str, "ParamSpec"]] = []
        #: nesting depth of @inline helper calls (0 = the top body)
        self.inline_depth = 0


_STAGING = _Staging()


def cur_ctx() -> Builder:
    """The innermost active staging context."""
    stack = _STAGING.ctx
    if not stack:
        raise StagingError(
            "no active staging context; DSL constructs can only run inside "
            "a @transform-ed function")
    return stack[-1]


def in_staging() -> bool:
    """Whether staging is currently active."""
    return bool(_STAGING.ctx)


# ---------------------------------------------------------------------------
# Helpers callable from user-level DSL code
# ---------------------------------------------------------------------------


def empty(shape, dtype="f32", mtype=None) -> TensorRef:
    """Create an uninitialised tensor (paper's ``create_var``)."""
    ctx = cur_ctx()
    if not isinstance(shape, (tuple, list)):
        shape = (shape,)
    marker = ctx.define("t", [wrap(_as_dim(s)) for s in shape], dtype,
                        "cache", mtype)
    marker.fresh_unbound = True
    return TensorRef.full_view(ctx, marker)


def _as_dim(s):
    if isinstance(s, TensorRef):
        return s.as_load()
    if isinstance(s, str):
        if not _STAGING.symbols:
            raise StagingError(
                f"named dimension {s!r} outside a @transform context")
        return _STAGING.symbols[-1].resolve(s)
    return s


create_var = empty  # the paper's name for it


def zeros(shape, dtype="f32", mtype=None) -> TensorRef:
    """Create a tensor filled with zeros."""
    t = empty(shape, dtype, mtype)
    t[...] = 0.0 if t.dtype.is_float else 0
    return t


def ones(shape, dtype="f32", mtype=None) -> TensorRef:
    """Create a tensor filled with ones."""
    t = empty(shape, dtype, mtype)
    t[...] = 1.0 if t.dtype.is_float else 1
    return t


def label(name: str):
    """Attach a label to the next staged statement (for schedules)."""
    cur_ctx().set_label(name)


def capture(array, dtype=None, mtype=None) -> TensorRef:
    """Embed a concrete NumPy array as a compile-time constant tensor."""
    import numpy as np

    from ..ir import from_numpy_dtype

    ctx = cur_ctx()
    array = np.asarray(array)
    dt = dtype if dtype is not None else from_numpy_dtype(array.dtype).value
    marker = ctx.define("const", list(array.shape), dt, "cache", mtype)
    marker.init_data = array  # picked up by backends
    return TensorRef.full_view(ctx, marker)


# ---------------------------------------------------------------------------
# The runtime namespace used by rewritten code (bound as ``__ft__``)
# ---------------------------------------------------------------------------

_UNDEF = object()


class _DeferredParam:
    """A parameter not yet declared (declaration appears in the body)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _StagingRuntime:
    """Namespace of helpers that rewritten code calls (as ``__ft__.*``)."""

    # -- control flow -----------------------------------------------------
    @staticmethod
    def for_range(name, *args):
        if len(args) == 1:
            begin, end, step = 0, args[0], 1
        elif len(args) == 2:
            begin, end, step = args[0], args[1], 1
        elif len(args) == 3:
            begin, end, step = args
        else:
            raise StagingError("range() takes 1 to 3 arguments")
        begin = _coerce_int(begin)
        end = _coerce_int(end)
        if isinstance(step, Expr):
            if isinstance(step, IntConst):
                step = step.val
            else:
                raise StagingError("loop step must be a compile-time int")
        return cur_ctx().for_range(name, begin, end, step)

    @staticmethod
    def is_symbolic(cond) -> bool:
        return isinstance(cond, (Expr, TensorRef))

    @staticmethod
    def if_ctx(cond):
        return cur_ctx().if_stmt(as_expr(cond))

    @staticmethod
    def else_ctx():
        return cur_ctx().else_stmt()

    @staticmethod
    def assert_(cond):
        if isinstance(cond, (Expr, TensorRef)):
            cur_ctx().assert_stmt(as_expr(cond))
        else:
            assert cond

    # -- bindings -------------------------------------------------------------
    @staticmethod
    def try_lookup(thunk):
        try:
            return thunk()
        except (NameError, UnboundLocalError):
            return _UNDEF

    @staticmethod
    def assign(name: str, value, prev):
        """Semantics of ``name = value`` during staging.

        * new float scalar (Python float or float-typed expression) —
          materialise a 0-D tensor (so it can be updated inside loops);
        * new int/bool scalar or expression — stays a compile-time value;
        * tensor value — copy by value into a fresh tensor (paper 3.1);
        * rebinding an existing tensor — element-wise store into it.
        """
        if isinstance(prev, TensorRef) and prev.marker is not None \
                and prev.marker.closed:
            # the previous binding's scope has ended (e.g. a loop-local
            # scalar reused in a later loop): this is a fresh definition
            prev = _UNDEF
        if isinstance(prev, TensorRef) and not isinstance(prev,
                                                          _DeferredParam):
            if isinstance(value, TensorRef) and value.ndim == prev.ndim:
                prev._assign(value)
                return prev
            if prev.ndim == 0 and isinstance(value, (int, float, bool, Expr)):
                prev._assign(value)
                return prev
            if isinstance(value,
                          (int, float, bool, Expr)) and prev.ndim > 0:
                prev._assign(value)  # broadcast fill
                return prev
        if isinstance(value, TensorRef) and value.marker is not None \
                and value.marker.fresh_unbound and not value.marker.closed \
                and _is_full_view(value):
            # Binding a freshly-created temporary: rename instead of copy.
            marker = value.marker
            marker.fresh_unbound = False
            cur_ctx().rename_everywhere(marker.name, name)
            return TensorRef.full_view(cur_ctx(), marker)
        if isinstance(value, TensorRef):
            if value.ndim == 0:
                return _materialise_scalar(name, value.as_load())
            return _copy_tensor(name, value)
        if isinstance(value, Expr) and value.dtype.is_float:
            return _materialise_scalar(name, value)
        if isinstance(value, float):
            return _materialise_scalar(name, wrap(value))
        return value

    @staticmethod
    def aug(op: str, prev, value):
        """Semantics of ``name op= value`` during staging."""
        if isinstance(prev, TensorRef):
            if prev.marker is not None and prev.marker.closed:
                raise StagingError(
                    f"tensor {prev.name!r} is updated outside the scope "
                    f"it was defined in")
            _reduce_into(prev, op, value)
            return prev
        if isinstance(prev, Expr) or isinstance(value, (Expr, TensorRef)):
            return _APPLY_BIN[op](prev, _scalarise(value))
        return _APPLY_BIN[op](prev, value)  # plain Python

    @staticmethod
    def aug_setitem(obj, index, op: str, value):
        """Semantics of ``obj[index] op= value`` during staging."""
        if isinstance(obj, TensorRef):
            _reduce_into(obj[index], op, value)
            return
        obj[index] = _APPLY_BIN[op](obj[index], value)

    @staticmethod
    def declare(name: str, annotation, prev):
        if not isinstance(annotation, _TensorAnnotation):
            raise StagingError(
                f"declaration of {name!r} must use Tensor[shape, dtype, "
                f"atype(, mtype)]")
        if isinstance(prev, _DeferredParam) or prev is _UNDEF:
            return _declare_tensor_param(name, annotation)
        raise StagingError(
            f"{name!r} is already bound; tensor declarations must come "
            f"before any use")

    @staticmethod
    def ret(value):
        if _STAGING.inline_depth > 0:
            # returning from an @inline helper: a plain value hand-off
            return value
        ctx = cur_ctx()
        if len(ctx._scopes) != 1:
            raise StagingError(
                "return inside staged control flow is not supported; "
                "return once at the end of the function")
        if value is None:
            return None
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            _return_one(ctx, item)
        return value

    # -- boolean operators (short-circuit is lost on symbolic values) -------
    @staticmethod
    def and_(*args):
        out = args[0]
        for a in args[1:]:
            if isinstance(out, (Expr, TensorRef)) or \
                    isinstance(a, (Expr, TensorRef)):
                out = as_expr(out).logical_and(as_expr(a))
            else:
                out = out and a
        return out

    @staticmethod
    def or_(*args):
        out = args[0]
        for a in args[1:]:
            if isinstance(out, (Expr, TensorRef)) or \
                    isinstance(a, (Expr, TensorRef)):
                out = as_expr(out).logical_or(as_expr(a))
            else:
                out = out or a
        return out

    @staticmethod
    def not_(x):
        if isinstance(x, (Expr, TensorRef)):
            return as_expr(x).logical_not()
        return not x

    # -- rewritten builtins ------------------------------------------------
    @staticmethod
    def min_(*args):
        if _all_concrete(args):
            return min(*args)
        return ft_min(*args)

    @staticmethod
    def max_(*args):
        if _all_concrete(args):
            return max(*args)
        return ft_max(*args)

    @staticmethod
    def abs_(x):
        if isinstance(x, (Expr, TensorRef)):
            return ft_abs(x)
        return abs(x)

    @staticmethod
    def len_(x):
        if isinstance(x, TensorRef):
            return x.shape(0)
        return len(x)


_APPLY_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
}


def _all_concrete(args) -> bool:
    if len(args) == 1 and isinstance(args[0], (list, tuple)):
        args = args[0]
    return all(isinstance(a, (int, float, bool)) for a in args)


def _scalarise(v):
    return v.as_load() if isinstance(v, TensorRef) else v


def _coerce_int(v):
    if isinstance(v, TensorRef):
        return v.as_load()
    return v


def _materialise_scalar(name: str, value: Expr) -> TensorRef:
    ctx = cur_ctx()
    marker = ctx.define(name, (), value.dtype, "cache", None)
    ref = TensorRef.full_view(ctx, marker)
    ref._assign(value)
    return ref


def _copy_tensor(name: str, value: TensorRef) -> TensorRef:
    ctx = cur_ctx()
    shape = [d[2] for d in value.dims if d[0] == "range"]
    marker = ctx.define(name, shape, value.dtype, "cache",
                        value.mtype or ctx.default_mtype)
    ref = TensorRef.full_view(ctx, marker)
    ref._assign(value)
    return ref


def _reduce_into(target: TensorRef, op: str, value):
    if op in ("+", "*"):
        target._reduce(op, value)
    elif op == "-":
        target._reduce("+", _negate(value))
    elif op == "/":
        target._reduce("*", 1.0 / value if not isinstance(value, TensorRef)
                       else 1.0 / value.as_load())
    else:
        raise StagingError(f"unsupported in-place operator {op!r} on tensors")


def _negate(v):
    if isinstance(v, TensorRef):
        return -v
    return -v


def _return_one(ctx: Builder, item):
    if not isinstance(item, TensorRef):
        raise StagingError("only tensors can be returned from DSL functions")
    if item.marker is not None and _is_full_view(item):
        ctx.mark_return(item.name)
        return
    # Returning a view or computed slice: copy into a fresh output tensor.
    out = _copy_tensor("out", item)
    ctx.mark_return(out.name)


def _is_full_view(ref: TensorRef) -> bool:
    if ref.marker is None or len(ref.dims) != len(ref.marker.shape):
        return False
    from ..ir import same_expr

    for d, s in zip(ref.dims, ref.marker.shape):
        if d[0] != "range":
            return False
        if not (isinstance(d[1], IntConst) and d[1].val == 0):
            return False
        if not same_expr(d[2], s):
            return False
    return True


# ---------------------------------------------------------------------------
# Declaration of parameters
# ---------------------------------------------------------------------------


class _SymbolTable:
    """Per-staging map from string dimension names to scalar parameters."""

    def __init__(self, ctx: Builder):
        self.ctx = ctx
        self.syms: Dict[str, Var] = {}

    def resolve(self, dim):
        if isinstance(dim, str):
            if dim not in self.syms:
                self.syms[dim] = self.ctx.declare_scalar_param(dim)
            return self.syms[dim]
        if isinstance(dim, (int, Expr)):
            return dim
        if isinstance(dim, TensorRef):
            return dim.as_load()
        raise StagingError(f"bad dimension spec: {dim!r}")




class ParamSpec:
    """Annotation-level description of a tensor parameter (for the driver)."""

    __slots__ = ("name", "shape", "dtype", "atype", "mtype")

    def __init__(self, name, shape, dtype, atype, mtype):
        self.name = name
        self.shape = tuple(shape)  # entries: int | str | Expr
        self.dtype = dtype
        self.atype = atype
        self.mtype = mtype

    def __repr__(self):  # pragma: no cover
        return (f"ParamSpec({self.name}, {self.shape}, {self.dtype}, "
                f"{self.atype})")


def _declare_tensor_param(name: str, ann: _TensorAnnotation) -> TensorRef:
    ctx = cur_ctx()
    if not _STAGING.symbols:
        raise StagingError("tensor parameters can only be declared while "
                           "staging a @transform-ed function")
    symtab = _STAGING.symbols[-1]
    shape = [symtab.resolve(d) for d in ann.shape]
    marker = ctx.define(name, shape, ann.dtype, ann.atype,
                        ann.mtype if ann.mtype is not None else None)
    if marker.name != name:
        raise StagingError(f"duplicate tensor parameter {name!r}")
    ctx.declare_param(marker)
    _STAGING.specs[-1][name] = ParamSpec(name, ann.shape, marker.dtype,
                                     marker.atype, marker.mtype)
    return TensorRef.full_view(ctx, marker)


# ---------------------------------------------------------------------------
# AST rewriting
# ---------------------------------------------------------------------------

_BINOP_SYMBOL = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}

_REWRITTEN_BUILTINS = {"min": "min_", "max": "max_", "abs": "abs_",
                       "len": "len_"}


def _name(id_, ctx=ast.Load()):
    return ast.Name(id=id_, ctx=ctx)


def _ft_attr(attr):
    return ast.Attribute(value=_name("__ft__"), attr=attr, ctx=ast.Load())


def _call(fn, args, keywords=()):
    return ast.Call(func=fn, args=list(args), keywords=list(keywords))


class _Rewriter(ast.NodeTransformer):
    """Rewrites a user function body into staging code."""

    def __init__(self):
        self._tmp = 0

    def visit(self, node):
        # Replacement nodes inherit the original node's source location, so
        # the compiled code (and the spans captured from it) points at the
        # user's line, not at whatever fix_missing_locations would guess.
        out = super().visit(node)
        if hasattr(node, "lineno"):
            for new in out if isinstance(out, list) else (out,):
                if isinstance(new, ast.AST) and isinstance(
                        new, (ast.stmt, ast.expr)):
                    ast.copy_location(new, node)
        return out

    def _fresh(self) -> str:
        self._tmp += 1
        return f"__ft_c{self._tmp}"

    # -- loops ------------------------------------------------------------
    def visit_For(self, node: ast.For):
        self.generic_visit(node)
        it = node.iter
        is_range = (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range")
        if not is_range:
            return node  # native Python loop (static unrolling)
        if node.orelse:
            raise StagingError("for/else is not supported in staged loops")
        if not isinstance(node.target, ast.Name):
            raise StagingError("staged loops need a single iterator name")
        rng_args = [ast.Constant(value=node.target.id)] + it.args
        item = ast.withitem(
            context_expr=_call(_ft_attr("for_range"), rng_args),
            optional_vars=ast.Name(id=node.target.id, ctx=ast.Store()))
        return ast.With(items=[item], body=node.body)

    def visit_While(self, node):
        raise StagingError("while loops are not supported in the DSL "
                           "(loop trip counts must be range()-expressible)")

    # -- conditionals ----------------------------------------------------
    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        cond_name = self._fresh()
        assign_cond = ast.Assign(
            targets=[ast.Name(id=cond_name, ctx=ast.Store())],
            value=node.test)
        then_a, then_b = node.body, copy.deepcopy(node.body)
        else_a = node.orelse
        else_b = copy.deepcopy(node.orelse)
        staged: List[ast.stmt] = [
            ast.With(items=[
                ast.withitem(context_expr=_call(_ft_attr("if_ctx"),
                                                [_name(cond_name)]))
            ],
                     body=then_a)
        ]
        if else_a:
            staged.append(
                ast.With(items=[
                    ast.withitem(context_expr=_call(_ft_attr("else_ctx"), []))
                ],
                         body=else_a))
        native = ast.If(test=_name(cond_name), body=then_b, orelse=else_b)
        dispatch = ast.If(test=_call(_ft_attr("is_symbolic"),
                                     [_name(cond_name)]),
                          body=staged,
                          orelse=[native])
        return [assign_cond, dispatch]

    # -- assignments -----------------------------------------------------
    def visit_Assign(self, node: ast.Assign):
        self.generic_visit(node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            lookup = _call(
                _ft_attr("try_lookup"),
                [ast.Lambda(args=_empty_args(), body=_name(name))])
            call = _call(_ft_attr("assign"),
                         [ast.Constant(value=name), node.value, lookup])
            return ast.Assign(targets=node.targets, value=call)
        return node

    def visit_AugAssign(self, node: ast.AugAssign):
        self.generic_visit(node)
        op = _BINOP_SYMBOL.get(type(node.op))
        if op is None:
            return node
        if isinstance(node.target, ast.Name):
            name = node.target.id
            call = _call(_ft_attr("aug"), [
                ast.Constant(value=op),
                _name(name), node.value
            ])
            return ast.Assign(targets=[ast.Name(id=name, ctx=ast.Store())],
                              value=call)
        if isinstance(node.target, ast.Subscript):
            obj = node.target.value
            index = node.target.slice
            idx_expr = _subscript_index_ast(index)
            return ast.Expr(value=_call(
                _ft_attr("aug_setitem"),
                [obj, idx_expr,
                 ast.Constant(value=op), node.value]))
        return node

    def visit_AnnAssign(self, node: ast.AnnAssign):
        self.generic_visit(node)
        if node.value is None and isinstance(node.target, ast.Name):
            name = node.target.id
            lookup = _call(
                _ft_attr("try_lookup"),
                [ast.Lambda(args=_empty_args(), body=_name(name))])
            call = _call(
                _ft_attr("declare"),
                [ast.Constant(value=name), node.annotation, lookup])
            return ast.Assign(
                targets=[ast.Name(id=name, ctx=ast.Store())], value=call)
        if node.value is not None and isinstance(node.target, ast.Name):
            return self.visit_Assign(
                ast.Assign(targets=[ast.Name(id=node.target.id,
                                             ctx=ast.Store())],
                           value=node.value))
        return node

    # -- returns / asserts --------------------------------------------------
    def visit_Return(self, node: ast.Return):
        self.generic_visit(node)
        value = node.value if node.value is not None else ast.Constant(
            value=None)
        return ast.Return(value=_call(_ft_attr("ret"), [value]))

    def visit_Assert(self, node: ast.Assert):
        self.generic_visit(node)
        return ast.Expr(value=_call(_ft_attr("assert_"), [node.test]))

    # -- builtin call rewriting ----------------------------------------------
    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and \
                node.func.id in _REWRITTEN_BUILTINS and not node.keywords:
            node.func = _ft_attr(_REWRITTEN_BUILTINS[node.func.id])
        return node

    # -- boolean operators -------------------------------------------------
    def visit_BoolOp(self, node: ast.BoolOp):
        self.generic_visit(node)
        fn = "and_" if isinstance(node.op, ast.And) else "or_"
        # NOTE: short-circuit evaluation is lost (operands may be
        # symbolic); see the staging docs
        return _call(_ft_attr(fn), node.values)

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return _call(_ft_attr("not_"), [node.operand])
        return node


def _empty_args():
    return ast.arguments(posonlyargs=[],
                         args=[],
                         vararg=None,
                         kwonlyargs=[],
                         kw_defaults=[],
                         kwarg=None,
                         defaults=[])


def _subscript_index_ast(index: ast.expr) -> ast.expr:
    return index


# ---------------------------------------------------------------------------
# Rewriting a function object
# ---------------------------------------------------------------------------


#: source function's code object (and file) -> the compiled module code
#: of its rewritten ``def``, a pure function of the two: the ``libop``
#: helpers every program inlines are parsed and compiled once
_STAGED_CODE = BoundedMemo("staged_code", 512)


def _staged_module_code(fn):
    # code objects compare by content but not by file: name the file too
    key = (fn.__code__.co_filename, fn.__code__)
    code = _STAGED_CODE.get(key)
    if code is not None:
        return code
    try:
        src = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:  # pragma: no cover - env-specific
        raise StagingError(
            f"cannot get source of {fn.__name__}: {exc}") from exc
    tree = ast.parse(src)
    fdef = tree.body[0]
    if not isinstance(fdef, (ast.FunctionDef,)):
        raise StagingError("@transform expects a plain function")
    fdef.decorator_list = []
    fdef.body = [_rw for stmt in fdef.body
                 for _rw in _as_list(_Rewriter().visit(stmt))]
    # Strip parameter annotations so they are not evaluated at def-time.
    for a in fdef.args.args + fdef.args.kwonlyargs:
        a.annotation = None
    fdef.returns = None
    ast.fix_missing_locations(tree)
    # Compile against the real source file with the original line numbers:
    # `getsource` starts at the decorator, whose line is co_firstlineno, so
    # shifting the parsed tree realigns every node with the file on disk.
    # Statements staged from these code objects then carry usable spans
    # (see frontend.source and the `span` attribute on IR statements).
    filename = None
    try:
        filename = inspect.getsourcefile(fn)
    except TypeError:  # pragma: no cover - builtins etc.
        pass
    if filename is None:  # pragma: no cover - env-specific
        filename = f"<staged {fn.__name__}>"
    first_line = getattr(fn.__code__, "co_firstlineno", 1)
    if first_line > 1:
        ast.increment_lineno(tree, first_line - 1)
    code = compile(tree, filename=filename, mode="exec")
    _STAGED_CODE.put(key, code)
    return code


def _rewrite_function(fn) -> "function":
    code = _staged_module_code(fn)
    # the def is executed per call: each gets its own function object
    # over this caller's globals and this closure's cell contents
    if fn.__closure__:
        namespace = dict(fn.__globals__)
        for var, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                namespace[var] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                pass
    else:
        namespace = fn.__globals__
    namespace["__ft__"] = _StagingRuntime
    exec(code, namespace)
    staged = namespace.pop(fn.__name__)
    staged.__ft_namespace__ = namespace
    register_staged(staged.__code__)
    return staged


def _as_list(x):
    return x if isinstance(x, list) else [x]


# ---------------------------------------------------------------------------
# Public decorators
# ---------------------------------------------------------------------------


class Program:
    """A staged DSL function: IR plus parameter metadata.

    Calling a Program compiles it on demand with the default target and
    runs it (see ``repro.runtime.driver`` for explicit control).
    """

    def __init__(self, func: Func, tensor_specs: Dict[str, ParamSpec],
                 pyfunc):
        self.func = func
        self.tensor_specs = tensor_specs
        self.pyfunc = pyfunc
        self._default_exe = None

    @property
    def name(self) -> str:
        return self.func.name

    def __call__(self, *args, **kwargs):
        if in_staging():
            raise StagingError(
                f"call the undecorated body or an @inline helper instead of "
                f"the compiled program {self.name!r} during staging")
        if self._default_exe is None:
            from ..runtime.driver import build

            self._default_exe = build(self)
        return self._default_exe(*args, **kwargs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Program {self.name} at {id(self):#x}>\n{self.func!r}"


def transform(fn=None, *, default_mtype: str = "cpu", name: Optional[str] = None):
    """Stage a Python function into a :class:`Program` (IR), at decoration
    time. Keyword form: ``@transform(default_mtype="gpu")``.
    """
    if fn is None:
        return functools.partial(transform,
                                 default_mtype=default_mtype,
                                 name=name)

    staged = _rewrite_function(fn)
    sig = inspect.signature(fn)

    ctx = Builder(default_mtype=default_mtype)
    symtab = _SymbolTable(ctx)
    specs: Dict[str, ParamSpec] = {}
    _STAGING.ctx.append(ctx)
    _STAGING.symbols.append(symtab)
    _STAGING.specs.append(specs)
    ann_ns = dict(fn.__globals__)
    if fn.__closure__:
        for var, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                ann_ns[var] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                pass
    try:
        call_args = []
        for pname, p in sig.parameters.items():
            ann = p.annotation
            if isinstance(ann, str):
                # `from __future__ import annotations` stringises them
                try:
                    ann = eval(ann, ann_ns)  # noqa: S307 - trusted source
                except Exception as exc:
                    raise StagingError(
                        f"cannot evaluate annotation of parameter "
                        f"{pname!r}: {exc}") from exc
            if isinstance(ann, _TensorAnnotation):
                call_args.append(_declare_tensor_param(pname, ann))
            elif ann is Size or ann is int:
                if pname in symtab.syms:
                    call_args.append(symtab.syms[pname])
                else:
                    call_args.append(ctx.declare_scalar_param(pname))
                    symtab.syms[pname] = Var(pname)
            elif p.default is not inspect.Parameter.empty:
                call_args.append(p.default)
            else:
                call_args.append(_DeferredParam(pname))
        staged(*call_args)
        body = ctx.finish()
    finally:
        _STAGING.ctx.pop()
        _STAGING.symbols.pop()
        _STAGING.specs.pop()

    func = Func(name or fn.__name__,
                params=ctx.params,
                returns=ctx.returns,
                body=body,
                scalar_params=ctx.scalar_params)
    program = Program(func, specs, fn)
    functools.update_wrapper(program, fn, updated=())
    return program


def inline(fn):
    """Mark a helper as inlinable into staged code.

    The helper's control flow is rewritten like a @transform-ed function,
    but it emits into the caller's context. Calling an @inline function
    outside staging raises :class:`StagingError`.
    """
    staged = _rewrite_function(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not in_staging():
            raise StagingError(
                f"@inline function {fn.__name__!r} can only be called from "
                f"staged code")
        _STAGING.inline_depth += 1
        try:
            return staged(*args, **kwargs)
        finally:
            _STAGING.inline_depth -= 1

    wrapper.__ft_inline__ = True
    # Make self-recursion resolve to the rewritten function even when the
    # helper was defined in a closure (the exec namespace is a snapshot).
    staged.__ft_namespace__[fn.__name__] = wrapper
    return wrapper
