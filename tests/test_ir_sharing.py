"""Rewrites share what they do not change.

``Mutator`` is copy-on-write, a mutator that rewrites no expression never
enters one, ``replace_stmt`` rebuilds only the spine from the root to
its target, and ``simplify`` builds each integer sum's linear form once,
from its operands' forms, in one sweep. Two things are pinned here:

- the compile path produces the same programs the rebuild-everything
  implementation, the re-linearizing ``simplify`` and the fixed-point
  loop of ``simplify`` sweeps produced. All three are kept below, in this
  file only, as references of a differential oracle;
- no rewrite writes into its input, whose subtrees are now shared with
  its output, with the pass cache and with parent schedules.
"""

import random

import pytest

import repro as ft
from repro.ad import grad
from repro.autosched.search.space import ScheduleSpace
from repro.codegen.ccode import CCodegen
from repro.cache.serial import canonical_key
from repro.errors import InvalidSchedule
from repro.ir import (Alloc, DataType, Eval, For, Free, LibCall, Load, Store,
                      StmtSeq, Var, collect_stmts, count_nodes, fresh_copy,
                      map_exprs, rename_tensor, struct_hash, substitute)
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.hashing import fingerprint
from repro.ir.visitor import Mutator
from repro.passes import flatten_stmt_seq, simplify_pass
from repro.backend.builtin import suppress_illegal_simd
from repro.pipeline import compile_ir, legalization_passes, lowering_passes
from repro.schedule import (Schedule, common, loop_trans, mem_trans,
                            misc_trans, parallel_trans)
from repro.workloads import ALL

BACKENDS = ("c", "pycode", "npblock")
GRAD_REQUIRES = {"subdivnet": ["e", "w"], "longformer": ["q", "k", "v"],
                 "softras": ["verts"]}
#: the random assignment each workload's search space is realized with
#: (it applies reorder, split, parallelize and vectorize on all four)
REALIZE_SEED = 5


# ---------------------------------------------------------------------------
# the reference: every rewrite rebuilds every node it visits
# ---------------------------------------------------------------------------


def _rebuild_expr(self, e):
    if isinstance(e, (E.Const, E.Var, E.AnyExpr)):
        return e
    if isinstance(e, E.Load):
        return E.Load(e.var, [self.mutate_expr(i) for i in e.indices],
                      e.dtype)
    if isinstance(e, E.CmpOp):
        return E.makeCmp(type(e), self.mutate_expr(e.lhs),
                         self.mutate_expr(e.rhs))
    if isinstance(e, E.BinOp):
        make = self._FOLDING.get(type(e))
        if make is not None:
            return make(self.mutate_expr(e.lhs), self.mutate_expr(e.rhs))
        return type(e)(self.mutate_expr(e.lhs), self.mutate_expr(e.rhs))
    if isinstance(e, E.LNot):
        return E.makeLNot(self.mutate_expr(e.operand))
    if isinstance(e, E.IfExpr):
        return E.makeIfExpr(self.mutate_expr(e.cond),
                            self.mutate_expr(e.then_case),
                            self.mutate_expr(e.else_case))
    if isinstance(e, E.Cast):
        return E.makeCast(self.mutate_expr(e.operand), e.dtype)
    if isinstance(e, E.Intrinsic):
        return E.makeIntrinsic(e.name, [self.mutate_expr(a) for a in e.args],
                               e.dtype)
    raise TypeError(type(e).__name__)


def _same_identity(old, new):
    new.sid, new.label = old.sid, old.label
    return new


def _rebuild_stmt(self, s):
    if isinstance(s, S.StmtSeq):
        return _same_identity(
            s, S.StmtSeq([self.mutate_stmt(c) for c in s.stmts]))
    if isinstance(s, S.VarDef):
        out = S.VarDef(s.name, [self.mutate_expr(d) for d in s.shape],
                       s.dtype, s.atype, s.mtype, self.mutate_stmt(s.body),
                       s.pinned)
        out.init_data = s.init_data
        return _same_identity(s, out)
    if isinstance(s, S.For):
        return _same_identity(
            s, S.For(s.iter_var, self.mutate_expr(s.begin),
                     self.mutate_expr(s.end), self.mutate_stmt(s.body),
                     s.property.clone()))
    if isinstance(s, S.If):
        else_case = (self.mutate_stmt(s.else_case)
                     if s.else_case is not None else None)
        return _same_identity(
            s, S.If(self.mutate_expr(s.cond), self.mutate_stmt(s.then_case),
                    else_case))
    if isinstance(s, S.Store):
        return _same_identity(
            s, S.Store(s.var, [self.mutate_expr(i) for i in s.indices],
                       self.mutate_expr(s.expr)))
    if isinstance(s, S.ReduceTo):
        return _same_identity(
            s, S.ReduceTo(s.var, [self.mutate_expr(i) for i in s.indices],
                          s.op, self.mutate_expr(s.expr), s.atomic))
    if isinstance(s, S.Eval):
        return _same_identity(s, S.Eval(self.mutate_expr(s.expr)))
    if isinstance(s, S.Assert):
        return _same_identity(
            s, S.Assert(self.mutate_expr(s.cond), self.mutate_stmt(s.body)))
    if isinstance(s, (S.Alloc, S.Free, S.Any, S.LibCall)):
        return s
    raise TypeError(type(s).__name__)


class _Replacer(Mutator):

    def __init__(self, sid, fn):
        self.sid = sid
        self.fn = fn
        self.hit = False

    def mutate_stmt(self, s):
        if s.sid == self.sid:
            self.hit = True
            return self.fn(s)
        return super().mutate_stmt(s)


def _replace_everything(root, sid, new_stmt_or_fn):
    fn = new_stmt_or_fn if callable(new_stmt_or_fn) \
        else (lambda _s: new_stmt_or_fn)
    rep = _Replacer(sid, fn)
    out = rep(root)
    if not rep.hit:
        raise InvalidSchedule(f"statement {sid!r} not found")
    return out


def _use_reference(monkeypatch):
    monkeypatch.setattr(Mutator, "generic_mutate_expr", _rebuild_expr)
    monkeypatch.setattr(Mutator, "generic_mutate_stmt", _rebuild_stmt)
    for mod in (common, loop_trans, mem_trans, misc_trans, parallel_trans):
        monkeypatch.setattr(mod, "replace_stmt", _replace_everything)


# ---------------------------------------------------------------------------
# the reference simplify: every integer +/-/* is linearized again from its
# whole tree
# ---------------------------------------------------------------------------


def _linearize(e):
    """Decompose an integer expression into (const, {atom_key: (coeff,
    atom_expr)}); atoms are maximal non-linear subtrees."""
    if isinstance(e, E.IntConst):
        return e.val, {}
    if isinstance(e, E.Add):
        c1, t1 = _linearize(e.lhs)
        c2, t2 = _linearize(e.rhs)
        return c1 + c2, _merge_terms(t1, t2, 1)
    if isinstance(e, E.Sub):
        c1, t1 = _linearize(e.lhs)
        c2, t2 = _linearize(e.rhs)
        return c1 - c2, _merge_terms(t1, t2, -1)
    if isinstance(e, E.Mul):
        if isinstance(e.lhs, E.IntConst):
            c, t = _linearize(e.rhs)
            k = e.lhs.val
            return c * k, {kk: (co * k, a) for kk, (co, a) in t.items()}
        if isinstance(e.rhs, E.IntConst):
            c, t = _linearize(e.lhs)
            k = e.rhs.val
            return c * k, {kk: (co * k, a) for kk, (co, a) in t.items()}
    return 0, {e.key(): (1, e)}


def _merge_terms(t1, t2, sign):
    out = dict(t1)
    for k, (c, a) in t2.items():
        c0 = out.get(k, (0, a))[0]
        out[k] = (c0 + sign * c, a)
    return out


def _relinearize(e):
    """Canonicalise integer +/-/const* chains, cancelling equal terms."""
    if not e.dtype.is_int or not isinstance(e, (E.Add, E.Sub, E.Mul)):
        return e
    const, terms = _linearize(e)
    parts = [(c, a) for c, a in
             (terms[k] for k in sorted(terms, key=repr)) if c != 0]
    if len(parts) + (const != 0) >= _size_of(e):
        return e  # no simplification achieved; keep user structure
    out = None
    for c, a in parts:
        piece = a if c == 1 else E.makeMul(E.wrap_like(c, e.dtype), a)
        if c < 0 and out is not None:
            out = E.makeSub(out, a if c == -1 else
                            E.makeMul(E.wrap_like(-c, e.dtype), a))
        else:
            out = piece if out is None else E.makeAdd(out, piece)
    if out is None:
        return E.wrap_like(const, e.dtype)
    if const > 0:
        out = E.makeAdd(out, E.wrap_like(const, e.dtype))
    elif const < 0:
        out = E.makeSub(out, E.wrap_like(-const, e.dtype))
    return out


def _size_of(e):
    n = 1
    for c in e.children():
        n += _size_of(c)
    return n


_SHIPPED_SIMPLIFY_EXPR = simplify_pass._Simplify.mutate_expr


def _relinearizing_mutate_expr(self, e):
    cls = type(e)
    if cls in Mutator._FOLDING:
        return _relinearize(Mutator._FOLDING[cls](self.mutate_expr(e.lhs),
                                                  self.mutate_expr(e.rhs)))
    # every other node folds as it always did
    return _SHIPPED_SIMPLIFY_EXPR(self, e)


class _RelinearizingSimplify(simplify_pass._Simplify):
    mutate_expr = _relinearizing_mutate_expr


def reference_simplify_expr(e):
    """``simplify_expr`` as the reference simplify computes it."""
    return _RelinearizingSimplify().mutate_expr(e)


def same_tree(a, b):
    """Equal node for node and dtype for dtype (``key()`` has no dtypes)."""
    def dtypes(e):
        return [e.dtype] + [d for c in e.children() for d in dtypes(c)]

    return a.key() == b.key() and dtypes(a) == dtypes(b)


def _use_relinearizing_simplify(monkeypatch):
    monkeypatch.setattr(simplify_pass._Simplify, "mutate_expr",
                        _relinearizing_mutate_expr)


# ---------------------------------------------------------------------------
# the reference simplify loop: sweeps that do not splice sequences, each
# followed by the flatten pass, until the node count stops changing
# ---------------------------------------------------------------------------


class _SweepWithoutSplicing(simplify_pass._Simplify):
    mutate_StmtSeq = Mutator.generic_mutate_stmt


def _fixed_point_call(self, node):
    size = count_nodes(node)
    for _round in range(10):
        node = flatten_stmt_seq(
            Mutator.__call__(_SweepWithoutSplicing(), node))
        before, size = size, count_nodes(node)
        if size == before:
            break
    return node


def _use_fixed_point_simplify(monkeypatch):
    monkeypatch.setattr(simplify_pass._Simplify, "__call__",
                        _fixed_point_call)


def one_more_sweep_changes_nothing(node):
    """Whether a second ``simplify`` sweep gives ``simplify``'s output
    ``node`` back key for key: the same sid-inclusive structure and every
    expression's dtype."""
    again = simplify_pass.simplify(node)
    if isinstance(node, E.Expr):
        return same_tree(again, node)
    return (fingerprint(again, include_sids=True), _dtypes(again)) == \
        (fingerprint(node, include_sids=True), _dtypes(node))


@pytest.fixture
def cleared():
    ft.clear_compile_caches()
    yield
    ft.clear_compile_caches()


# ---------------------------------------------------------------------------
# differential oracle
# ---------------------------------------------------------------------------


def _dtypes(node):
    """Every expression's dtype in ``node``, which ``struct_hash`` ignores
    and code generation reads."""
    dtypes = []

    def walk(e):
        dtypes.append(e.dtype.value)
        for c in e.children():
            walk(c)

    for s in collect_stmts(node, lambda _s: True):
        for e in s.child_exprs():
            walk(e)
    return tuple(dtypes)


def _fingerprint(func):
    """The canonical sid-inclusive hash (absolute sids differ: fewer
    throwaway nodes mint fewer sids) plus every expression's dtype."""
    return canonical_key(func)[0], _dtypes(func)


def _products(name):
    """Everything the compile path makes of workload ``name``, from
    staging on, under whichever rewrite implementation is installed."""
    ft.clear_compile_caches()
    mod = ALL[name]
    out = {}
    func = mod.make_program().func
    for backend in BACKENDS:
        for optimize in (False, True):
            lowered = compile_ir(func, backend=backend, optimize=optimize)
            out[backend, optimize] = _fingerprint(lowered)
            if backend == "c":
                out[backend, optimize, "src"] = CCodegen(lowered).generate()
    if name in GRAD_REQUIRES:
        gp = grad(mod.make_program(), requires=GRAD_REQUIRES[name])
        for part, f in (("fwd", gp.fwd), ("bwd", gp.bwd)):
            lowered = compile_ir(f, backend="c")
            out[part] = _fingerprint(f)
            out[part, "c"] = (_fingerprint(lowered),
                              CCodegen(lowered).generate())
    space = ScheduleSpace.extract(Schedule(mod.make_program()).func,
                                  backend="c")
    func, trace = space.realize(
        space.random_assignment(random.Random(REALIZE_SEED)))
    out["realize"] = _fingerprint(func), trace.as_json()
    return out


@pytest.mark.parametrize("name", sorted(ALL))
def test_same_programs_as_rebuilding_everything(name, monkeypatch, cleared):
    """The shipped rewrites against the fixed-point simplify loop, then
    against it and the re-linearizing simplify, then against those and
    the rebuild-everything mutator together."""
    shipped = _products(name)
    for install in (_use_fixed_point_simplify, _use_relinearizing_simplify,
                    _use_reference):
        install(monkeypatch)
        reference = _products(name)
        assert shipped.keys() == reference.keys()
        for k in shipped:
            assert shipped[k] == reference[k], (install.__name__, k)
    f = ALL[name].make_program().func
    assert Mutator()(f).body is not f.body  # the references are installed
    assert simplify_pass._Simplify.mutate_expr is _relinearizing_mutate_expr
    assert simplify_pass._Simplify.__call__ is _fixed_point_call


@pytest.mark.parametrize("name", sorted(ALL))
def test_one_simplify_sweep_is_a_fixed_point(name, monkeypatch, cleared):
    """Every tree ``simplify`` returns while workload ``name`` is compiled
    (each backend's lowering with and without ``optimize``, ``grad()``'s
    forward and backward, a realized candidate) comes back unchanged from
    one more sweep."""
    outs = []

    def recording(self, node, _sweep=simplify_pass._Simplify.__call__):
        out = _sweep(self, node)
        outs.append(out)
        return out

    monkeypatch.setattr(simplify_pass._Simplify, "__call__", recording)
    _products(name)
    monkeypatch.undo()
    assert len(outs) > 5
    for out in outs:
        assert one_more_sweep_changes_nothing(out)


# ---------------------------------------------------------------------------
# a rewrite never writes into its input
# ---------------------------------------------------------------------------


def _sid_hash(func):
    return struct_hash(func, include_sids=True)


def test_an_unchanged_tree_comes_back_as_itself():
    f = ALL["gat"].make_program().func
    assert Mutator()(f).body is f.body
    assert map_exprs(f, lambda e: None).body is f.body


def test_a_rebuilt_node_still_folds():
    i, n = Var("i"), Var("n")
    e = E.makeMin(i + 1, n * 2)
    folded = substitute(e, {"i": E.IntConst(3), "n": E.IntConst(1)})
    assert E.same_expr(folded, E.IntConst(2))
    assert substitute(e, {"m": E.IntConst(0)}) is e


def test_an_expression_hook_enters_expressions():
    # Renamer overrides mutate_Load only: the walk must still reach loads
    body = For("i", 0, 4, Store("a", [Var("i")],
                                Load("b", [Var("i")], DataType.FLOAT32)))
    assert rename_tensor(body, "b", "c").body.expr.var == "c"
    assert rename_tensor(body, "x", "y") is body


def test_only_the_path_to_a_change_is_rebuilt():
    f = ALL["subdivnet"].make_program().func
    target = collect_stmts(f, lambda s: isinstance(s, Store))[-1]
    path = {s.sid for s in common.path_to(f, target.sid)}
    old = {s.sid: s for s in collect_stmts(f, lambda _s: True)}

    def zero(s):
        out = Store(s.var, s.indices, 0.0)
        out.sid = s.sid
        return out

    class ZeroTarget(Mutator):

        def mutate_Store(self, s):
            return zero(s) if s.sid == target.sid else s

    before = _sid_hash(f)
    for out in (ZeroTarget()(f), common.replace_stmt(f, target.sid, zero)):
        for s in collect_stmts(out, lambda _s: True):
            assert (s is old[s.sid]) == (s.sid not in path), s.sid
    assert _sid_hash(f) == before


@pytest.mark.parametrize("name", sorted(ALL))
def test_passes_leave_their_input_alone(name, cleared):
    from repro.autosched import auto_schedule

    func = ALL[name].make_program().func
    passes = (lowering_passes() + legalization_passes("c")
              + legalization_passes("npblock"))
    for cur in (func, auto_schedule(func, backend="c")):
        for p in passes:
            before = _sid_hash(cur)
            out = p.fn(cur)
            assert _sid_hash(cur) == before, (name, p.name)
            cur = out


def _elementwise():
    @ft.transform
    def f(b: ft.Tensor[(8, 4), "f32", "input"],
          a: ft.Tensor[(8, 4), "f32", "output"]):
        ft.label("Li")
        for i in range(8):
            ft.label("Lj")
            for j in range(4):
                a[i, j] = b[i, j] * 2.0 + 1.0

    return f


def test_simd_suppress_builds_a_new_loop():
    s = Schedule(_elementwise())
    s.vectorize("Li")
    s.parallelize("Lj")  # a parallel loop inside `omp simd` is illegal
    before = _sid_hash(s.func)
    out = suppress_illegal_simd(s.func)
    assert _sid_hash(s.func) == before
    assert s.find("Li").property.vectorize
    outer = collect_stmts(out, lambda x: isinstance(x, For))[0]
    assert not outer.property.vectorize


def test_npblock_marks_a_new_loop():
    from repro.backend.npblock import npblock_vectorize

    func = Schedule(_elementwise()).func
    before = _sid_hash(func)
    out = npblock_vectorize(func)
    assert _sid_hash(func) == before
    assert not any(l.property.vectorize
                   for l in collect_stmts(func, lambda x: isinstance(x, For)))
    assert any(l.property.vectorize
               for l in collect_stmts(out, lambda x: isinstance(x, For)))


def test_fresh_copy_shares_no_statement():
    body = StmtSeq([
        Store("a", [Var("i")], Load("b", [Var("i")], DataType.FLOAT32)),
        LibCall("fill", ["c"], [], {"value": 0.0}),
        Alloc("t"),
        Eval(E.IntConst(0)),
        Free("t"),
        StmtSeq([]),
        For("j", 0, 4, Store("c", [Var("j")], 1.0)),
    ])
    inputs = collect_stmts(body, lambda _s: True)
    sids = [s.sid for s in inputs]
    out = fresh_copy(body)
    copies = collect_stmts(out, lambda _s: True)
    assert len(copies) == len(inputs)
    assert not {id(s) for s in copies} & {id(s) for s in inputs}
    assert [s.sid for s in inputs] == sids
    assert not {s.sid for s in copies} & set(sids)


class _Checked:
    """A Schedule whose every primitive must leave each tree the schedule
    has held so far exactly as it was (their subtrees are shared)."""

    def __init__(self, sched):
        self.sched = sched
        self.history = [(sched.func, _sid_hash(sched.func))]

    def __getattr__(self, prim):
        fn = getattr(self.sched, prim)
        if prim in ("func", "_preorder"):  # what a trace replay reads
            return fn

        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            for func, h in self.history:
                assert _sid_hash(func) == h, prim
            func = self.sched.func
            self.history.append((func, _sid_hash(func)))
            return out

        return run


@pytest.mark.parametrize("name", sorted(ALL))
def test_realize_leaves_every_tree_alone(name, cleared):
    base = Schedule(ALL[name].make_program()).func
    space = ScheduleSpace.extract(base, backend="c")
    _func, trace = space.realize(
        space.random_assignment(random.Random(REALIZE_SEED)))
    checked = _Checked(Schedule(base))
    trace.apply(checked)
    assert len(checked.history) == len(trace) + 1 > 1


def _layered():
    @ft.transform
    def f(b: ft.Tensor[(8, 4), "f32", "input"],
          a: ft.Tensor[(8, 4), "f32", "output"],
          c: ft.Tensor[(4,), "f32", "output"],
          d: ft.Tensor[(4,), "f32", "output"],
          e: ft.Tensor[(4,), "f32", "output"]):
        t = ft.empty((8, 4), "f32")
        ft.label("L1")
        for i in range(8):
            ft.label("L1j")
            for j in range(4):
                t[i, j] = b[i, j] * 2.0
        ft.label("L2")
        for i in range(8):
            for j in range(4):
                a[i, j] = t[i, j] + 1.0
        ft.label("L3")
        for j in range(4):
            ft.label("S1")
            c[j] = b[1, j]
            ft.label("S2")
            d[j] = b[0, j]
        ft.label("L4")
        for j in range(4):
            e[j] = 0.0

    return f


PRIMITIVES = {
    "split": lambda s: s.split("L1", factor=3),
    "split+separate_tail": lambda s: s.separate_tail(
        s.split("L2", factor=3)[0]),
    "merge": lambda s: s.merge("L1", "L1j"),
    "reorder": lambda s: s.reorder(["L1j", "L1"]),
    "fission": lambda s: s.fission("L3", after="S1"),
    "fuse": lambda s: s.fuse("L1", "L2"),
    "swap": lambda s: s.swap(["S2", "S1"]),
    "parallelize": lambda s: s.parallelize("L1", "openmp"),
    "unroll": lambda s: s.unroll("L1j"),
    "unroll-mark": lambda s: s.unroll("L1j", immediate=False),
    "vectorize": lambda s: s.vectorize("L1j"),
    "blend": lambda s: s.blend("L3"),
    "cache": lambda s: s.cache("L2", "t", "cpu"),
    "set_mtype": lambda s: s.set_mtype("t", "gpu/shared"),
    "var_split": lambda s: s.var_split("t", dim=0, factor=2),
    "var_reorder": lambda s: s.var_reorder("t", [1, 0]),
    "var_merge": lambda s: s.var_merge("t", dim=0),
    "as_lib": lambda s: s.as_lib("L4"),
}


@pytest.mark.parametrize("prim", sorted(PRIMITIVES))
def test_primitives_leave_every_tree_alone(prim):
    checked = _Checked(Schedule(_layered()))
    PRIMITIVES[prim](checked)
    assert len(checked.history) >= 2
