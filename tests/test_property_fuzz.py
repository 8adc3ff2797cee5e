"""Property-based tests (hypothesis): randomly generated IR programs are
run through backends, lowering passes and randomly chosen schedules, and
every path must agree with the reference interpreter.

This is the repository's semantic safety net: a schedule that survives the
dependence checks MUST NOT change results, on ANY generated program.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidSchedule
from repro.ir import (DataType, For, Func, If, IntConst, Load, ReduceTo,
                      Store, StmtSeq, Var, VarDef, collect_stmts, seq)
from repro.passes import flatten_stmt_seq, lower, make_reduction, simplify
from repro.runtime import build
from repro.schedule import Schedule

from .test_ir_sharing import one_more_sweep_changes_nothing

N, M = 5, 4  # fixed tensor extents (small => interp is fast)


# ---------------------------------------------------------------------------
# random program generation
# ---------------------------------------------------------------------------


def _index(draw, iters, dim_size):
    """A random always-in-bounds index expression."""
    kind = draw(st.integers(0, 3))
    if kind == 0 or not iters:
        return IntConst(draw(st.integers(0, dim_size - 1)))
    it = Var(draw(st.sampled_from(iters)))
    if kind == 1:
        return it % dim_size
    if kind == 2:
        return (it + draw(st.integers(0, 3))) % dim_size
    return (it * draw(st.integers(1, 2)) + draw(
        st.integers(0, 2))) % dim_size


def _scalar_expr(draw, iters, depth=0):
    """A random float expression over the tensors a, b, y."""
    kind = draw(st.integers(0, 6 if depth < 2 else 2))
    if kind == 0:
        return draw(st.sampled_from(
            [0.5, 1.0, 2.0, -1.5, 0.25]))
    if kind == 1:
        return Load("a", [_index(draw, iters, N),
                          _index(draw, iters, M)], DataType.FLOAT32)
    if kind == 2:
        return Load("b", [_index(draw, iters, N)], DataType.FLOAT32)
    lhs = _scalar_expr(draw, iters, depth + 1)
    rhs = _scalar_expr(draw, iters, depth + 1)
    from repro.ir import wrap

    lhs, rhs = wrap(lhs), wrap(rhs)
    if kind == 3:
        return lhs + rhs
    if kind == 4:
        return lhs - rhs
    if kind == 5:
        return lhs * rhs
    return lhs * 0.5 + rhs


def _stmt(draw, iters, depth):
    kind = draw(st.integers(0, 5))
    if kind <= 1 and depth < 3:  # a loop
        it = f"i{len(iters)}_{draw(st.integers(0, 9))}"
        size = draw(st.sampled_from([N, M, 3]))
        body = _body(draw, iters + [it], depth + 1)
        return For(it, 0, size, body)
    if kind == 2 and iters:  # a branch on an iterator
        it = Var(draw(st.sampled_from(iters)))
        cond = it < draw(st.integers(1, 4))
        then = _body(draw, iters, depth + 1)
        els = _body(draw, iters, depth + 1) \
            if draw(st.booleans()) else None
        return If(cond, then, els)
    target_idx = [_index(draw, iters, N), _index(draw, iters, M)]
    value = _scalar_expr(draw, iters)
    if kind == 3:
        return ReduceTo("y", target_idx, "+", value)
    return Store("y", target_idx, value)


def _body(draw, iters, depth):
    n = draw(st.integers(1, 3 if depth < 2 else 2))
    return seq([_stmt(draw, iters, depth) for _ in range(n)])


@st.composite
def programs(draw):
    body = _body(draw, [], 0)
    body = VarDef("y", [N, M], "f32", "output", "cpu", body)
    body = VarDef("b", [N], "f32", "input", "cpu", body)
    body = VarDef("a", [N, M], "f32", "input", "cpu", body)
    return Func("fuzz", ["a", "b"], ["y"], body)


def _run(func, backend="interp"):
    exe = build(func, backend=backend)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((N, M)).astype(np.float32)
    b = rng.standard_normal(N).astype(np.float32)
    return exe(a, b)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(programs())
def test_backends_agree(func):
    """interp == pycode == C on arbitrary programs."""
    ref = _run(func, "interp")
    np.testing.assert_allclose(_run(func, "pycode"), ref, rtol=1e-5,
                               atol=1e-5)
    np.testing.assert_allclose(_run(func, "c"), ref, rtol=1e-5,
                               atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(programs())
def test_lowering_preserves_semantics(func):
    ref = _run(func, "interp")
    np.testing.assert_allclose(_run(lower(func), "interp"), ref,
                               rtol=1e-5, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(programs(), st.randoms(use_true_random=False))
def test_random_schedules_preserve_semantics(func, rnd):
    """Any sequence of transformations the dependence checker admits
    leaves the program's results unchanged."""
    ref = _run(func, "interp")
    s = Schedule(func)
    for _step in range(4):
        loops = s.loops()
        if not loops:
            break
        loop = rnd.choice(loops)
        move = rnd.choice(["split", "reorder", "fuse", "parallelize",
                           "vectorize", "unroll", "fission", "merge"])
        try:
            if move == "split":
                s.split(loop.sid, factor=rnd.choice([2, 3]))
            elif move == "reorder":
                from repro.schedule.common import only_stmt_of

                inner = only_stmt_of(s.find(loop.sid))
                if isinstance(inner, For):
                    s.reorder([inner.sid, loop.sid])
            elif move == "merge":
                from repro.schedule.common import only_stmt_of

                inner = only_stmt_of(s.find(loop.sid))
                if isinstance(inner, For):
                    s.merge(loop.sid, inner.sid)
            elif move == "fuse":
                other = rnd.choice(loops)
                if other.sid != loop.sid:
                    s.fuse(loop.sid, other.sid)
            elif move == "parallelize":
                s.parallelize(loop.sid, "openmp")
            elif move == "vectorize":
                s.vectorize(loop.sid)
            elif move == "unroll":
                s.unroll(loop.sid)
            elif move == "fission":
                body = s.find(loop.sid).body
                kids = body.stmts if isinstance(body, StmtSeq) else []
                if len(kids) >= 2:
                    s.fission(loop.sid, after=kids[0].sid)
        except InvalidSchedule:
            continue
    for backend in ("interp", "pycode", "c"):
        np.testing.assert_allclose(
            _run(s.func, backend), ref, rtol=1e-4, atol=1e-5,
            err_msg=f"{backend} after:\n{s.trace.summary()}")


@settings(max_examples=30, deadline=None)
@given(programs())
def test_one_simplify_sweep_is_a_fixed_point(func):
    """``simplify``'s single sweep leaves nothing for a second one, on the
    generated program and on what the lowering hands it."""
    assert one_more_sweep_changes_nothing(simplify(func))
    lowered = make_reduction(flatten_stmt_seq(func))
    assert one_more_sweep_changes_nothing(simplify(lowered))


@settings(max_examples=20, deadline=None)
@given(programs())
def test_parser_roundtrip_random_programs(func):
    from repro.ir import dump
    from repro.ir.parser import parse_program

    text = dump(func)
    assert dump(parse_program(text)) == text


@settings(max_examples=20, deadline=None)
@given(programs())
def test_autoschedule_preserves_semantics(func):
    from repro.autosched import CPU, auto_schedule

    ref = _run(func, "interp")
    opt = auto_schedule(func, target=CPU)
    np.testing.assert_allclose(_run(opt, "pycode"), ref, rtol=1e-4,
                               atol=1e-5)
