"""Property-based tests on expression-level machinery: the simplifier
preserves values and builds the trees the re-linearizing reference
built, bound analysis is sound, and printer/parser agree — all on
randomly generated expressions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import BoundsCtx, const_bounds, tightest_bounds
from repro.ir import (DataType, Expr, IntConst, Load, Var, dump, makeMax,
                      makeMin, wrap)
from repro.passes import simplify, simplify_expr
from repro.runtime.interpreter import Interpreter

from .test_ir_sharing import (one_more_sweep_changes_nothing,
                              reference_simplify_expr, same_tree)

_INTERP = Interpreter()

VARS = ["i", "j", "k", "n"]
#: ``n`` is the one INT64 scalar; the others are INT32
DTYPES = {"n": DataType.INT64}
#: the integer tensor ``t[...]`` loads read; every index is taken % 4
T = np.array([3, -2, 5, 0], dtype=np.int32)


@st.composite
def int_exprs(draw, depth=0) -> Expr:
    kind = draw(st.integers(0, 9 if depth < 3 else 1))
    if kind == 0:
        return IntConst(draw(st.integers(-6, 6)))
    if kind == 1:
        name = draw(st.sampled_from(VARS))
        return Var(name, DTYPES.get(name, DataType.INT32))
    if kind == 9:
        index = draw(int_exprs(depth=depth + 1)) % IntConst(4)
        return Load("t", [index], DataType.INT32)
    lhs = draw(int_exprs(depth=depth + 1))
    rhs = draw(int_exprs(depth=depth + 1))
    if kind == 2:
        return lhs + rhs
    if kind == 3:
        return lhs - rhs
    if kind == 4:
        return lhs * IntConst(draw(st.integers(-3, 3)))
    if kind == 5:
        return makeMin(lhs, rhs)
    if kind == 6:
        return makeMax(lhs, rhs)
    if kind == 7:
        return lhs // IntConst(draw(st.integers(1, 4)))
    return lhs % IntConst(draw(st.integers(1, 5)))


def _eval(e: Expr, env) -> int:
    return int(_INTERP.eval_expr(e, {"t": T, **env}))


@settings(max_examples=200, deadline=None)
@given(int_exprs(), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(-10, 10), st.integers(-10, 10))
def test_simplify_preserves_value(e, i, j, k, n):
    env = {"i": i, "j": j, "k": k, "n": n}
    simplified = simplify_expr(e)
    assert _eval(simplified, env) == _eval(e, env)


@settings(max_examples=300, deadline=None)
@given(int_exprs())
def test_simplify_builds_the_reference_tree(e):
    """Forms built once from the operands' forms give the tree that
    re-linearizing every subtree gave, node for node and dtype for
    dtype."""
    assert same_tree(simplify_expr(e), reference_simplify_expr(e))


@settings(max_examples=300, deadline=None)
@given(int_exprs())
def test_one_simplify_sweep_is_a_fixed_point(e):
    assert one_more_sweep_changes_nothing(simplify(e))


@settings(max_examples=150, deadline=None)
@given(int_exprs(), st.integers(0, 5), st.integers(1, 5),
       st.integers(0, 5), st.integers(1, 5), st.integers(-10, 10),
       st.integers(-10, 10))
def test_bounds_are_sound(e, i0, ilen, j0, jlen, k, n):
    """Every value the expression takes over the iteration box lies
    within the inferred bounds."""
    ctx = BoundsCtx().with_loop("i", i0, i0 + ilen) \
        .with_loop("j", j0, j0 + jlen)
    lo, up = tightest_bounds(e, ctx, allowed_vars={"k", "n"})
    env0 = {"k": k, "n": n}
    for i in range(i0, i0 + ilen):
        for j in range(j0, j0 + jlen):
            v = _eval(e, {**env0, "i": i, "j": j})
            if lo is not None:
                assert _eval(lo, env0) <= v
            if up is not None:
                assert v <= _eval(up, env0)


@settings(max_examples=150, deadline=None)
@given(int_exprs())
def test_printer_parser_roundtrip_exprs(e):
    from repro.ir.parser import parse_stmt

    text = f"a[0] = {dump(e)}\n"
    parsed = parse_stmt(text)
    assert dump(parsed) == text


@settings(max_examples=100, deadline=None)
@given(int_exprs(), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(-10, 10), st.integers(-10, 10))
def test_c_backend_integer_semantics(e, i, j, k, n):
    """Generated C agrees with Python on //, %, min/max over negatives."""
    from repro.ir import Func, Store, VarDef
    from repro.ir import substitute
    from repro.runtime import build

    env = {"i": i, "j": j, "k": k, "n": n}
    bound = substitute(Store("y", [IntConst(0)], e),
                       {name: IntConst(v, DTYPES.get(name, DataType.INT32))
                        for name, v in env.items()})
    body = VarDef("y", [1], "i64", "output", "cpu", bound)
    body = VarDef("t", [len(T)], "i32", "input", "cpu", body)
    func = Func("f", ["t"], ["y"], body)
    out = build(func, backend="c")(T)
    assert int(out[0]) == _eval(e, env)


@settings(max_examples=80, deadline=None)
@given(int_exprs(), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(-10, 10), st.integers(-10, 10))
def test_affine_builder_exactness(e, i, j, k, n):
    """When the Linearizer accepts an expression, the linear form plus its
    div/mod rows has exactly the evaluated value."""
    from repro.polyhedral import Linearizer, is_feasible, relation

    lin = Linearizer(lambda name: name, object)
    a = lin.try_linear(e)
    assume(a is not None)
    env = {"i": i, "j": j, "k": k, "n": n}
    v = _eval(e, env)
    binding = [relation("=", ({n: 1}, 0), ({}, val))
               for n, val in env.items()]
    # value v must be consistent...
    assert is_feasible(lin.rows + binding + [relation("=", a, ({}, v))])
    # ...and any other value must not be
    assert not is_feasible(lin.rows + binding
                           + [relation("=", a, ({}, v + 1))])
