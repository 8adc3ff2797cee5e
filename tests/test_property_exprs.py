"""Property-based tests on expression-level machinery: the simplifier
preserves values, bound analysis is sound, and printer/parser agree —
all on randomly generated expressions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import BoundsCtx, const_bounds, tightest_bounds
from repro.ir import (DataType, Expr, IntConst, Load, Var, dump, makeMax,
                      makeMin, wrap)
from repro.passes import simplify_expr
from repro.runtime.interpreter import Interpreter

_INTERP = Interpreter()

VARS = ["i", "j", "k"]


@st.composite
def int_exprs(draw, depth=0) -> Expr:
    kind = draw(st.integers(0, 8 if depth < 3 else 1))
    if kind == 0:
        return IntConst(draw(st.integers(-6, 6)))
    if kind == 1:
        return Var(draw(st.sampled_from(VARS)))
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
    return _INTERP.eval_expr(e, dict(env))


@settings(max_examples=200, deadline=None)
@given(int_exprs(), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(-10, 10))
def test_simplify_preserves_value(e, i, j, k):
    env = {"i": i, "j": j, "k": k}
    simplified = simplify_expr(e)
    assert _eval(simplified, env) == _eval(e, env)


@settings(max_examples=150, deadline=None)
@given(int_exprs(), st.integers(0, 5), st.integers(1, 5),
       st.integers(0, 5), st.integers(1, 5), st.integers(-10, 10))
def test_bounds_are_sound(e, i0, ilen, j0, jlen, k):
    """Every value the expression takes over the iteration box lies
    within the inferred bounds."""
    ctx = BoundsCtx().with_loop("i", i0, i0 + ilen) \
        .with_loop("j", j0, j0 + jlen)
    lo, up = tightest_bounds(e, ctx, allowed_vars={"k"})
    env0 = {"k": k}
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
       st.integers(-10, 10))
def test_c_backend_integer_semantics(e, i, j, k):
    """Generated C agrees with Python on //, %, min/max over negatives."""
    from repro.ir import Func, Store, VarDef
    from repro.ir import substitute
    from repro.runtime import build

    bound = substitute(Store("y", [IntConst(0)], e),
                       {"i": IntConst(i), "j": IntConst(j),
                        "k": IntConst(k)})
    body = VarDef("y", [1], "i64", "output", "cpu", bound)
    func = Func("t", [], ["y"], body)
    out = build(func, backend="c")()
    env = {"i": i, "j": j, "k": k}
    assert int(out[0]) == _eval(e, env)


@settings(max_examples=80, deadline=None)
@given(int_exprs(), st.integers(-10, 10), st.integers(-10, 10),
       st.integers(-10, 10))
def test_affine_builder_exactness(e, i, j, k):
    """When the Linearizer accepts an expression, the linear form plus its
    div/mod rows has exactly the evaluated value."""
    from repro.polyhedral import Linearizer, is_feasible, relation

    lin = Linearizer(lambda name: name, object)
    a = lin.try_linear(e)
    assume(a is not None)
    env = {"i": i, "j": j, "k": k}
    v = _eval(e, env)
    binding = [relation("=", ({n: 1}, 0), ({}, val))
               for n, val in env.items()]
    # value v must be consistent...
    assert is_feasible(lin.rows + binding + [relation("=", a, ({}, v))])
    # ...and any other value must not be
    assert not is_feasible(lin.rows + binding
                           + [relation("=", a, ({}, v + 1))])
