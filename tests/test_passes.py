"""Unit tests for the lowering passes."""

import sys
import time

import numpy as np
import pytest

import repro as ft
from repro.ir import (Assert, BoolConst, DataType, For, If, IntConst, Load,
                      ReduceTo, Store, StmtSeq, Var, VarDef, collect_stmts,
                      dump, makeMin, match, seq)
from repro.passes import (flatten_stmt_seq, lower, make_reduction,
                          prune_branches, remove_dead_writes, simplify,
                          simplify_expr)

from .test_ir_sharing import reference_simplify_expr, same_tree


def _same_as_reference(e):
    return same_tree(simplify_expr(e), reference_simplify_expr(e))


class TestSimplify:

    def test_constant_if_pruned(self):
        s = If(BoolConst(True), Store("a", [], 1), Store("a", [], 2))
        out = simplify(s)
        assert match(out, Store("a", [], 1))

    def test_empty_loop_removed(self):
        s = For("i", 3, 3, Store("a", [Var("i")], 1))
        out = simplify(s)
        assert isinstance(out, StmtSeq) and not out.stmts

    def test_a_loop_emptied_by_flattening_goes_in_one_sweep(self):
        # the body is empty only once its nested sequences are spliced;
        # the sweep splices them on its way up, so the loop goes with it
        empty = StmtSeq([StmtSeq([]), StmtSeq([StmtSeq([])])])
        s = seq([For("i", 0, Var("n"), empty),
                 If(Var("n") > 2, Store("a", [], 1), empty)])
        out = simplify(s)
        assert match(out, If(Var("n") > 2, Store("a", [], 1)))
        assert out.else_case is None
        assert match(simplify(For("j", 0, 4, s)),
                     For("j", 0, 4, If(Var("n") > 2, Store("a", [], 1))))

    def test_single_iteration_inlined(self):
        s = For("i", 2, 3, Store("a", [Var("i")], Var("i") * 2))
        out = simplify(s)
        assert match(out, Store("a", [IntConst(2)], IntConst(4)))

    def test_linear_cancellation(self):
        i, m = Var("i"), Var("m")
        e = simplify_expr(i + (m - 1) - i + 1)
        assert dump(e) == "m"

    def test_linear_collection(self):
        i = Var("i")
        e = simplify_expr(i + i + i)
        assert dump(e) == "3 * i" or dump(e) == "i * 3"

    def test_float_not_reassociated(self):
        x = Load("x", [], ft.Tensor and __import__(
            "repro.ir", fromlist=["DataType"]).DataType.FLOAT32)
        e = (x + 1.0) - x  # must NOT fold to 1.0 (float semantics)
        out = simplify_expr(e)
        assert "x" in dump(out)

    def test_canonical_order_without_cancellation(self):
        i, j = Var("i"), Var("j")
        assert dump(simplify_expr(j + i)) == "i + j"
        assert _same_as_reference(j - i)

    def test_atom_keeps_its_own_node(self):
        # one column for both, holding the node met last, as before
        e = Var("i") + Var("i", DataType.INT64)
        out = simplify_expr(e)
        assert dump(out) == "2 * i"
        assert out.rhs.dtype is DataType.INT64
        assert _same_as_reference(e)

    def test_constants_take_the_dtype_of_the_tree(self):
        # `(n + i) - n` is the INT32 atom i, so `+ j + 1` stays INT32
        i, j, n = Var("i"), Var("j"), Var("n", DataType.INT64)
        e = (n + i) - n + j + 1
        assert same_tree(simplify_expr(e), i + j + 1)
        assert _same_as_reference(e)

    def test_folded_operand_keeps_its_form(self):
        # the two arguments of min only become equal once simplified
        i, j = Var("i"), Var("j")
        e = makeMin(i + j + j - j, j + i) + i
        assert dump(simplify_expr(e)) == "2 * i + j"
        assert _same_as_reference(e)

    def test_sums_under_other_nodes_are_trees(self):
        i, j = Var("i"), Var("j")
        prod = (i + 1) * (j - 1)  # a product of two sums is one atom
        assert dump(simplify_expr(prod + prod)) == "2 * ((i + 1) * (j - 1))"
        x = Load("x", [], DataType.FLOAT32)
        e = x * 2.0 + (j + i + 1)
        assert dump(simplify_expr(e)) == "x * 2.0 + (i + j + 1)"
        assert _same_as_reference(prod + prod)
        assert _same_as_reference(e)

    def test_boolean_sum_inside_an_integer_one(self):
        # `(j < k) + (i < k)` is boolean; `+ 1` makes it integer
        i, j, k = Var("i"), Var("j"), Var("k")
        e = (j < k) + (i < k) + 1
        assert dump(simplify_expr(e)) == "(i < k) + (j < k) + 1"
        assert _same_as_reference(e)

    def test_long_chain_scales(self):
        """Each level's form is built from its operands' forms, not from
        its subtree, so an 800-term chain is not quadratic."""
        e = Var("v0")
        for k in range(1, 801):
            v = Var(f"v{k}")
            e = e + (v * 2 + 1 - v)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            t0 = time.perf_counter()
            out = simplify_expr(e)
            elapsed = time.perf_counter() - t0
            assert same_tree(out, reference_simplify_expr(e))
        finally:
            sys.setrecursionlimit(limit)
        assert elapsed < 1.0, elapsed

    def test_idempotent(self):
        @ft.transform
        def f(a: ft.Tensor[(4, 4), "f32", "input"]):
            y = ft.zeros((4, 4), "f32")
            for i in range(4):
                for j in range(4):
                    y[i, j] = a[i, j] * 1.0 + 0.0
            return y

        once = simplify(f.func)
        twice = simplify(once)
        assert dump(once) == dump(twice)


class TestPrune:

    def test_range_implied_branch(self):
        body = If(Var("i") < 10, Store("a", [Var("i")], 1),
                  Store("a", [Var("i")], 2))
        loop = For("i", 0, 5, body)
        out = prune_branches(loop)
        ifs = collect_stmts(out, lambda s: isinstance(s, If))
        assert not ifs  # i < 5 <= 10 always

    def test_negated_branch(self):
        body = If(Var("i") >= 10, Store("a", [Var("i")], 1))
        loop = For("i", 0, 5, body)
        out = prune_branches(loop)
        stores = collect_stmts(out, lambda s: isinstance(s, Store))
        assert not stores  # never taken, else empty

    def test_undecidable_kept(self):
        body = If(Var("i") < Var("k"), Store("a", [Var("i")], 1))
        loop = For("i", 0, 5, body)
        out = prune_branches(loop)
        assert collect_stmts(out, lambda s: isinstance(s, If))

    def test_nested_condition_context(self):
        inner = If(Var("i") < 8, Store("a", [Var("i")], 1),
                   Store("a", [Var("i")], 2))
        outer = If(Var("i") < 3, inner)
        loop = For("i", 0, 100, outer)
        out = prune_branches(loop)
        # inside i < 3, the i < 8 branch is decided
        ifs = collect_stmts(out, lambda s: isinstance(s, If))
        assert len(ifs) == 1

    def test_minmax_bounds(self):
        """Bounds with min/max (from separate_tail cuts) still prune."""
        from repro.ir import makeMax, makeMin

        k, n = Var("k"), Var("n")
        cut = makeMax(IntConst(0), makeMin(k, n))
        body = If(Var("i") < k, Store("a", [Var("i")], 1),
                  Store("a", [Var("i")], 2))
        loop = For("i", 0, cut, body)
        out = prune_branches(loop)
        stores = collect_stmts(out, lambda s: isinstance(s, Store))
        assert len(stores) == 1  # else-branch proven dead


class TestMakeReduction:

    def test_add_forms(self):
        i = Var("i")
        from repro.ir import DataType

        load = Load("y", [i], DataType.FLOAT32)
        v = Load("x", [i], DataType.FLOAT32)
        for expr in (load + v, v + load):
            out = make_reduction(Store("y", [i], expr))
            assert isinstance(out, ReduceTo) and out.op == "+"

    def test_sub_becomes_negated_add(self):
        i = Var("i")
        from repro.ir import DataType

        load = Load("y", [i], DataType.FLOAT32)
        v = Load("x", [i], DataType.FLOAT32)
        out = make_reduction(Store("y", [i], load - v))
        assert isinstance(out, ReduceTo) and out.op == "+"

    def test_minmax(self):
        from repro.ir import DataType, makeMax

        load = Load("y", [], DataType.FLOAT32)
        v = Load("x", [], DataType.FLOAT32)
        out = make_reduction(Store("y", [], makeMax(load, v)))
        assert isinstance(out, ReduceTo) and out.op == "max"

    def test_different_index_not_converted(self):
        i = Var("i")
        from repro.ir import DataType

        load = Load("y", [i + 1], DataType.FLOAT32)
        out = make_reduction(Store("y", [i], load + 1.0))
        assert isinstance(out, Store)

    def test_self_in_both_operands_not_converted(self):
        from repro.ir import DataType

        load = Load("y", [], DataType.FLOAT32)
        out = make_reduction(Store("y", [], load + load))
        assert isinstance(out, Store)


class TestDeadWrites:

    def test_unused_cache_removed(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            t = ft.zeros((4,), "f32")  # never contributes to the output
            for i in range(4):
                t[i] = a[i] * 2.0
            y = ft.zeros((4,), "f32")
            for i in range(4):
                y[i] = a[i] + 1.0
            return y

        out = remove_dead_writes(f.func)
        names = {d.name for d in collect_stmts(
            out.body, lambda s: isinstance(s, VarDef))}
        assert "t" not in names

    def test_chained_liveness(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            t = ft.zeros((4,), "f32")
            for i in range(4):
                t[i] = a[i] * 2.0
            y = ft.zeros((4,), "f32")
            for i in range(4):
                y[i] = t[i] + 1.0  # t reaches the output through y
            return y

        out = remove_dead_writes(f.func)
        names = {d.name for d in collect_stmts(
            out.body, lambda s: isinstance(s, VarDef))}
        assert "t" in names

    def test_index_tensor_is_live(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"],
              idx: ft.Tensor[(4,), "i32", "input"]):
            y = ft.zeros((4,), "f32")
            for i in range(4):
                y[idx[i]] = a[i]
            return y

        out = remove_dead_writes(f.func)
        exe = __import__("repro.runtime", fromlist=["build"]).build(out)
        a = np.arange(4, dtype=np.float32)
        idx = np.array([3, 2, 1, 0], np.int32)
        np.testing.assert_allclose(exe(a, idx), a[::-1])


class TestLowerPipeline:

    def test_full_pipeline_preserves_results(self, rng):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            dead = ft.zeros(("n",), "f32")
            for i in range(a.shape(0)):
                dead[i] = a[i]
            y = ft.zeros(("n",), "f32")
            for i in range(a.shape(0)):
                if i >= 0:  # always true
                    y[i] = y[i] + a[i] * 2.0  # becomes ReduceTo
            return y

        from repro.runtime import build

        x = rng.standard_normal(6).astype(np.float32)
        out_f = build(f.func, backend="interp")(x)
        lowered = lower(f.func)
        out_l = build(lowered, backend="interp")(x)
        np.testing.assert_allclose(out_l, out_f, rtol=1e-6)
        # the dead tensor is gone and the reduce is recognised
        names = {d.name for d in collect_stmts(
            lowered.body, lambda s: isinstance(s, VarDef))}
        assert "dead" not in names
