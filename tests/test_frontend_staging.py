"""Tests of the DSL frontend: staging semantics, partial evaluation,
indexing, granularity-oblivious ops, and error reporting."""

import numpy as np
import pytest

import repro as ft
from repro.errors import StagingError
from repro.ir import (For, If, ReduceTo, Store, VarDef, collect_stmts, dump)


def _loops(program):
    return collect_stmts(program.func.body, lambda s: isinstance(s, For))


class TestBasics:

    def test_simple_loop(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty(a.shape(0), "f32")
            for i in range(a.shape(0)):
                y[i] = a[i] * 2.0
            return y

        assert f.func.params == ["a"]
        assert f.func.scalar_params == ["n"]
        assert f.func.returns == ["y"]
        assert len(_loops(f)) == 1

    def test_shared_symbolic_dims(self):
        @ft.transform
        def f(a: ft.Tensor[("n", "m"), "f32", "input"],
              b: ft.Tensor[("m", "n"), "f32", "input"]):
            y = ft.zeros((a.shape(0),), "f32")
            for i in range(a.shape(0)):
                y[i] = a[i, 0] + b[0, i]
            return y

        assert f.func.scalar_params == ["n", "m"]

    def test_output_param_annotation(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"],
              y: ft.Tensor[(4,), "f32", "output"]):
            for i in range(4):
                y[i] = a[i] + 1.0

        assert f.func.params == ["a", "y"]
        out = f(np.arange(4, dtype=np.float32))
        np.testing.assert_allclose(out, [1, 2, 3, 4])

    def test_inout_param(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "inout"]):
            for i in range(4):
                a[i] += 1.0

        out = f(np.zeros(4, np.float32))
        np.testing.assert_allclose(out, np.ones(4))

    def test_body_declaration_style(self):
        @ft.transform
        def f(a, y):
            a: ft.Tensor[("n",), "f32", "input"]
            y: ft.Tensor[("n",), "f32", "output"]
            for i in range(a.shape(0)):
                y[i] = a[i] + a[i]

        out = f(np.ones(3, np.float32))
        np.testing.assert_allclose(out, 2 * np.ones(3))

    def test_scalar_param_annotation(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"], k: ft.Size):
            y = ft.zeros((), "f32")
            for i in range(k):
                y[...] += a[i]
            return y

        out = f(np.arange(5, dtype=np.float32), k=3)
        assert float(out) == 3.0


class TestControlFlow:

    def test_symbolic_if_becomes_node(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            y = ft.zeros(a.shape(0), "f32")
            for i in range(a.shape(0)):
                if a[i] > 0.0:
                    y[i] = a[i]
            return y

        ifs = collect_stmts(f.func.body, lambda s: isinstance(s, If))
        assert len(ifs) == 1

    def test_concrete_if_partial_evaluated(self):
        flag = True

        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros(4, "f32")
            for i in range(4):
                if flag:
                    y[i] = a[i] + 1.0
                else:
                    y[i] = a[i] - 1.0
            return y

        ifs = collect_stmts(f.func.body, lambda s: isinstance(s, If))
        assert not ifs  # decided at compile time
        np.testing.assert_allclose(f(np.zeros(4, np.float32)), np.ones(4))

    def test_symbolic_if_else(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            y = ft.zeros(a.shape(0), "f32")
            for i in range(a.shape(0)):
                if a[i] > 0.0:
                    y[i] = a[i]
                else:
                    y[i] = -a[i]
            return y

        x = np.array([-1.0, 2.0, -3.0], np.float32)
        np.testing.assert_allclose(f(x), np.abs(x))

    def test_range_with_bounds_and_step(self):
        @ft.transform
        def f(a: ft.Tensor[(10,), "f32", "input"]):
            y = ft.zeros((), "f32")
            for i in range(2, 10, 3):
                y[...] += a[i]
            return y

        x = np.arange(10, dtype=np.float32)
        assert float(f(x)) == 2 + 5 + 8

    def test_negative_step(self):
        @ft.transform
        def f(a: ft.Tensor[(5,), "f32", "input"],
              y: ft.Tensor[(5,), "f32", "output"]):
            k = ft.zeros((), "i32")
            for i in range(4, -1, -1):
                y[i] = a[i] * 1.0

        np.testing.assert_allclose(
            f(np.arange(5, dtype=np.float32)), np.arange(5))

    def test_native_loop_over_python_iterable(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros(4, "f32")
            for mult in [1.0, 2.0]:  # static: unrolled at staging time
                for i in range(4):
                    y[i] += a[i] * mult
            return y

        x = np.ones(4, np.float32)
        np.testing.assert_allclose(f(x), 3 * x)

    def test_while_rejected(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(a: ft.Tensor[(4,), "f32", "input"]):
                while True:
                    pass

    def test_staged_assert(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            assert a.shape(0) > 0
            y = ft.zeros((), "f32")
            for i in range(a.shape(0)):
                y[...] += a[i]
            return y

        from repro.ir import Assert
        asserts = collect_stmts(f.func.body,
                                lambda s: isinstance(s, Assert))
        assert len(asserts) == 1


class TestPartialEvaluation:
    """Dimension-free programming with finite recursion (paper 3.3/4.1)."""

    def test_recursion_unrolls_to_loops(self):
        @ft.inline
        def add(A, B, C):
            if A.ndim == 0:
                C[...] = A + B
            else:
                for i in range(A.shape(0)):
                    add(A[i], B[i], C[i])

        @ft.transform
        def add3d(a: ft.Tensor[(2, 3, 4), "f32", "input"],
                  b: ft.Tensor[(2, 3, 4), "f32", "input"]):
            c = ft.empty((2, 3, 4), "f32")
            add(a, b, c)
            return c

        loops = _loops(add3d)
        assert len(loops) == 3  # fully unrolled recursion -> 3 nested loops
        x = np.random.default_rng(0).standard_normal((2, 3, 4)) \
            .astype(np.float32)
        np.testing.assert_allclose(add3d(x, x), 2 * x, rtol=1e-6)

    def test_recursion_with_symbolic_dims(self):
        @ft.inline
        def fill(A, v):
            if A.ndim == 0:
                A[...] = v
            else:
                for i in range(A.shape(0)):
                    fill(A[i], v)

        @ft.transform
        def f(a: ft.Tensor[("n", "m"), "f32", "output"]):
            fill(a, 7.0)

        out = f(n=2, m=3)
        np.testing.assert_allclose(out, np.full((2, 3), 7.0))

    def test_inline_outside_staging_rejected(self):
        @ft.inline
        def h(x):
            return x

        with pytest.raises(StagingError):
            h(1)


class TestIndexing:

    def test_views_and_slices(self):
        @ft.transform
        def f(a: ft.Tensor[(4, 6), "f32", "input"]):
            # b copies a[1, 2:5] (copy-by-value semantics, paper fig. 4)
            b = a[1, 2:5]
            y = ft.zeros((), "f32")
            for i in range(3):
                y[...] += b[i]
            return y

        x = np.arange(24, dtype=np.float32).reshape(4, 6)
        assert float(f(x)) == x[1, 2:5].sum()

    def test_negative_index(self):
        @ft.transform
        def f(a: ft.Tensor[(5,), "f32", "input"]):
            y = ft.zeros((), "f32")
            y[...] = a[-1] + a[-2]
            return y

        x = np.arange(5, dtype=np.float32)
        assert float(f(x)) == 7.0

    def test_too_many_indices(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(a: ft.Tensor[(5,), "f32", "input"]):
                y = ft.zeros((), "f32")
                y[...] = a[0, 1]
                return y

    def test_strided_slice_rejected(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(a: ft.Tensor[(6,), "f32", "input"]):
                b = a[::2]
                return b

    def test_shape_metadata(self):
        @ft.transform
        def f(a: ft.Tensor[(4, 6), "f32", "input"]):
            b = a[0]
            assert b.ndim == 1          # concrete metadata at staging time
            assert b.shape(0) == 6
            y = ft.zeros((), "f32")
            y[...] = b[0]
            return y

        assert f(np.ones((4, 6), np.float32)) == 1.0

    def test_return_view_copies(self):
        @ft.transform
        def f(a: ft.Tensor[(4, 6), "f32", "input"]):
            return a[2]

        x = np.arange(24, dtype=np.float32).reshape(4, 6)
        np.testing.assert_allclose(f(x), x[2])


class TestGranularityObliviousOps:
    """N-D tensor arithmetic emits fine-grained loops (paper 3.2)."""

    def test_tensor_addition(self):
        @ft.transform
        def f(a: ft.Tensor[(3, 4), "f32", "input"],
              b: ft.Tensor[(3, 4), "f32", "input"]):
            c = a + b
            return c

        x = np.ones((3, 4), np.float32)
        np.testing.assert_allclose(f(x, 2 * x), 3 * x)

    def test_subdiv_style_row_ops(self):
        @ft.transform
        def f(e: ft.Tensor[(5, 4), "f32", "input"],
              idx: ft.Tensor[(3,), "i32", "input"]):
            y = ft.zeros(4, "f32")
            for j in range(3):
                d = ft.abs(e[idx[j]] - e[idx[(j + 1) % 3]])
                y += d
            return y

        rng = np.random.default_rng(1)
        e = rng.standard_normal((5, 4)).astype(np.float32)
        idx = np.array([0, 2, 4], np.int32)
        ref = sum(np.abs(e[idx[j]] - e[idx[(j + 1) % 3]]) for j in range(3))
        np.testing.assert_allclose(f(e, idx), ref, rtol=1e-5)

    def test_scalar_broadcast(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            c = a * 3.0
            return c

        np.testing.assert_allclose(f(np.ones(4, np.float32)), 3 * np.ones(4))

    def test_mismatched_ndim_rejected(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(a: ft.Tensor[(3, 4), "f32", "input"],
                  b: ft.Tensor[(4,), "f32", "input"]):
                c = a + b
                return c


class TestAssignmentSemantics:

    def test_float_scalar_materialised(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"]):
            acc = 0.0  # becomes a 0-D tensor
            for i in range(a.shape(0)):
                acc = ft.max(acc, a[i])
            y = ft.zeros((), "f32")
            y[...] = acc
            return y

        x = np.array([1.0, 5.0, 3.0], np.float32)
        assert float(f(x)) == 5.0

    def test_int_assignment_stays_meta(self):
        @ft.transform
        def f(a: ft.Tensor[(8,), "f32", "input"]):
            half = 4  # compile-time constant
            y = ft.zeros((), "f32")
            for i in range(half):
                y[...] += a[i]
            return y

        # no VarDef for `half` in the IR
        names = {d.name for d in collect_stmts(
            f.func.body, lambda s: isinstance(s, VarDef))}
        assert "half" not in names
        assert float(f(np.ones(8, np.float32))) == 4.0

    def test_augassign_scalar(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            s = 0.0
            for i in range(4):
                s += a[i]
            y = ft.zeros((), "f32")
            y[...] = s
            return y

        assert float(f(np.ones(4, np.float32))) == 4.0

    def test_augassign_subscript_becomes_reduce(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"],
              y: ft.Tensor[(4,), "f32", "output"]):
            for i in range(4):
                y[i] += a[i]

        reduces = collect_stmts(f.func.body,
                                lambda s: isinstance(s, ReduceTo))
        assert len(reduces) == 1
        assert reduces[0].op == "+"

    def test_sub_augassign(self):
        @ft.transform
        def f(y: ft.Tensor[(4,), "f32", "inout"]):
            for i in range(4):
                y[i] -= 1.0

        np.testing.assert_allclose(f(np.zeros(4, np.float32)), -np.ones(4))

    def test_zeros_binding_avoids_copy(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros(4, "f32")
            for i in range(4):
                y[i] = a[i]
            return y

        stores = collect_stmts(f.func.body,
                               lambda s: isinstance(s, Store))
        # zeros-fill (1 after optimisation may remain) + copy loop; no
        # intermediate "tmp -> y" copy loop.
        defs = collect_stmts(f.func.body, lambda s: isinstance(s, VarDef))
        assert len(defs) == 2  # a and y only


class TestLabels:

    def test_label_on_loop(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros(4, "f32")
            ft.label("main_loop")
            for i in range(4):
                y[i] = a[i]
            return y

        from repro.ir import find_stmt
        loop = find_stmt(f.func.body, "main_loop")
        assert isinstance(loop, For)


class TestRuntimeBinding:

    def test_wrong_arity(self):
        @ft.transform
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            return a[0:2]

        from repro.errors import InvalidProgram
        with pytest.raises(InvalidProgram):
            f(np.ones(4, np.float32), np.ones(4, np.float32))

    def test_shape_conflict(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"],
              b: ft.Tensor[("n",), "f32", "input"]):
            c = a + b
            return c

        from repro.errors import InvalidProgram
        with pytest.raises(InvalidProgram):
            f(np.ones(4, np.float32), np.ones(5, np.float32))

    def test_uninferable_scalar_requires_kwarg(self):
        @ft.transform
        def f(a: ft.Tensor[(8,), "f32", "input"], w: ft.Size):
            y = ft.zeros((), "f32")
            for i in range(w):
                y[...] += a[i]
            return y

        from repro.errors import InvalidProgram
        with pytest.raises(InvalidProgram):
            f(np.ones(8, np.float32))
        assert float(f(np.ones(8, np.float32), w=2)) == 2.0

    def test_dtype_coercion(self):
        @ft.transform
        def f(a: ft.Tensor[(3,), "f32", "input"]):
            c = a * 2.0
            return c

        out = f(np.arange(3))  # int64 input is cast to f32
        assert out.dtype == np.float32


class TestStagedCodeMemo:
    """``_rewrite_function`` compiles a source function once per process
    and still binds every call's own globals and closure cells."""

    @staticmethod
    def _scaled(k):
        def f(a: ft.Tensor[(4,), "f32", "input"]):
            y = ft.empty((4,), "f32")
            for i in range(4):                      # loop line
                y[i] = a[i] * k
            return y

        return f

    def test_one_function_is_compiled_once(self, monkeypatch, memos_off):
        from repro.frontend import staging

        compiled = []

        def counting(tree, **kw):
            compiled.append(kw["filename"])
            return compile(tree, **kw)

        monkeypatch.setattr(staging, "compile", counting, raising=False)
        staging._STAGED_CODE.clear()
        fn = self._scaled(2.0)
        first = staging._rewrite_function(fn)
        second = staging._rewrite_function(fn)
        third = staging._rewrite_function(self._scaled(3.0))  # same code
        assert len(compiled) == 1
        assert first is not second
        assert first.__code__ is second.__code__ is third.__code__
        memos_off()
        staging._rewrite_function(fn)
        assert len(compiled) == 2

    def test_each_call_binds_its_own_cells(self):
        from repro.frontend import staging

        staging._STAGED_CODE.clear()
        double, triple = (ft.transform(self._scaled(k)) for k in (2.0, 3.0))
        a = np.arange(4, dtype=np.float32)
        np.testing.assert_allclose(double(a), a * 2)
        np.testing.assert_allclose(triple(a), a * 3)
        s2 = staging._rewrite_function(self._scaled(2.0))
        s3 = staging._rewrite_function(self._scaled(3.0))
        assert s2.__ft_namespace__["k"] == 2.0
        assert s3.__ft_namespace__["k"] == 3.0
        assert s2.__ft_namespace__ is not s3.__ft_namespace__

    def test_spans_are_unchanged_on_a_hit(self):
        import os

        from repro.frontend import staging

        staging._STAGED_CODE.clear()
        fn = self._scaled(2.0)
        lines = []
        for _ in range(2):  # a miss, then a hit
            prog = ft.transform(fn)
            (loop,) = collect_stmts(prog.func.body,
                                    lambda s: isinstance(s, For))
            lines.append(loop.span)
        staged = staging._rewrite_function(fn)
        assert staged.__code__.co_firstlineno == fn.__code__.co_firstlineno
        assert lines[0] == lines[1]
        fname, line = lines[0]
        assert os.path.abspath(fname) == os.path.abspath(__file__)
        with open(__file__) as f:
            assert "# loop line" in f.read().splitlines()[line - 1]
