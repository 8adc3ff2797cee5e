"""Additional frontend coverage: capture, compile-time defaults, native
Python fallbacks, scope-escape diagnostics, and driver conveniences."""

import numpy as np
import pytest

import repro as ft
from repro.errors import StagingError
from repro.runtime import build


class TestCapture:

    def test_constant_tensor_embedded(self, rng):
        table = rng.standard_normal((4, 3)).astype(np.float32)

        @ft.transform
        def f(idx: ft.Tensor[("n",), "i32", "input"]):
            const = ft.capture(table)
            y = ft.zeros((idx.shape(0), 3), "f32")
            for i in range(idx.shape(0)):
                for k in range(3):
                    y[i, k] = const[idx[i], k] * 2.0
            return y

        idx = np.array([2, 0, 3], np.int32)
        np.testing.assert_allclose(f(idx), table[idx] * 2, rtol=1e-6)

    def test_capture_in_c_backend(self, rng):
        table = np.arange(6, dtype=np.float32)

        @ft.transform
        def f(y: ft.Tensor[(6,), "f32", "output"]):
            const = ft.capture(table)
            for i in range(6):
                y[i] = const[i] + 1.0

        np.testing.assert_allclose(build(f, backend="c")(), table + 1)

    def test_capture_int_dtype(self):
        lut = np.array([3, 1, 2, 0], np.int32)

        @ft.transform
        def f(x: ft.Tensor[(4,), "f32", "input"]):
            perm = ft.capture(lut)
            y = ft.empty((4,), "f32")
            for i in range(4):
                y[i] = x[perm[i]]
            return y

        x = np.arange(4, dtype=np.float32)
        np.testing.assert_allclose(f(x), x[lut])


class TestCompileTimeValues:

    def test_default_args_are_constants(self):
        @ft.transform
        def f(x: ft.Tensor[(8,), "f32", "input"], scale=3.0, start=2):
            y = ft.zeros((8,), "f32")
            for i in range(start, 8):
                y[i] = x[i] * scale
            return y

        x = np.ones(8, np.float32)
        out = f(x)
        assert np.all(out[:2] == 0) and np.all(out[2:] == 3)

    def test_closure_constants(self):
        width = 3

        @ft.transform
        def f(x: ft.Tensor[(8,), "f32", "input"]):
            y = ft.zeros((), "f32")
            for i in range(width):
                y[...] += x[i]
            return y

        assert float(f(np.ones(8, np.float32))) == 3.0

    def test_tuple_unpack_native(self):
        @ft.transform
        def f(x: ft.Tensor[(6,), "f32", "input"]):
            lo, hi = 1, 4  # plain Python tuple unpacking
            y = ft.zeros((), "f32")
            for i in range(lo, hi):
                y[...] += x[i]
            return y

        assert float(f(np.ones(6, np.float32))) == 3.0

    def test_enumerate_native(self):
        @ft.transform
        def f(x: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros((4,), "f32")
            for pos, mult in enumerate([1.0, 2.0]):
                for i in range(4):
                    y[i] += x[i] * mult + pos
            return y

        x = np.ones(4, np.float32)
        np.testing.assert_allclose(f(x), (1 + 0) + (2 + 1) * x)

    def test_python_list_augassign_untouched(self):
        @ft.transform
        def f(x: ft.Tensor[(4,), "f32", "input"]):
            weights = [1.0, 1.0]
            weights[0] += 1.0  # plain Python, not a tensor update
            y = ft.zeros((), "f32")
            for i in range(4):
                y[...] += x[i] * weights[0]
            return y

        assert float(f(np.ones(4, np.float32))) == 8.0


class TestDiagnostics:

    def test_scope_escape_augassign_rejected(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(x: ft.Tensor[("n",), "f32", "input"]):
                y = ft.zeros((), "f32")
                for i in range(x.shape(0)):
                    t = x[i] * 1.0  # scoped to this iteration
                for i in range(x.shape(0)):
                    t += x[i]  # out of scope
                return y

    def test_scope_escape_rebind_creates_fresh(self, rng):
        """Re-using a loop-local name later silently defines a new
        tensor (the GAT pattern)."""
        @ft.transform
        def f(x: ft.Tensor[(4,), "f32", "input"]):
            y = ft.zeros((4,), "f32")
            for i in range(4):
                t = x[i] * 2.0
                y[i] = t
            z = ft.zeros((4,), "f32")
            for i in range(4):
                t = x[i] * 3.0  # fresh tensor, not the old t
                z[i] = t
            return y, z

        x = rng.standard_normal(4).astype(np.float32)
        y, z = f(x)
        np.testing.assert_allclose(y, 2 * x, rtol=1e-6)
        np.testing.assert_allclose(z, 3 * x, rtol=1e-6)

    def test_return_in_branch_rejected(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(x: ft.Tensor[("n",), "f32", "input"]):
                y = ft.zeros((4,), "f32")
                for i in range(4):
                    if x[i] > 0.0:
                        return y
                return y

    def test_symbolic_bool_in_host_code(self):
        with pytest.raises((StagingError, TypeError)):
            @ft.transform
            def f(x: ft.Tensor[(4,), "f32", "input"]):
                y = ft.zeros((), "f32")
                while x[0] > 0.0:  # host while on symbolic condition
                    y[...] += 1.0
                return y

    def test_bad_annotation_message(self):
        with pytest.raises(StagingError):
            @ft.transform
            def f(x):
                x: "ft.Tensor[(4,)]"  # malformed annotation
                return x


class TestDriverConveniences:

    def test_source_property(self):
        @ft.transform
        def f(y: ft.Tensor[(2,), "f32", "output"]):
            for i in range(2):
                y[i] = 1.0

        assert "def kernel" in build(f, backend="pycode").source
        assert "void kernel" in build(f, backend="c").source
        assert build(f, backend="interp").source is None

    def test_unknown_backend(self):
        from repro.errors import BackendError

        @ft.transform
        def f(y: ft.Tensor[(2,), "f32", "output"]):
            for i in range(2):
                y[i] = 1.0

        with pytest.raises(BackendError):
            build(f, backend="tpu")

    def test_unknown_scalar_kwarg(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.zeros(("n",), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i]
            return y

        from repro.errors import InvalidProgram

        with pytest.raises(InvalidProgram):
            build(f)(np.ones(3, np.float32), bogus=7)

    def test_lazy_schedule_attr(self):
        assert ft.Schedule.__name__ == "Schedule"

    def test_program_repr(self):
        @ft.transform
        def f(y: ft.Tensor[(2,), "f32", "output"]):
            for i in range(2):
                y[i] = 1.0

        assert "Program" in repr(f) and "func f" in repr(f)


def test_threads_stage_at_once():
    # a server's dispatchers stage endpoint variants on first use: each
    # thread's program must come out as if staged alone
    import sys
    import threading

    from repro.ir import struct_hash
    from repro.workloads import gat, longformer, softras, subdivnet

    makers = [subdivnet.make_program, longformer.make_program,
              softras.make_program, gat.make_program]
    alone = [struct_hash(make().func) for make in makers]
    go = threading.Barrier(len(makers))
    seen = [[] for _ in makers]

    def stage(i):
        go.wait()
        for _ in range(10):
            try:
                seen[i].append(struct_hash(makers[i]().func))
            except StagingError as e:
                seen[i].append(str(e))

    threads = [threading.Thread(target=stage, args=(i,))
               for i in range(len(makers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-staging, often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [[h] * 10 for h in alone]
