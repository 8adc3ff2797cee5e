"""Tests for the rule-based auto-scheduler and the search tuner."""

import numpy as np
import pytest

import repro as ft
from repro.autosched import (CPU, GPU, StructuredTuner, Target,
                             auto_schedule, default_target)
from repro.ir import For, If, LibCall, VarDef, collect_stmts, dump
from repro.runtime import build
from repro.schedule import Schedule


def _loops(func):
    return collect_stmts(func.body, lambda s: isinstance(s, For))


class TestAutoFuse:

    def test_adjacent_elementwise_fused(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            a = ft.empty(("n",), "f32")
            for i in range(x.shape(0)):
                a[i] = x[i] * 2.0
            y = ft.empty(("n",), "f32")
            for j in range(x.shape(0)):
                y[j] = a[j] + 1.0
            return y

        out = auto_schedule(f, target=CPU, passes=["fuse"])
        assert len(_loops(out)) == 1

    def test_illegal_fusion_skipped(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "inout"]):
            for i in range(a.shape(0)):
                a[i] = a[i] + 1.0
            for j in range(a.shape(0) - 1):
                a[j] = a[j + 1]  # backward dep: cannot fuse

        out = auto_schedule(f, target=CPU, passes=["fuse"])
        assert len(_loops(out)) == 2


class TestAutoParallelizeVectorize:

    def test_cpu_annotations(self):
        @ft.transform
        def f(x: ft.Tensor[("n", "m"), "f32", "input"]):
            y = ft.empty(("n", "m"), "f32")
            for i in range(x.shape(0)):
                for j in range(x.shape(1)):
                    y[i, j] = x[i, j] * 2.0
            return y

        out = auto_schedule(f, target=CPU)
        pars = [l for l in _loops(out) if l.property.parallel]
        vecs = [l for l in _loops(out) if l.property.vectorize]
        assert pars and pars[0].property.parallel == "openmp"
        assert vecs

    def test_gpu_two_level_binding(self):
        @ft.transform
        def f(x: ft.Tensor[("n", 64), "f32", "input"]):
            y = ft.empty(("n", 64), "f32")
            for i in range(x.shape(0)):
                for j in range(64):
                    y[i, j] = x[i, j] + 1.0
            return y

        out = auto_schedule(f, target=GPU)
        kinds = {l.property.parallel for l in _loops(out)
                 if l.property.parallel}
        assert "cuda.blockIdx.x" in kinds
        assert "cuda.threadIdx.x" in kinds

    def test_serial_scan_stays_sequential(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "inout"]):
            for i in range(1, a.shape(0)):
                a[i] = a[i - 1] + a[i]

        out = auto_schedule(f, target=CPU)
        assert all(not l.property.parallel for l in _loops(out))


class TestAutoMemTypeUseLibUnroll:

    def test_gpu_local_promotion(self):
        @ft.transform
        def f(x: ft.Tensor[("n", 16), "f32", "input"]):
            y = ft.empty(("n",), "f32")
            for i in range(x.shape(0)):
                t = ft.empty((16,), "f32")
                for k in range(16):
                    t[k] = x[i, k] * 2.0
                s = 0.0
                for k in range(16):
                    s += t[k]
                y[i] = s
            return y

        out = auto_schedule(f, target=GPU)
        from repro.ir import MemType

        mtypes = {d.name.split(".")[0]: d.mtype
                  for d in collect_stmts(out.body,
                                         lambda s: isinstance(s, VarDef))
                  if d.atype.value == "cache"}
        assert any(m in (MemType.GPU_LOCAL, MemType.GPU_SHARED)
                   for m in mtypes.values())

    def test_matmul_to_lib(self):
        from repro import libop

        @ft.transform
        def f(a: ft.Tensor[(16, 16), "f32", "input"],
              b: ft.Tensor[(16, 16), "f32", "input"]):
            return libop.matmul(a, b)

        out = auto_schedule(f, target=CPU)
        assert collect_stmts(out.body, lambda s: isinstance(s, LibCall))

    def test_short_loop_unrolled(self):
        @ft.transform
        def f(x: ft.Tensor[("n", 3), "f32", "input"]):
            y = ft.zeros(("n",), "f32")
            for i in range(x.shape(0)):
                for j in range(3):
                    y[i] += x[i, j]
            return y

        out = auto_schedule(f, target=CPU)
        # the j loop (trip 3) is unrolled away
        iters = {l.iter_var for l in _loops(out)}
        assert not any(it.startswith("j") for it in iters)


class TestEndToEnd:

    def test_results_unchanged(self, rng):
        @ft.transform
        def f(x: ft.Tensor[("n", "m"), "f32", "input"],
              idx: ft.Tensor[("n",), "i32", "input"]):
            y = ft.zeros(("n",), "f32")
            for i in range(x.shape(0)):
                for j in range(x.shape(1)):
                    y[i] += x[idx[i], j]
            return y

        x = rng.standard_normal((10, 6)).astype(np.float32)
        idx = rng.integers(0, 10, 10).astype(np.int32)
        ref = build(f)(x, idx)
        for target in (CPU, GPU):
            out_func = auto_schedule(f, target=target)
            backend = "gpusim" if target.kind == "gpu" else "pycode"
            np.testing.assert_allclose(
                build(out_func, backend=backend)(x, idx), ref, rtol=1e-5)

    def test_default_target(self):
        assert default_target("gpusim").kind == "gpu"
        assert default_target("c").kind == "cpu"

    def test_driver_optimize_flag(self, rng):
        @ft.transform
        def f(x: ft.Tensor[(8,), "f32", "input"]):
            y = ft.empty((8,), "f32")
            for i in range(8):
                y[i] = x[i] * 3.0
            return y

        x = rng.standard_normal(8).astype(np.float32)
        exe = build(f, backend="pycode", optimize=True)
        np.testing.assert_allclose(exe(x), 3 * x, rtol=1e-6)


class TestStructuredTuner:

    def test_tuner_improves_or_matches(self, rng):
        @ft.transform
        def f(x: ft.Tensor[(64, 64), "f32", "input"]):
            y = ft.empty((64, 64), "f32")
            for i in range(64):
                for j in range(64):
                    y[i, j] = x[i, j] * 2.0 + 1.0
            return y

        x = rng.standard_normal((64, 64)).astype(np.float32)
        tuner = StructuredTuner(f, make_inputs=lambda: (x,),
                                backend="pycode", rounds=6, seed=1)
        result = tuner.tune()
        assert result.rounds == 6
        assert result.best_time < float("inf")
        assert len(result.round_times) == 6
        # the tuned program is still correct
        exe = build(result.best_func, backend="pycode")
        np.testing.assert_allclose(exe(x), 2 * x + 1, rtol=1e-6)

    def test_records_per_round_cost(self):
        @ft.transform
        def f(y: ft.Tensor[(16,), "f32", "output"]):
            for i in range(16):
                y[i] = 1.0

        tuner = StructuredTuner(f, make_inputs=lambda: (),
                                backend="pycode", rounds=3, seed=0)
        result = tuner.tune()
        assert result.total_time > 0
        assert result.time_per_round > 0
