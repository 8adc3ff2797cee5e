"""Tests for the extension features beyond the paper's core system:
dilated Longformer attention, the evolutionary schedule search, and
multi-layer composition of DSL programs."""

import numpy as np
import pytest

import repro as ft
from repro.autosched import CPU, StructuredTuner, auto_schedule
from repro.runtime import build
from repro.workloads import longformer, subdivnet


class TestDilatedLongformer:

    def test_matches_reference(self, rng):
        data = longformer.make_data(seq_len=40, feat_len=8, w=3)
        prog = longformer.make_dilated_program()
        for dil in (1, 2, 3):
            ref = longformer.reference_dilated(data, dil)
            out = build(prog)(data["q"], data["k"], data["v"],
                              w=data["w"], dil=dil)
            np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_dilation_one_equals_plain(self, rng):
        data = longformer.make_data(seq_len=32, feat_len=8, w=4)
        plain = build(longformer.make_program())(
            data["q"], data["k"], data["v"], w=data["w"])
        dil = build(longformer.make_dilated_program())(
            data["q"], data["k"], data["v"], w=data["w"], dil=1)
        np.testing.assert_allclose(dil, plain, rtol=1e-5)

    def test_autoschedules_and_differentiates(self, rng):
        data = longformer.make_data(seq_len=24, feat_len=6, w=2)
        prog = longformer.make_dilated_program()
        func = auto_schedule(prog, target=CPU)
        out = build(func, backend="c")(data["q"], data["k"], data["v"],
                                       w=data["w"], dil=2)
        ref = longformer.reference_dilated(data, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

        from repro.ad import GradExecutable, grad

        gp = grad(prog, requires=["q"])
        exe = GradExecutable(gp)
        exe(data["q"], data["k"], data["v"], w=data["w"], dil=2)
        g = exe.backward()
        # finite-difference spot check
        eps = 1e-2
        qp, qm = data["q"].copy(), data["q"].copy()
        qp[5, 2] += eps
        qm[5, 2] -= eps
        dp = longformer.reference_dilated({**data, "q": qp}, 2).sum()
        dm = longformer.reference_dilated({**data, "q": qm}, 2).sum()
        assert abs((dp - dm) / (2 * eps) - g[5, 2]) < 5e-2


class TestStructuredTuner:

    def test_finds_valid_schedule(self, rng):
        @ft.transform
        def f(x: ft.Tensor[(64, 32), "f32", "input"]):
            y = ft.empty((64, 32), "f32")
            for i in range(64):
                for j in range(32):
                    y[i, j] = x[i, j] * 2.0 + 1.0
            return y

        x = rng.standard_normal((64, 32)).astype(np.float32)
        tuner = StructuredTuner(f, make_inputs=lambda: (x,),
                                backend="pycode", rounds=8, batch=4,
                                seed=2)
        result = tuner.tune()
        assert result.best_time < float("inf")
        exe = build(result.best_func, backend="pycode")
        np.testing.assert_allclose(exe(x), 2 * x + 1, rtol=1e-6)


class TestMultiLayerComposition:
    """DSL programs compose like layers: a 2-layer SubdivNet 'network'."""

    def test_two_layer_mesh_network(self, rng):
        data = subdivnet.make_data(n_faces=20, in_feats=4, out_feats=4)
        prog = subdivnet.make_program()
        exe = build(prog, backend="c")
        h1 = exe(data["adj"], data["e"], data["w"])
        h2 = exe(data["adj"], h1, data["w"])  # same layer applied twice
        ref1 = subdivnet.reference(data)
        ref2 = subdivnet.reference({**data, "e": ref1})
        np.testing.assert_allclose(h2, ref2, rtol=1e-2, atol=1e-3)

    def test_training_two_layers_end_to_end(self, rng):
        """Backprop through two chained compiled layers."""
        from repro.ad import GradExecutable, grad

        data = subdivnet.make_data(n_faces=12, in_feats=4, out_feats=4)
        gp = grad(subdivnet.make_program(), requires=["e", "w"])
        l1 = GradExecutable(gp)
        l2 = GradExecutable(grad(subdivnet.make_program(),
                                 requires=["e", "w"]))
        h1 = l1(data["adj"], data["e"], data["w"])
        out = l2(data["adj"], h1, data["w"])
        # d sum(out) / d w via the chain of the two layers
        gh1, gw2 = l2.backward()
        ge, gw1 = l1.backward(out_grads={"y": gh1})
        gw_total = gw1 + gw2

        # numeric check on one weight entry
        eps = 1e-2

        def loss(w):
            a = subdivnet.reference({**data, "w": w})
            b = subdivnet.reference({**data, "e": a, "w": w})
            return float(b.sum())

        wp, wm = data["w"].copy(), data["w"].copy()
        wp[3, 1] += eps
        wm[3, 1] -= eps
        num = (loss(wp) - loss(wm)) / (2 * eps)
        assert abs(num - gw_total[3, 1]) < max(0.08 * abs(num), 0.08)
