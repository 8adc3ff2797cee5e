"""End-to-end tests of the four evaluation workloads: FreeTensor vs
baseline vs NumPy reference, forward and backward, plus auto-scheduled and
simulated-GPU execution."""

import numpy as np
import pytest

from repro.ad import GradExecutable, grad
from repro.autosched import CPU, GPU, auto_schedule
from repro.baselines import Device
from repro.runtime import build
from repro.workloads import gat, longformer, softras, subdivnet


def _ft_args(name, data):
    if name == "subdivnet":
        return (data["adj"], data["e"], data["w"]), {}
    if name == "longformer":
        return (data["q"], data["k"], data["v"]), {"w": data["w"]}
    if name == "softras":
        return (data["verts"], data["px"]), {}
    return (data["indptr"], data["indices"], data["h"], data["wmat"],
            data["att_s"], data["att_d"]), {}


_SMALL = {
    "subdivnet": dict(n_faces=24, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=24, feat_len=6, w=3),
    "softras": dict(n_faces=6, image_size=8),
    "gat": dict(n_nodes=24, avg_degree=3, feats=4, out_feats=4),
}

_MODULES = {
    "subdivnet": subdivnet,
    "longformer": longformer,
    "softras": softras,
    "gat": gat,
}


@pytest.mark.parametrize("name", sorted(_MODULES))
class TestForward:

    def test_freetensor_matches_reference(self, name):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        ref = mod.reference(data)
        args, kwargs = _ft_args(name, data)
        out = build(mod.make_program())(*args, **kwargs)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_baseline_matches_reference(self, name):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        ref = mod.reference(data)
        dev = Device("test")
        out, _ = mod.run_baseline(data, dev)
        np.testing.assert_allclose(out.numpy(), ref, rtol=1e-3,
                                   atol=1e-4)
        assert dev.kernels > 1  # operator-based: many kernels

    def test_autoscheduled_cpu(self, name):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        ref = mod.reference(data)
        func = auto_schedule(mod.make_program(), target=CPU)
        args, kwargs = _ft_args(name, data)
        out = build(func)(*args, **kwargs)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_autoscheduled_c_backend(self, name):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        ref = mod.reference(data)
        func = auto_schedule(mod.make_program(), target=CPU)
        args, kwargs = _ft_args(name, data)
        out = build(func, backend="c")(*args, **kwargs)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_gpusim_single_kernel(self, name):
        """FreeTensor runs each workload in very few simulated kernels
        (the paper's Fig. 17 headline: one launch for SubdivNet)."""
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        ref = mod.reference(data)
        func = auto_schedule(mod.make_program(), target=GPU)
        m = Device("ft")
        exe = build(func, backend="gpusim", metrics=m)
        args, kwargs = _ft_args(name, data)
        out = exe(*args, **kwargs)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)
        assert m.kernels <= 3
        dev = Device("cmp")
        mod.run_baseline(data, dev)
        assert m.kernels < dev.kernels


class TestGradients:

    @pytest.mark.parametrize("name",
                             ["subdivnet", "longformer", "softras"])
    def test_grad_matches_reference(self, name, rng):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        requires = {"subdivnet": ["e", "w"],
                    "longformer": ["q", "k", "v"],
                    "softras": ["verts"]}[name]
        gp = grad(mod.make_program(), requires=requires)
        exe = GradExecutable(gp)
        args, kwargs = _ft_args(name, data)
        out = exe(*args, **kwargs)
        og = rng.standard_normal(out.shape).astype(np.float32)
        out_name = list(gp.output_grads)[0]
        grads = exe.backward(out_grads={out_name: og})
        if not isinstance(grads, tuple):
            grads = (grads,)
        ref = mod.grad_reference(data, og)
        for g, key in zip(grads, requires):
            np.testing.assert_allclose(
                g, ref[key], rtol=1e-2, atol=2e-3,
                err_msg=f"{name}: grad of {key}")

    @pytest.mark.parametrize("name",
                             ["subdivnet", "longformer", "softras"])
    def test_baseline_grad_matches_reference(self, name, rng):
        mod = _MODULES[name]
        data = mod.make_data(**_SMALL[name])
        dev = Device("test")
        out, leaves = mod.run_baseline(data, dev, requires_grad=True)
        og = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(og)
        ref = mod.grad_reference(data, og)
        for key, leaf in leaves.items():
            np.testing.assert_allclose(
                leaf.grad, ref[key], rtol=1e-2, atol=2e-3,
                err_msg=f"{name}: baseline grad of {key}")

    def test_selective_materialization_stores_less(self):
        """Fig. 18: FT(+) (selective) materialises strictly less than
        FT(-) (tape-everything) on SoftRas and Longformer."""
        for mod, requires in ((softras, ["verts"]),
                              (longformer, ["q", "k", "v"])):
            sel = grad(mod.make_program(), requires=requires,
                       tapes="selective")
            all_ = grad(mod.make_program(), requires=requires,
                        tapes="all")
            assert set(sel.tape_names) < set(all_.tape_names), mod

    def test_selective_and_all_agree(self, rng):
        data = softras.make_data(n_faces=4, image_size=6)
        og = None
        results = []
        for policy in ("selective", "all"):
            gp = grad(softras.make_program(), requires=["verts"],
                      tapes=policy)
            exe = GradExecutable(gp)
            out = exe(data["verts"], data["px"])
            if og is None:
                og = rng.standard_normal(out.shape).astype(np.float32)
            results.append(exe.backward(out_grads={"img": og}))
        np.testing.assert_allclose(results[0], results[1], rtol=1e-4)


class TestMemoryBehaviour:

    def test_baseline_longformer_blows_up_with_window(self):
        """Baseline K/V sliding copies scale with the window (Fig. 1)."""
        small = longformer.make_data(seq_len=64, feat_len=8, w=2)
        big = longformer.make_data(seq_len=64, feat_len=8, w=16)
        d1, d2 = Device("a"), Device("b")
        longformer.run_baseline(small, d1)
        longformer.run_baseline(big, d2)
        assert d2.peak_bytes > 3 * d1.peak_bytes

    def test_baseline_oom_on_tiny_device(self):
        from repro.errors import SimulatedOOM

        data = longformer.make_data(seq_len=256, feat_len=32, w=64)
        dev = Device("tiny-gpu", capacity_bytes=2 * 1024 * 1024)
        with pytest.raises(SimulatedOOM):
            longformer.run_baseline(data, dev, requires_grad=True)

    def test_freetensor_static_peak_is_small(self):
        from repro.runtime.gpusim import static_peak_bytes

        prog = longformer.make_program()
        from repro.passes import lower

        func = lower(prog.func)
        n, d, w = 256, 32, 64
        peak = static_peak_bytes(func, {"n": n, "d": d, "w": w})
        # order n*d, not n*w*d: no sliding-window materialisation
        assert peak < 3 * (2 * w + 1) * 4 + 64  # per-token scratch only
