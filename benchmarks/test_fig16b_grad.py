"""Figure 16(b): end-to-end time WITH differentiation (fwd + bwd).

Paper series: the same frameworks' autograd vs FreeTensor's fine-grained
AD; the paper reports up to 127.74x (36.26x mean) and OOM for every
baseline on Longformer-GPU. Reproduction series:

- ``freetensor_c``  — grad() with selective materialization, native
  backend, forward + backward;
- ``baseline_op``   — the operator framework's graph autograd (every op
  output materialised and retained until backward);
- memory rows — the paper's OOM story: the baseline's graph memory vs
  FreeTensor's tape bytes on a capacity-limited simulated GPU.

As in the paper, GAT's gradient is not evaluated.
"""

import numpy as np
import pytest

from common import (GRAD_REQUIRES, MODULES, SIZES, ft_args, record,
                    run_baseline_once)

from repro.ad import GradExecutable, grad
from repro.errors import SimulatedOOM

WORKLOADS = sorted(GRAD_REQUIRES)  # no GAT, as in the paper


@pytest.mark.parametrize("name", WORKLOADS)
def test_freetensor_grad(benchmark, name):
    mod = MODULES[name]
    data = mod.make_data(**SIZES[name])
    gp = grad(mod.make_program(), requires=GRAD_REQUIRES[name])
    exe = GradExecutable(gp, backend="c")
    args, kwargs = ft_args(name, data)

    def run():
        exe(*args, **kwargs)
        return exe.backward()

    grads = benchmark(run)
    # verify against the NumPy gradient reference
    out = exe(*args, **kwargs)
    ref = mod.grad_reference(data, np.ones_like(np.asarray(out)))
    if not isinstance(grads, tuple):
        grads = (grads,)
    for g, key in zip(grads, GRAD_REQUIRES[name]):
        np.testing.assert_allclose(g, ref[key], rtol=2e-2, atol=2e-2)
    record("fig16b_grad", name, "freetensor_c",
           benchmark.stats.stats.mean)
    record("fig16b_grad", name, "ft_tape_bytes", exe.tape_bytes)


@pytest.mark.parametrize("name", WORKLOADS)
def test_baseline_grad(benchmark, name):
    mod = MODULES[name]
    data = mod.make_data(**SIZES[name])

    def run():
        out, leaves, dev = run_baseline_once(name, data,
                                             requires_grad=True)
        out.backward()
        return leaves, dev

    leaves, dev = benchmark(run)
    ref = mod.grad_reference(
        data, np.ones(mod.reference(data).shape, np.float32))
    for key, leaf in leaves.items():
        np.testing.assert_allclose(leaf.grad, ref[key], rtol=2e-2,
                                   atol=2e-2)
    record("fig16b_grad", name, "baseline_op",
           benchmark.stats.stats.mean)
    record("fig16b_grad", name, "baseline_peak_bytes", dev.peak_bytes)


def test_longformer_baseline_oom_on_limited_gpu(benchmark):
    """The paper's Longformer-GPU OOM: on a capacity-limited device the
    operator baseline's retained graph exceeds memory while FreeTensor's
    selective tapes fit easily (paper: all baselines OOM at 32 GB)."""
    from repro.workloads import longformer

    capacity = 192 * 2**20  # a scaled-down "GPU"
    big = longformer.make_data(seq_len=2048, feat_len=64, w=128)

    def run():
        try:
            out, _l, _d = run_baseline_once("longformer", big,
                                            capacity=capacity,
                                            requires_grad=True)
            out.backward()
            return "ok"
        except SimulatedOOM:
            return "OOM"

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome == "OOM"
    record("fig16b_grad", "longformer@2048", "baseline_outcome", "OOM")

    # FreeTensor's fwd+tape footprint on the same device, statically
    gp = grad(longformer.make_program(), requires=["q", "k", "v"])
    from repro.runtime.gpusim import static_peak_bytes

    n, d, w = 2048, 64, 128
    peak = static_peak_bytes(gp.fwd, {"n": n, "d": d, "w": w},
                             param_bytes=3 * n * d * 4)
    record("fig16b_grad", "longformer@2048", "ft_peak_bytes", peak)
    record("fig16b_grad", "longformer@2048", "ft_outcome",
           "ok" if peak <= capacity else "OOM")
    assert peak <= capacity


def test_zz_shape_holds(benchmark):
    """FreeTensor's AD beats the baseline autograd on every workload, by
    a larger factor than the forward-only comparison (the paper's
    with-differentiation gap widening)."""
    from common import RESULTS

    rows = RESULTS["fig16b_grad"]
    speedups = []
    for name in WORKLOADS:
        r = rows[name]
        if "freetensor_c" in r and "baseline_op" in r:
            s = r["baseline_op"] / r["freetensor_c"]
            speedups.append(s)
            record("fig16b_grad", name, "speedup_vs_op", s)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(speedups) == len(WORKLOADS)
    assert all(s > 1.0 for s in speedups), speedups
    record("fig16b_grad", "MEAN", "speedup_vs_op",
           float(np.exp(np.mean(np.log(speedups)))))
