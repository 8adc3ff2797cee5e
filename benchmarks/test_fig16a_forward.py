"""Figure 16(a): end-to-end time WITHOUT differentiation.

Paper series: PyTorch / JAX / TVM / Julia / DGL vs FreeTensor, CPU and
GPU. Reproduction series (see DESIGN.md substitution table):

- ``freetensor_c``      — auto-scheduled, native C/OpenMP backend;
- ``freetensor_numpy``  — auto-scheduled, vectorising NumPy backend;
- ``baseline_op``       — the operator-based framework (PyTorch/JAX
  analogue: one whole-tensor kernel per op);
- ``julia_mode``        — the same fine-grained program executed without
  holistic optimisation (reference interpreter), on a reduced size
  (scaled back up by the size ratio for the table);
- ``gpu_modeled``       — modeled V100 time of the FreeTensor single-
  kernel version vs the baseline's kernel sequence (analytic model over
  measured counters).

Expected shape (paper: FreeTensor up to 5.10x, 2.08x mean over the best
baseline): freetensor_c beats baseline_op on every workload; julia_mode
is far slower than both.
"""

import numpy as np
import pytest

from common import (MODULES, SIZES, TINY, ft_args, make_ft_exe, record,
                    run_baseline_once, verify)

WORKLOADS = sorted(MODULES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_freetensor_c(benchmark, name):
    exe, args, kwargs, data = make_ft_exe(name, backend="c")
    ref = MODULES[name].reference(data)
    out = benchmark(lambda: exe(*args, **kwargs))
    verify(out, ref)
    record("fig16a_forward", name, "freetensor_c",
           benchmark.stats.stats.mean)


@pytest.mark.parametrize("name", WORKLOADS)
def test_freetensor_numpy(benchmark, name):
    exe, args, kwargs, data = make_ft_exe(name, backend="pycode")
    ref = MODULES[name].reference(data)
    out = benchmark.pedantic(lambda: exe(*args, **kwargs), rounds=3,
                             iterations=1, warmup_rounds=1)
    verify(out, ref)
    record("fig16a_forward", name, "freetensor_numpy",
           benchmark.stats.stats.mean)


@pytest.mark.parametrize("name", WORKLOADS)
def test_baseline_operator(benchmark, name):
    mod = MODULES[name]
    data = mod.make_data(**SIZES[name])
    ref = mod.reference(data)

    def run():
        out, _leaves, _dev = run_baseline_once(name, data)
        return out

    out = benchmark(run)
    verify(out.numpy(), ref)
    record("fig16a_forward", name, "baseline_op",
           benchmark.stats.stats.mean)


@pytest.mark.parametrize("name", WORKLOADS)
def test_julia_mode(benchmark, name):
    """Fine-grained control flow without holistic optimisation: the
    unscheduled program on the reference interpreter (reduced size,
    rescaled; the paper's Julia rows are likewise the fallback mode)."""
    exe, args, kwargs, data = make_ft_exe(name, backend="interp",
                                          sizes=TINY[name],
                                          optimize=False)
    ref = MODULES[name].reference(data)
    out = benchmark.pedantic(lambda: exe(*args, **kwargs), rounds=1,
                             iterations=1)
    verify(out, ref)
    # rescale measured time from TINY to SIZES by the work ratio
    ratio = _work_ratio(name)
    record("fig16a_forward", name, "julia_mode",
           benchmark.stats.stats.mean * ratio)


def _work_ratio(name: str) -> float:
    s, t = SIZES[name], TINY[name]
    if name == "subdivnet":
        return (s["n_faces"] * s["in_feats"] * s["out_feats"]) / \
            (t["n_faces"] * t["in_feats"] * t["out_feats"])
    if name == "longformer":
        return (s["seq_len"] * s["feat_len"] * (2 * s["w"] + 1)) / \
            (t["seq_len"] * t["feat_len"] * (2 * t["w"] + 1))
    if name == "softras":
        return (s["n_faces"] * s["image_size"]**2) / \
            (t["n_faces"] * t["image_size"]**2)
    return (s["n_nodes"] * s["avg_degree"] * s["feats"]) / \
        (t["n_nodes"] * t["avg_degree"] * t["feats"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_gpu_modeled(benchmark, name):
    """Modeled V100 times from measured counters (FreeTensor's simulated
    single kernel vs the baseline's kernel chain)."""
    from repro.autosched import GPU
    from repro.runtime import build
    from repro.runtime.gpusim import Device, V100

    mod = MODULES[name]
    data = mod.make_data(**TINY[name])
    ref = mod.reference(data)
    from repro.autosched import auto_schedule

    func = auto_schedule(mod.make_program(), target=GPU)
    m = Device(f"{name}-freetensor")
    exe = build(func, backend="gpusim", metrics=m)
    args, kwargs = ft_args(name, data)

    out = benchmark.pedantic(lambda: exe(*args, **kwargs), rounds=1,
                             iterations=1)
    verify(out, ref)
    ft_t = V100.time(m)
    _outb, _leaves, dev = run_baseline_once(name, data)
    base_t = V100.time(dev)
    record("fig16a_forward", name, "gpu_modeled_ft", ft_t)
    record("fig16a_forward", name, "gpu_modeled_baseline", base_t)
    record("fig16a_forward", name, "gpu_kernels_ft", m.kernels)
    record("fig16a_forward", name, "gpu_kernels_base", dev.kernels)
    assert m.kernels < dev.kernels


def test_zz_shape_holds(benchmark):
    """The figure's comparative claim: FreeTensor wins on every workload
    and by a factor comparable to the paper's average."""
    from common import RESULTS

    rows = RESULTS["fig16a_forward"]
    speedups = []
    for name in WORKLOADS:
        r = rows[name]
        if "freetensor_c" in r and "baseline_op" in r:
            speedups.append(r["baseline_op"] / r["freetensor_c"])
            record("fig16a_forward", name, "speedup_vs_op",
                   r["baseline_op"] / r["freetensor_c"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(speedups) == len(WORKLOADS)
    assert all(s > 1.0 for s in speedups), speedups
    record("fig16a_forward", "MEAN", "speedup_vs_op",
           float(np.exp(np.mean(np.log(speedups)))))
