"""Figure 18: Selective Intermediate Tensor Materialization for AD.

Paper: FT(+) (selective, section 5.2) vs FT(-) (materialise every
intermediate): 1.21x-6.83x end-to-end speedup, most of it in the forward
pass, and one case that only *fits in memory* with the selective
strategy.

Reproduction rows per workload: forward time, backward time, tape bytes
for both policies, plus the capacity experiment (SoftRas at a larger
size on a limited device: FT(-)'s pixels x faces tape exceeds capacity,
FT(+) fits).
"""

import time

import numpy as np
import pytest

from common import GRAD_REQUIRES, MODULES, SIZES, ft_args, record

from repro.ad import GradExecutable, grad

WORKLOADS = sorted(GRAD_REQUIRES)


def _measure(exe, args, kwargs, repeats=5):
    exe(*args, **kwargs)
    exe.backward()
    fwd = bwd = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        exe(*args, **kwargs)
        t1 = time.perf_counter()
        exe.backward()
        t2 = time.perf_counter()
        fwd = min(fwd, t1 - t0)
        bwd = min(bwd, t2 - t1)
    return fwd, bwd


#: larger sizes so tape traffic leaves the cache (the regime the paper
#: measures); see EXPERIMENTS.md on scaling
_FIG18_SIZES = dict(SIZES)
_FIG18_SIZES["softras"] = dict(n_faces=96, image_size=64)
_FIG18_SIZES["longformer"] = dict(seq_len=512, feat_len=16, w=16)


@pytest.mark.parametrize("name", WORKLOADS)
def test_selective_vs_all(benchmark, name):
    mod = MODULES[name]
    data = mod.make_data(**_FIG18_SIZES[name])
    args, kwargs = ft_args(name, data)

    results = {}
    grads = {}
    for policy, tag in (("selective", "FT(+)"), ("all", "FT(-)")):
        gp = grad(mod.make_program(), requires=GRAD_REQUIRES[name],
                  tapes=policy)
        exe = GradExecutable(gp, backend="c")
        fwd, bwd = _measure(exe, args, kwargs)
        results[tag] = (fwd, bwd, exe.tape_bytes)
        g = exe.backward()
        grads[tag] = g if isinstance(g, tuple) else (g,)
        record("fig18_materialization", f"{name}/fwd_s", tag, fwd)
        record("fig18_materialization", f"{name}/bwd_s", tag, bwd)
        record("fig18_materialization", f"{name}/tape_bytes", tag,
               exe.tape_bytes)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # both policies agree numerically
    for a, b in zip(grads["FT(+)"], grads["FT(-)"]):
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-3)
    # selective never stores more (strictly less where recompute applies)
    assert results["FT(+)"][2] <= results["FT(-)"][2]
    total_sel = results["FT(+)"][0] + results["FT(+)"][1]
    total_all = results["FT(-)"][0] + results["FT(-)"][1]
    record("fig18_materialization", f"{name}/speedup", "FT(+)",
           total_all / total_sel)
    record("fig18_materialization", f"{name}/fwd_speedup", "FT(+)",
           results["FT(-)"][0] / results["FT(+)"][0])
    # the paper's observation: the forward pass gains from not
    # materialising. End-to-end, recomputation trades FLOPs for memory
    # traffic; on this CPU substrate (scalar sigmoids vs cached loads)
    # the backward pass can give some of it back — see EXPERIMENTS.md —
    # but the exchange must stay bounded.
    assert results["FT(+)"][0] <= 1.1 * results["FT(-)"][0]
    assert total_sel <= 1.35 * total_all


def test_zz_capacity_case(benchmark):
    """The paper's OOM row: FT(-) must materialise the pixels x faces
    score tensor; on a capacity-limited device only FT(+) runs."""
    from repro.errors import SimulatedOOM
    from repro.runtime.gpusim import Device, static_peak_bytes
    from repro.workloads import softras

    h = w = 96
    m = 256
    capacity = 8 * 2**20  # an 8 MiB "device"
    device = Device("tiny", capacity_bytes=capacity)

    outcomes = {}
    for policy, tag in (("selective", "FT(+)"), ("all", "FT(-)")):
        gp = grad(softras.make_program(), requires=["verts"],
                  tapes=policy)
        peak = static_peak_bytes(
            gp.fwd, {"h": h, "wd": w, "m": m},
            param_bytes=(m * 6 + h * w * 2 + h * w) * 4)
        # tapes are outputs: add their storage
        from repro.ir import defined_tensors

        defs = defined_tensors(gp.fwd.body)
        env = {"h": h, "wd": w, "m": m}
        from repro.runtime.interpreter import Interpreter

        interp = Interpreter()
        tape_bytes = 0
        for t in gp.tape_names:
            d = defs[t]
            size = d.dtype.size_bytes
            for dim in d.shape:
                size *= int(interp.eval_expr(dim, dict(env)))
            tape_bytes += size
        total = peak + tape_bytes
        try:
            device.alloc(total)
            device.free(total)
            outcomes[tag] = "ok"
        except SimulatedOOM:
            outcomes[tag] = "OOM"
        record("fig18_materialization", "softras@96/peak_bytes", tag,
               total)
        record("fig18_materialization", "softras@96/outcome", tag,
               outcomes[tag])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert outcomes == {"FT(+)": "ok", "FT(-)": "OOM"}
