"""Longformer sliding-window attention: free-form vs operator-based.

Reproduces the paper's motivating example (Fig. 1): an operator-based
framework must pad and copy K/V window-fold to express sliding-window
attention, while the free-form DSL just indexes ``k[i + j]``.

Run:  python examples/longformer_attention.py
"""

import time

import numpy as np

from repro.ad import GradExecutable, grad
from repro.autosched import CPU, auto_schedule
from repro.passes import lower
from repro.runtime import build
from repro.runtime.gpusim import Device, static_peak_bytes
from repro.workloads import longformer


def main():
    n, d, w = 512, 32, 32
    data = longformer.make_data(seq_len=n, feat_len=d, w=w)
    ref = longformer.reference(data)

    # -- FreeTensor: auto-scheduled, compiled to native code ------------
    prog = longformer.make_program()
    func = auto_schedule(prog, target=CPU)
    exe = build(func, backend="c")
    out = exe(data["q"], data["k"], data["v"], w=w)
    assert np.allclose(out, ref, rtol=1e-3, atol=1e-4)
    t0 = time.perf_counter()
    for _ in range(5):
        exe(data["q"], data["k"], data["v"], w=w)
    ft_time = (time.perf_counter() - t0) / 5

    # -- Operator-based baseline (pad + sliding-window copies) ----------
    dev = Device("baseline")
    out_b, _ = longformer.run_baseline(data, dev)
    assert np.allclose(out_b.numpy(), ref, rtol=1e-3, atol=1e-4)
    t0 = time.perf_counter()
    for _ in range(5):
        dev2 = Device("t")
        longformer.run_baseline(data, dev2)
    base_time = (time.perf_counter() - t0) / 5

    print(f"sequence {n}, features {d}, window ±{w}")
    print(f"FreeTensor (C backend): {ft_time * 1e3:8.2f} ms")
    print(f"operator baseline:      {base_time * 1e3:8.2f} ms "
          f"({dev.kernels} kernels)")

    # -- memory: the paper's core point ----------------------------------
    ft_peak = static_peak_bytes(lower(prog.func),
                                {"n": n, "d": d, "w": w})
    print(f"\nintermediate memory, FreeTensor: {ft_peak:,} bytes "
          f"(per-token scratch only)")
    print(f"intermediate memory, baseline:   {dev.peak_bytes:,} bytes "
          f"(K/V copied {2 * w + 1}-fold)")

    # -- differentiation -----------------------------------------------------
    gp = grad(prog, requires=["q", "k", "v"])
    gexe = GradExecutable(gp)
    gexe(data["q"], data["k"], data["v"], w=w)
    gq, gk, gv = gexe.backward()
    gref = longformer.grad_reference(data, np.ones_like(ref))
    assert np.allclose(gq, gref["q"], rtol=1e-2, atol=1e-3)
    print("\ngradients (selective materialization) verified;"
          f" tapes: {gp.tape_names},"
          f" recomputed: {sorted(gp.materialization.recompute)}")


if __name__ == "__main__":
    main()
