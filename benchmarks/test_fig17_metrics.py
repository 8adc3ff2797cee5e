"""Figure 17: why FreeTensor wins — SubdivNet-GPU hardware counters.

Paper metrics (FreeTensor vs best baseline, SubdivNet on a V100):
1 kernel invocation vs >= 6; DRAM traffic 3.31% of the baseline; L2
traffic 18.38%; FLOP count 79.72%.

Reproduction: the auto-scheduled FreeTensor program runs on the simulated
GPU (instrumented interpreter + cache model); the operator baseline runs
on OpTensor. Both charge the same ``repro.runtime.gpusim.Device``, which
counts kernel launches, DRAM bytes, L2 bytes and FLOPs. (The paper also
notes "profiling on the other cases shows similar results" — we record
all four workloads.)
"""

import numpy as np
import pytest

from common import MODULES, TINY, ft_args, record, run_baseline_once

from repro.autosched import GPU, auto_schedule
from repro.runtime import build
from repro.runtime.gpusim import Device


def _profile_ft(name):
    mod = MODULES[name]
    data = mod.make_data(**TINY[name])
    func = auto_schedule(mod.make_program(), target=GPU)
    m = Device(f"{name}-freetensor")
    exe = build(func, backend="gpusim", metrics=m)
    args, kwargs = ft_args(name, data)
    out = exe(*args, **kwargs)
    np.testing.assert_allclose(out, mod.reference(data), rtol=1e-3,
                               atol=1e-4)
    return m, data


@pytest.mark.parametrize("name", sorted(MODULES))
def test_counters(benchmark, name):
    m, data = _profile_ft(name)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _out, _leaves, dev = run_baseline_once(name, data)

    ft = m.as_dict()
    base = dev.as_dict()

    for metric in ("kernels", "dram_bytes", "l2_bytes", "flops"):
        record("fig17_metrics", f"{name}/{metric}", "freetensor",
               ft[metric])
        record("fig17_metrics", f"{name}/{metric}", "baseline",
               base[metric])
        if base[metric]:
            record("fig17_metrics", f"{name}/{metric}", "ft_over_base",
                   round(ft[metric] / base[metric], 4))


def test_zz_subdivnet_shape(benchmark):
    """The headline claims of Fig. 17 hold for SubdivNet."""
    m, data = _profile_ft("subdivnet")
    _out, _leaves, dev = run_baseline_once("subdivnet", data)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # one kernel invocation vs many
    assert m.kernels == 1
    assert dev.kernels >= 6
    # DRAM traffic a small fraction of the baseline's (paper: 3.31%)
    assert m.dram_bytes < 0.35 * dev.dram_bytes
    # FLOPs comparable or lower (paper: 79.72%)
    assert m.flops <= 1.1 * dev.flops
