"""Tests for the simulated device's accounting, the static footprint
analysis, the device models and the simulated GPU."""

import numpy as np
import pytest

import repro as ft
from repro.errors import SimulatedOOM
from repro.passes import lower
from repro.runtime import build
from repro.ir import MemType
from repro.runtime.gpusim import (LINE, SECTOR, Device, DeviceModel, V100,
                                  XEON, static_peak_bytes)
from repro.schedule import Schedule


class TestCacheModel:

    def test_sector_counting(self):
        m = Device("sim")
        buf = np.zeros(100, np.float32)
        m.on_access(buf, (0,))
        m.on_access(buf, (1,))  # same 32B sector: coalesced
        assert m.l2_bytes == SECTOR
        m.on_access(buf, (20,))  # a different sector
        assert m.l2_bytes == 2 * SECTOR

    def test_dram_line_miss_and_hit(self):
        m = Device("sim")
        buf = np.zeros(1000, np.float32)
        m.on_access(buf, (0,))
        assert m.dram_bytes == LINE
        m.on_access(buf, (100,))  # another line
        assert m.dram_bytes == 2 * LINE
        m.on_access(buf, (8,))  # line 0 again: L2 hit
        assert m.dram_bytes == 2 * LINE

    def test_lru_eviction(self):
        m = Device("sim", l2_capacity=2 * LINE)  # 2-line cache
        buf = np.zeros(10000, np.float64)
        for block in (0, 100, 200, 0):  # 0 evicted before re-access
            m.on_access(buf, (block,))
        assert m.dram_bytes == 4 * LINE

    def test_local_memory_free(self):
        m = Device("sim")
        buf = np.zeros(64, np.float32)
        m.on_alloc(buf, MemType.GPU_LOCAL)
        m.on_access(buf, (0,))
        assert m.l2_bytes == 0
        assert m.peak_bytes == 0  # registers don't count

    def test_footprint_tracking(self):
        m = Device("sim")
        a = np.zeros(1000, np.float32)
        b = np.zeros(500, np.float32)
        m.on_alloc(a, MemType.GPU_GLOBAL)
        m.on_alloc(b, MemType.GPU_GLOBAL)
        m.on_free(a, MemType.GPU_GLOBAL)
        assert m.peak_bytes == a.nbytes + b.nbytes
        assert m.current_bytes == b.nbytes

    def test_capacity_enforcement(self):
        m = Device("sim", capacity_bytes=1000)
        with pytest.raises(SimulatedOOM):
            m.on_alloc(np.zeros(1000, np.float32), MemType.GPU_GLOBAL)
        assert m.current_bytes == 0  # a refused allocation is not live


class TestStaticPeak:

    def test_stack_scoped_reuse(self):
        """Per-iteration scratch counts once, not per iteration."""
        @ft.transform
        def f(a: ft.Tensor[("n", 8), "f32", "input"]):
            y = ft.zeros(("n",), "f32")
            for i in range(a.shape(0)):
                t = ft.empty((8,), "f32")  # fresh per iteration
                for k in range(8):
                    t[k] = a[i, k]
                for k in range(8):
                    y[i] += t[k]
            return y

        peak = static_peak_bytes(lower(f.func), {"n": 1000})
        assert peak == 8 * 4  # one t instance; y is an interface tensor

    def test_sibling_scopes_max(self):
        @ft.transform
        def f(a: ft.Tensor[(16,), "f32", "input"],
              y: ft.Tensor[(16,), "f32", "output"]):
            t1 = ft.zeros((16,), "f32")
            for i in range(16):
                t1[i] = a[i] * 2.0
            for i in range(16):
                y[i] = t1[i]

        # a single live cache tensor at any point
        peak = static_peak_bytes(lower(f.func), {})
        assert peak == 16 * 4

    def test_symbolic_extent_via_params(self):
        @ft.transform
        def f(a: ft.Tensor[("n",), "f32", "input"], w: ft.Size):
            y = ft.zeros(("n",), "f32")
            for i in range(a.shape(0)):
                t = ft.empty((2 * w + 1,), "f32")
                for k in range(2 * w + 1):
                    t[k] = a[i]
                y[i] = t[0]
            return y

        peak = static_peak_bytes(lower(f.func), {"n": 100, "w": 8})
        assert peak == (2 * 8 + 1) * 4

    def test_param_bytes_added(self):
        @ft.transform
        def f(y: ft.Tensor[(4,), "f32", "output"]):
            for i in range(4):
                y[i] = 0.0

        assert static_peak_bytes(lower(f.func), {},
                                 param_bytes=1234) == 1234


class TestDeviceModels:

    def test_time_formula(self):
        m = Device("sim")
        m.kernels = 10
        m.dram_bytes = 9_000_000_000  # 9 GB at 900 GB/s -> 10 ms
        m.flops = 1
        t = V100.time(m)
        assert abs(t - (10 * 5e-6 + 0.01)) < 1e-9

    def test_compute_bound(self):
        m = Device("sim")
        m.kernels = 1
        m.flops = 14_000_000_000_000  # exactly 1 s of V100 FLOPs
        assert abs(V100.time(m) - (5e-6 + 1.0)) < 1e-6

    def test_capacity_check(self):
        dev = Device(V100.name, capacity_bytes=V100.capacity_bytes)
        with pytest.raises(SimulatedOOM):
            dev.alloc(33 * 2**30)
        dev.alloc(31 * 2**30)  # fits

    def test_cpu_vs_gpu_models_differ(self):
        assert XEON.dram_bw < V100.dram_bw
        assert XEON.launch_overhead_s < V100.launch_overhead_s

    def test_gpusim_and_baseline_report_alike(self):
        """FreeTensor's simulated run and the operator baseline charge
        the same class, so the model times both with no adapter."""
        from repro.autosched import GPU, auto_schedule
        from repro.workloads import subdivnet

        data = subdivnet.make_data(n_faces=8, in_feats=2, out_feats=2)
        ft_dev = Device("freetensor")
        exe = build(auto_schedule(subdivnet.make_program(), target=GPU),
                    backend="gpusim", metrics=ft_dev)
        exe(data["adj"], data["e"], data["w"])
        base_dev = Device("baseline")
        subdivnet.run_baseline(data, base_dev)
        assert ft_dev.as_dict().keys() == base_dev.as_dict().keys()
        assert 0 < V100.time(ft_dev) < V100.time(base_dev)


class TestGPUSimulator:

    def _prog(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty(("n",), "f32")
            ft.label("L")
            for i in range(x.shape(0)):
                y[i] = x[i] + 1.0
            return y

        return f

    def test_kernel_per_parallel_root(self):
        f = self._prog()
        s = Schedule(f)
        o, i = s.split("L", factor=32)
        s.parallelize(o, "cuda.blockIdx.x")
        s.parallelize(i, "cuda.threadIdx.x")
        m = Device("sim")
        exe = build(s.func, backend="gpusim", metrics=m)
        x = np.arange(100, dtype=np.float32)
        np.testing.assert_allclose(exe(x), x + 1)
        assert m.kernels == 1

    def test_sequential_fallback_counts_per_launch(self):
        """An unparallelised statement at host level is its own launch:
        the sequential loop runs on the host, each store is a kernel."""
        f = self._prog()
        m = Device("sim")
        exe = build(f, backend="gpusim", metrics=m)
        x = np.arange(10, dtype=np.float32)
        exe(x)
        assert m.kernels == 10

    def test_libcall_in_kernel_is_device_code(self, rng):
        """A library call inside a ``cuda.blockIdx.x`` kernel is charged
        its traffic and FLOPs, but no launch of its own."""
        @ft.transform
        def mm(a: ft.Tensor[(8, 8), "f32", "input"],
               b: ft.Tensor[(8, 8), "f32", "input"]):
            y = ft.empty((4,), "f32")
            ft.label("B")
            for n in range(4):
                c = ft.zeros((8, 8), "f32")
                ft.label("L")
                for i in range(8):
                    for j in range(8):
                        for k in range(8):
                            c[i, j] += a[i, k] * b[k, j]
                y[n] = c[n, n]
            return y

        s = Schedule(mm)
        s.as_lib("L")
        s.parallelize("B", "cuda.blockIdx.x")
        m = Device("sim")
        exe = build(s.func, backend="gpusim", metrics=m)
        A = rng.standard_normal((8, 8)).astype(np.float32)
        B = rng.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(exe(A, B), np.diag(A @ B)[:4], rtol=1e-4)
        assert m.kernel_names == [f"kernel@{s.find('B').sid}"]
        assert m.flops == 4 * 2 * 8 * 8 * 8  # the four matmuls, only
        assert m.l2_bytes >= 4 * 3 * A.nbytes  # each streams c, a, b

    def test_capacity_oom(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            big = ft.zeros(("n", "n"), "f32")
            y = ft.zeros(("n",), "f32")
            for i in range(x.shape(0)):
                big[i, i] = x[i]
                y[i] = big[i, i]
            return y

        tiny = DeviceModel("tiny", 5e-6, 900e9, 2500e9, 14e12,
                           capacity_bytes=1024)
        exe = build(f, backend="gpusim", device=tiny)
        with pytest.raises(SimulatedOOM) as static:
            exe(np.zeros(100, np.float32))
        # the static-peak refusal is the one an allocation of the same
        # bytes meets, e.g. an operator baseline's tensor
        from repro.baselines import tensor

        total = (100 * 100 + 2 * 100) * 4  # big, plus x and y
        with pytest.raises(SimulatedOOM) as dynamic:
            tensor(np.zeros(total // 4, np.float32),
                   Device("tiny", capacity_bytes=1024))
        for e in (static.value, dynamic.value):
            assert (e.requested, e.capacity) == (total, 1024)

    def test_libcall_is_one_kernel(self, rng):
        @ft.transform
        def mm(a: ft.Tensor[(8, 8), "f32", "input"],
               b: ft.Tensor[(8, 8), "f32", "input"]):
            c = ft.zeros((8, 8), "f32")
            ft.label("L")
            for i in range(8):
                for j in range(8):
                    for k in range(8):
                        c[i, j] += a[i, k] * b[k, j]
            return c

        s = Schedule(mm)
        s.as_lib("L")
        m = Device("sim")
        exe = build(s.func, backend="gpusim", metrics=m)
        A = rng.standard_normal((8, 8)).astype(np.float32)
        B = rng.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(exe(A, B), A @ B, rtol=1e-4)
        # one launch for the call, one per element of the 8x8 zero-fill
        assert m.kernel_names.count("lib.matmul") == 1
        assert m.kernels == 65

    def test_parameters_released_after_run(self):
        @ft.transform
        def f(x: ft.Tensor[(256,), "f32", "input"]):
            y = ft.empty((256,), "f32")
            for i in range(256):
                y[i] = x[i] * 2.0
            return y

        m = Device("sim")
        exe = build(f, backend="gpusim", metrics=m)
        x = np.ones(256, np.float32)
        peaks = []
        for _ in range(2):
            np.testing.assert_allclose(exe(x), 2 * x)
            assert m.current_bytes == 0
            peaks.append(m.peak_bytes)
        assert peaks == [2 * x.nbytes] * 2
