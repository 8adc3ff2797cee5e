"""The unified backend registry: Backend objects as the single source
of backend truth, and the grep gate that keeps string dispatch out."""

import os
import re

import pytest

from repro.backend import (Backend, BackendCaps, ScopeRule,
                           available_backends, backend_cache_tag,
                           backend_caps, find_backend, get_backend,
                           register_backend, scope_violation,
                           unregister_backend)
from repro.errors import BackendError
from repro.ir import MemType


class TestRegistry:

    def test_builtins_registered(self):
        assert available_backends(runnable_only=False) == \
            ["c", "cuda", "gpusim", "interp", "npblock", "pycode"]
        # cuda is codegen-only: emitted source, no executor here
        assert available_backends() == \
            ["c", "gpusim", "interp", "npblock", "pycode"]
        assert not get_backend("cuda").runnable
        assert get_backend("pycode").runnable

    def test_unknown_backend_names_available(self):
        with pytest.raises(BackendError) as exc:
            get_backend("tpu")
        assert "tpu" in str(exc.value)
        assert "pycode" in str(exc.value)
        assert find_backend("tpu") is None

    def test_codegen_only_build_error(self):
        from repro.runtime import build
        from repro.schedule import Schedule
        from repro.workloads import gat

        func = Schedule(gat.make_program()).func
        with pytest.raises(BackendError) as exc:
            build(func, backend="cuda")
        assert "codegen-only" in str(exc.value)
        assert "gpusim" in str(exc.value)  # points at runnable ones

    def test_register_duplicate_and_replace(self):
        stub = Backend(name="pycode")
        with pytest.raises(BackendError):
            register_backend(stub)
        orig = get_backend("pycode")
        try:
            register_backend(stub, replace=True)
            assert get_backend("pycode") is stub
        finally:
            register_backend(orig, replace=True)
        assert get_backend("pycode") is orig

    def test_register_unregister_roundtrip(self):
        b = Backend(name="toy", build=lambda func, **k: (lambda env: None))
        register_backend(b)
        try:
            assert "toy" in available_backends()
            assert get_backend("toy") is b
        finally:
            unregister_backend("toy")
        assert find_backend("toy") is None

    def test_cache_tag_folds_caps_version(self):
        assert backend_cache_tag("pycode") == "pycode@1"
        assert backend_cache_tag("c") == "c@1"

    def test_unknown_backend_name_raises_everywhere(self):
        # every backend question is one registry lookup: a typo raises
        # instead of compiling, costing or keying a cache under a
        # sequential-scalar fallback
        from repro.analysis.cost import analyze_cost
        from repro.autosched.target import default_target
        from repro.pipeline import compile_ir
        from repro.schedule import Schedule
        from repro.workloads import gat

        func = Schedule(gat.make_program()).func
        for ask in (lambda: compile_ir(func, backend="tpu"),
                    lambda: analyze_cost(func, backend="tpu"),
                    lambda: default_target("tpu"),
                    lambda: backend_caps("tpu"),
                    lambda: backend_cache_tag("tpu")):
            with pytest.raises(BackendError, match="tpu"):
                ask()

    def test_caps_version_changes_build_cache_key(self):
        from repro.runtime.driver import _build_cache_key
        from repro.schedule import Schedule
        from repro.workloads import gat

        func = Schedule(gat.make_program()).func
        k1 = _build_cache_key(func, "npblock", False, None, {})
        orig = get_backend("npblock")
        bumped = Backend(name="npblock", build=orig.build, caps=orig.caps,
                         legalization=orig.legalization,
                         caps_version="2-test")
        register_backend(bumped, replace=True)
        try:
            k2 = _build_cache_key(func, "npblock", False, None, {})
        finally:
            register_backend(orig, replace=True)
        assert k1 != k2


class TestCaps:

    def test_capability_tables(self):
        c = backend_caps("c")
        assert c.capacity("openmp") > 1
        assert c.schedule_parallel_kind() == "openmp"
        assert c.stride_matters
        g = backend_caps("gpusim")
        assert g.capacity("cuda.blockIdx.x") is None  # unbounded
        assert g.schedule_parallel_kind() == "cuda.blockIdx.x"
        assert "gpu/shared" in g.memory_scopes
        p = backend_caps("pycode")
        assert p.schedule_parallel_kind() is None
        assert p.vector_width is None  # whole-loop NumPy kernels

    def test_undeclared_caps_are_sequential(self):
        caps = backend_caps("interp")
        assert caps.backend == "interp"
        assert caps.capacity("openmp") == 1
        assert caps.schedule_parallel_kind() is None

    def test_parallel_kind_capacity_one_is_noop(self):
        caps = BackendCaps("t", {"openmp": 1}, vector_width=1,
                           stride_matters=False,
                           parallel_ann_kind="openmp")
        assert caps.schedule_parallel_kind() is None

    def test_npblock_cost_overrides(self):
        caps = backend_caps("npblock")
        assert caps.vec_kernel_seq == 96.0
        assert caps.vec_whole_width == 16

    def test_npblock_block_size_is_not_an_environment_knob(
            self, monkeypatch, memos_off):
        # the block size is baked into generated source but in no cache
        # key: while it was read from the environment, changing the
        # variable returned the cached Executable with the old size
        from repro.runtime import build
        from repro.workloads import longformer

        prog = longformer.make_program()
        first = build(prog, backend="npblock", optimize=True)
        monkeypatch.setenv("REPRO_NPBLOCK_BLOCK", "8")
        monkeypatch.setenv("REPRO_NPBLOCK_MIN_TRIP", "2")
        assert build(prog, backend="npblock", optimize=True) is first
        memos_off()
        fresh = build(prog, backend="npblock", optimize=True)
        assert fresh is not first
        assert fresh.source == first.source
        assert "4096" in fresh.source and ">= 32" in fresh.source

    def test_target_capabilities_delegates(self):
        from repro.autosched import CPU

        caps = backend_caps("c", CPU)
        assert caps.backend == "c"
        assert caps.capacity("openmp") == CPU.num_threads


class TestScopeRules:

    def test_gpu_scope_rules_declared(self):
        # the FT203 facts formerly hard-coded in analysis/verify/races.py
        assert scope_violation("cuda.threadIdx.x", MemType.GPU_LOCAL)
        assert scope_violation("cuda.blockIdx.x", MemType.GPU_SHARED)
        assert not scope_violation("cuda.blockIdx.x", MemType.GPU_GLOBAL)
        assert not scope_violation("openmp", MemType.GPU_LOCAL)

    def test_scope_rule_prefix_matching(self):
        r = ScopeRule(MemType.GPU_LOCAL, "cuda", "private")
        assert r.matches("cuda.threadIdx.y", MemType.GPU_LOCAL)
        assert not r.matches("cudax", MemType.GPU_LOCAL)
        assert not r.matches("cuda.threadIdx.y", MemType.CPU)


class TestLegalization:

    def test_declared_legalization_from_registry(self):
        from repro.pipeline import declared_legalization

        assert declared_legalization("c") == ("simd_suppress",)
        assert declared_legalization("cuda") == ("simd_suppress",)
        assert declared_legalization("pycode") == ()
        assert declared_legalization("npblock") == ("npblock_vectorize",)

    def test_registered_backend_brings_its_pass(self):
        from repro.pipeline import Pass, build_pipeline, compile_ir
        from repro.schedule import Schedule
        from repro.workloads import gat

        seen = []

        def fn(func):
            seen.append(func)
            return func

        register_backend(Backend(name="toy",
                                 legalization=(Pass("toy_pass", fn),)))
        try:
            names = build_pipeline("toy").pass_names()
            assert names[-2:] == ["toy_pass", "codegen_prep"]
            compile_ir(Schedule(gat.make_program()).func, backend="toy")
        finally:
            unregister_backend("toy")
        assert len(seen) == 1

    def test_cold_c_build_times_legalization_by_pass_name(self, memos_off):
        # the end-to-end harness groups compile_times by these names
        # (pipeline.legalize_ms, pipeline.lowering_ms)
        from repro.runtime import build
        from repro.schedule import Schedule
        from repro.workloads import gat

        memos_off()
        exe = build(Schedule(gat.make_program()).func, backend="c")
        assert "simd_suppress" in exe.compile_times
        assert "codegen_prep" in exe.compile_times


class TestMeasurementNaming:

    def test_format_failure_carries_backend_name(self):
        from repro.autosched.search.measure import format_failure

        msg = format_failure("pycode", TypeError("boom"))
        assert msg == "pycode: TypeError: boom"
        # unregistered names still format consistently
        msg = format_failure("adhoc", ValueError("x"))
        assert msg == "adhoc: ValueError: x"

    def test_pool_stats_report_backend(self):
        from repro.autosched.search.measure import MeasurementPool
        from repro.runtime import metrics
        from repro.schedule import Schedule
        from repro.workloads import gat

        func = Schedule(gat.make_program()).func
        data = gat.make_data(n_nodes=8, avg_degree=2, feats=2,
                             out_feats=2)
        args = tuple(data[p] for p in func.params)
        with MeasurementPool(workers=1, backend="interp",
                             inputs=args) as pool:
            pool.measure_batch([(func, None)])
        assert metrics.pool_stats()["backend"] == "interp"


_STRING_DISPATCH = (
    # backend == "name" / "name" == backend and != variants
    re.compile(r"""backend\s*[!=]=\s*["']"""),
    re.compile(r"""["'][A-Za-z_]+["']\s*[!=]=\s*backend\b"""),
)


class TestNoStringDispatch:

    def test_no_backend_name_comparisons_outside_registry(self):
        """The grep gate: consumers must query Backend objects, never
        compare backend name strings. Only src/repro/backend/ (the
        declarations themselves) is exempt."""
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "src", "repro")
        offenders = []
        for dirpath, _dirs, files in os.walk(os.path.abspath(root)):
            if os.sep + "backend" in dirpath.replace("/", os.sep):
                continue
            for fn in files:
                if not fn.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fn)
                with open(path) as f:
                    for i, line in enumerate(f, 1):
                        if any(p.search(line) for p in _STRING_DISPATCH):
                            offenders.append(f"{path}:{i}: "
                                             f"{line.strip()}")
        assert not offenders, (
            "backend-name string dispatch found (query the registry "
            "instead):\n" + "\n".join(offenders))
