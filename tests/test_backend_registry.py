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
        b = Backend(name="toy", build=lambda func, **k: (lambda env: None),
                    description="test stub")
        register_backend(b)
        try:
            assert "toy" in available_backends()
            assert get_backend("toy") is b
        finally:
            unregister_backend("toy")
        assert find_backend("toy") is None

    def test_unknown_legalization_pass_rejected(self):
        with pytest.raises(ValueError) as exc:
            register_backend(Backend(name="toy2",
                                     legalization=("no_such_pass",)))
        assert "no_such_pass" in str(exc.value)
        assert find_backend("toy2") is None

    def test_cache_tag_folds_caps_version(self):
        assert get_backend("pycode").cache_tag() == "pycode@1"
        assert backend_cache_tag("pycode") == "pycode@1"
        # unregistered names pass through untagged
        assert backend_cache_tag("adhoc") == "adhoc"

    def test_caps_version_changes_build_cache_key(self):
        from repro.runtime.driver import _build_cache_key
        from repro.schedule import Schedule
        from repro.workloads import gat

        func = Schedule(gat.make_program()).func
        k1 = _build_cache_key(func, "npblock", False, None, {})
        orig = get_backend("npblock")
        bumped = Backend(name="npblock", build=orig.build, caps=orig.caps,
                         legalization=orig.legalization,
                         legalization_impls=orig.legalization_impls,
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

    def test_unknown_backend_sequential_fallback(self):
        caps = backend_caps("adhoc")
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

    def test_npblock_block_size_is_not_an_environment_knob(self,
                                                           monkeypatch):
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
        monkeypatch.setenv("REPRO_NO_MEMO", "1")
        fresh = build(prog, backend="npblock", optimize=True)
        assert fresh is not first
        assert fresh.source == first.source
        assert "4096" in fresh.source and ">= 32" in fresh.source

    def test_target_capabilities_delegates(self):
        from repro.autosched import CPU

        caps = CPU.capabilities("c")
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

    def test_legalization_pass_keys_versioned(self):
        from repro.pipeline.legalize import legalization_passes

        passes = legalization_passes("c")
        assert [p.name for p in passes] == ["simd_suppress"]
        # the cache chain sees name@caps_version; timings see the name
        assert passes[0].key == "simd_suppress@1"
        nb = legalization_passes("npblock")
        assert nb[0].key == "npblock_vectorize@1"


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
