"""Unit tests for the compile-path caches and their building blocks:

- structural IR hashing (``repro.ir.hashing``);
- the Omega-test fast paths and feasibility memo;
- the content-addressed build cache;
- the lowering memo.
"""

import time

import numpy as np
import pytest

import repro as ft
from repro.ir import struct_hash
from repro.polyhedral import (Affine, LinCon, clear_feasibility_cache,
                              feasibility_stats, is_feasible)
from repro.runtime import build, build_cache_stats, clear_build_cache


def make_program():
    @ft.transform
    def f(b: ft.Tensor[("n", "m"), "f32", "input"],
          a: ft.Tensor[("n", "m"), "f32", "output"]):
        ft.label("Li")
        for i in range(b.shape(0)):
            ft.label("Lj")
            for j in range(b.shape(1)):
                a[i, j] = b[i, j] * 2.0 + 1.0

    return f


def make_program_variant():
    @ft.transform
    def f(b: ft.Tensor[("n", "m"), "f32", "input"],
          a: ft.Tensor[("n", "m"), "f32", "output"]):
        ft.label("Li")
        for i in range(b.shape(0)):
            ft.label("Lj")
            for j in range(b.shape(1)):
                a[i, j] = b[i, j] * 2.0 + 3.0  # different constant

    return f


class TestStructHash:

    def test_same_source_same_hash(self):
        # two stagings mint different sids; the default hash ignores them
        f1, f2 = make_program().func, make_program().func
        assert struct_hash(f1) == struct_hash(f2)

    def test_sid_inclusive_hash_differs(self):
        f1, f2 = make_program().func, make_program().func
        assert struct_hash(f1, include_sids=True) \
            != struct_hash(f2, include_sids=True)

    def test_structure_sensitive(self):
        assert struct_hash(make_program().func) \
            != struct_hash(make_program_variant().func)

    def test_stable_for_same_object(self):
        f = make_program().func
        assert struct_hash(f) == struct_hash(f)


class TestOmegaFastPaths:

    def test_gcd_reject(self):
        # 2x == 1 has no integer solution; caught before any elimination
        before = feasibility_stats()["gcd_rejects"]
        assert not is_feasible([LinCon.eq(Affine.var("x", 2),
                                          Affine.constant(1))])
        assert feasibility_stats()["gcd_rejects"] == before + 1

    def test_interval_reject(self):
        # x >= 5 and x <= 3: disjoint constant bounds
        before = feasibility_stats()["interval_rejects"]
        assert not is_feasible([
            LinCon.ge(Affine.var("x"), Affine.constant(5)),
            LinCon.le(Affine.var("x"), Affine.constant(3)),
        ])
        assert feasibility_stats()["interval_rejects"] == before + 1

    def test_interval_reject_scaled(self):
        # 3x >= 10 (x >= 4) and 2x <= 7 (x <= 3)
        assert not is_feasible([
            LinCon.ge(Affine.var("x", 3), Affine.constant(10)),
            LinCon.le(Affine.var("x", 2), Affine.constant(7)),
        ])

    def test_feasible_single_var_not_rejected(self):
        assert is_feasible([
            LinCon.ge(Affine.var("x"), Affine.constant(3)),
            LinCon.le(Affine.var("x"), Affine.constant(5)),
        ])

    def test_memo_hit_and_rename_invariance(self):
        clear_feasibility_cache()
        sys_x = [LinCon.ge(Affine.var("x") + Affine.var("y"),
                           Affine.constant(0)),
                 LinCon.lt(Affine.var("x"), Affine.var("y"))]
        sys_z = [LinCon.ge(Affine.var("z") + Affine.var("w"),
                           Affine.constant(0)),
                 LinCon.lt(Affine.var("z"), Affine.var("w"))]
        before = feasibility_stats()
        r1 = is_feasible(sys_x)
        # same system under renamed variables must hit the memo
        r2 = is_feasible(sys_z)
        after = feasibility_stats()
        assert r1 == r2
        assert after["memo_hits"] == before["memo_hits"] + 1

    def test_memo_disabled_agrees(self, monkeypatch):
        systems = [
            [LinCon.eq(Affine.var("i"), Affine.var("j")),
             LinCon.lt(Affine.var("i"), Affine.var("j"))],
            [LinCon.ge(Affine.var("i"), Affine.constant(0)),
             LinCon.lt(Affine.var("i"), Affine.constant(8))],
            [LinCon.eq(Affine.var("i", 4), Affine.var("j", 6) +
                       Affine.constant(1))],
        ]
        clear_feasibility_cache()
        with_memo = [is_feasible(s) for s in systems]
        monkeypatch.setenv("REPRO_NO_OMEGA_MEMO", "1")
        without = [is_feasible(s) for s in systems]
        assert with_memo == without


class TestBuildCache:

    def test_hit_returns_same_executable(self):
        clear_build_cache()
        p = make_program()
        before = build_cache_stats()
        e1 = build(p, backend="pycode")
        e2 = build(p, backend="pycode")
        after = build_cache_stats()
        assert e2 is e1
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_equivalent_program_hits(self):
        # a separately staged but identical program shares the entry
        clear_build_cache()
        e1 = build(make_program(), backend="pycode")
        e2 = build(make_program(), backend="pycode")
        assert e2 is e1

    def test_hit_is_fast(self):
        clear_build_cache()
        p = make_program()
        t0 = time.perf_counter()
        e1 = build(p, backend="pycode")
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        e2 = build(p, backend="pycode")
        warm = time.perf_counter() - t0
        assert e2 is e1
        assert warm < cold / 10  # acceptance: >= 10x faster
        # the cold build carries its phase timings; they sum to the total
        assert e1.compile_times
        assert e1.compile_time_total == sum(e1.compile_times.values()) > 0

    def test_clear_restores_cold_build(self):
        clear_build_cache()
        p = make_program()
        e1 = build(p, backend="pycode")
        ft.clear_build_cache()  # also exported at package level
        before = build_cache_stats()
        e2 = build(p, backend="pycode")
        after = build_cache_stats()
        assert e2 is not e1
        assert after["misses"] == before["misses"] + 1

    def test_distinct_options_miss(self):
        clear_build_cache()
        p = make_program()
        e1 = build(p, backend="pycode")
        e2 = build(p, backend="interp")
        e3 = build(p, backend="pycode", optimize=True)
        assert e1 is not e2
        assert e1 is not e3

    def test_env_hatch_bypasses(self, monkeypatch):
        clear_build_cache()
        p = make_program()
        monkeypatch.setenv("REPRO_NO_BUILD_CACHE", "1")
        e1 = build(p, backend="pycode")
        e2 = build(p, backend="pycode")
        assert e1 is not e2

    def test_stateful_opts_uncacheable(self):
        from repro.runtime.metrics import MetricsCollector

        clear_build_cache()
        p = make_program()
        before = build_cache_stats()
        e1 = build(p, backend="interp", metrics=MetricsCollector())
        e2 = build(p, backend="interp", metrics=MetricsCollector())
        after = build_cache_stats()
        assert e1 is not e2
        assert after["uncacheable"] == before["uncacheable"] + 2

    def test_cached_executable_still_correct(self, rng):
        clear_build_cache()
        x = rng.standard_normal((4, 6)).astype(np.float32)
        p = make_program()
        ref = build(p, backend="interp")(x)
        e1 = build(p, backend="pycode")
        e2 = build(p, backend="pycode")
        np.testing.assert_allclose(e2(x), ref, rtol=1e-5)
        np.testing.assert_allclose(e1(x), ref, rtol=1e-5)


class TestLowerCache:

    def test_lower_memo_shares_result(self):
        from repro.passes import lower
        from repro.pipeline import clear_pass_cache

        clear_pass_cache()
        f = make_program().func
        assert lower(f) is lower(f)

    def test_lower_memo_keyed_on_sids(self, monkeypatch):
        # separately staged identical programs differ in sids, and the
        # lowering memo must keep them apart (sids address statements in
        # later scheduling)
        from repro.passes import lower
        from repro.pipeline import clear_pass_cache

        clear_pass_cache()
        l1 = lower(make_program().func)
        l2 = lower(make_program().func)
        assert l1 is not l2

    def test_env_hatch_bypasses(self, monkeypatch):
        from repro.passes import lower
        from repro.pipeline import clear_pass_cache

        clear_pass_cache()
        monkeypatch.setenv("REPRO_NO_PASS_CACHE", "1")
        f = make_program().func
        assert lower(f) is not lower(f)


def test_clear_compile_caches_clears_everything():
    p = make_program()
    build(p, backend="pycode")
    ft.clear_compile_caches()
    stats = ft.compile_cache_stats()
    # counters survive clearing, but a rebuild after clearing is a miss
    before = stats["build"]["misses"]
    build(p, backend="pycode")
    assert ft.compile_cache_stats()["build"]["misses"] == before + 1


class TestBoundedMemos:
    """A full memo loses its oldest entry, never everything at once (a
    long tune crosses the pass-cache limit; clearing wholesale there
    would throw away the whole working set)."""

    def test_memo_put_evicts_oldest(self):
        from repro.pipeline.manager import memo_put

        memo = {}
        for k in range(24):
            memo_put(memo, 16, k, str(k))
        assert list(memo) == list(range(8, 24))
        memo_put(memo, 16, 8, "again")  # a present key evicts nothing
        assert len(memo) == 16 and memo[8] == "again"

    def test_memo_put_under_threads(self):
        # serving dispatcher threads reach the build and pass caches
        # concurrently; unlocked, two of them evict the same oldest key
        # and one raises KeyError
        import sys
        import threading

        from repro.pipeline.manager import memo_put

        memo, limit, n = {}, 8, 50_000
        errors = []

        def insert(tid):
            try:
                for i in range(n):
                    memo_put(memo, limit, (tid, i), i)
            except BaseException as e:  # noqa: BLE001 - reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(memo) <= limit
        newest = list(memo)[-1]
        assert newest[1] == n - 1 and memo[newest] == n - 1

    def test_omega_memo_evicts_instead_of_clearing(self, monkeypatch):
        from repro.polyhedral import omega

        monkeypatch.setattr(omega, "_MEMO", {})
        monkeypatch.setattr(omega, "_MEMO_LIMIT", 4)
        s = Affine.var("x") + Affine.var("y")
        for k in range(6):  # six distinct systems no quick reject decides
            assert is_feasible([LinCon.ge(s, Affine.constant(k)),
                                LinCon.le(s, Affine.constant(k + 1))])
        assert len(omega._MEMO) == 4

    def test_clear_compile_caches_covers_cost_and_batching(self):
        from repro.analysis.cost import api, estimate_cost
        from repro.serving import batch_axis_prepend, batching

        func = make_program().func
        estimate_cost(func)
        batch_axis_prepend(func)
        assert api._MEMO and batching._MEMO
        ft.clear_compile_caches()
        assert not api._MEMO and not batching._MEMO

    def test_pass_cache_keeps_the_newest(self, monkeypatch):
        from repro.pipeline import manager

        monkeypatch.setattr(manager, "_PASS_CACHE", {})
        limit = manager._PASS_CACHE_LIMIT
        func = make_program().func
        for k in range(limit + 8):
            manager.composite_cache_store("unit", str(k), func)
        assert len(manager._PASS_CACHE) == limit
        assert list(manager._PASS_CACHE) == [
            ("unit", str(k)) for k in range(8, limit + 8)]
        assert manager.composite_cache_lookup("unit", "7") is None
        assert manager.composite_cache_lookup("unit", "8") is func

    def test_pipeline_run_past_the_limit(self, monkeypatch):
        from repro.pipeline import lowering_pipeline, manager

        monkeypatch.setattr(manager, "_PASS_CACHE", {})
        monkeypatch.setattr(manager, "_PASS_CACHE_LIMIT", 4)
        pipe = lowering_pipeline()
        funcs = [make_program().func for _ in range(6)]  # distinct sids
        for f in funcs:
            pipe.run(f)
        assert len(manager._PASS_CACHE) == 4
        hits = manager.pass_cache_stats()["hits"]
        pipe.run(funcs[-1])  # newest: still served from memory
        assert manager.pass_cache_stats()["hits"] > hits
        misses = manager.pass_cache_stats()["misses"]
        pipe.run(funcs[0])  # oldest: evicted, runs again
        assert manager.pass_cache_stats()["misses"] > misses

    def test_build_cache_keeps_the_newest(self, monkeypatch):
        from repro.runtime import driver

        monkeypatch.setattr(driver, "_BUILD_CACHE", {})
        monkeypatch.setattr(driver, "_BUILD_CACHE_LIMIT", 2)
        progs = [make_program(), make_program_variant()]
        first = build(progs[0], backend="pycode")
        build(progs[1], backend="pycode")
        third = build(progs[0], backend="pycode", optimize=True)
        assert len(driver._BUILD_CACHE) == 2
        assert build(progs[0], backend="pycode", optimize=True) is third
        assert build(progs[0], backend="pycode") is not first

    def test_no_wholesale_clear_left(self):
        import inspect

        from repro.pipeline import manager
        from repro.runtime import driver

        for mod in (manager, driver):
            src = inspect.getsource(mod)
            assert "_CACHE.clear()  # pragma: no cover" not in src
