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
from repro import state
from repro.ir import Var, struct_hash
from repro.polyhedral import (clear_feasibility_cache, feasibility_stats,
                              is_feasible)
from repro.runtime import build, build_cache_stats, clear_build_cache

from .test_polyhedral import rows


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


x, y, z, w, i, j = (Var(v) for v in "xyzwij")


class TestOmegaFastPaths:

    def test_gcd_reject(self):
        # 2x == 1 has no integer solution; caught before any elimination
        before = feasibility_stats()["gcd_rejects"]
        assert not is_feasible(rows(x * 2 == 1))
        assert feasibility_stats()["gcd_rejects"] == before + 1

    def test_interval_reject(self):
        # x >= 5 and x <= 3: disjoint constant bounds
        before = feasibility_stats()["interval_rejects"]
        assert not is_feasible(rows(x >= 5, x <= 3))
        assert feasibility_stats()["interval_rejects"] == before + 1

    def test_interval_reject_scaled(self):
        # 3x >= 10 (x >= 4) and 2x <= 7 (x <= 3)
        assert not is_feasible(rows(x * 3 >= 10, x * 2 <= 7))

    def test_feasible_single_var_not_rejected(self):
        assert is_feasible(rows(x >= 3, x <= 5))

    def test_memo_hit_and_rename_invariance(self):
        clear_feasibility_cache()
        sys_x = rows(x + y >= 0, x < y)
        sys_z = rows(z + w >= 0, z < w)
        before = feasibility_stats()
        r1 = is_feasible(sys_x)
        # same system under renamed variables must hit the memo
        r2 = is_feasible(sys_z)
        after = feasibility_stats()
        assert r1 == r2
        assert after["memo_hits"] == before["memo_hits"] + 1

    def test_memo_disabled_agrees(self, memos_off):
        systems = [rows(i == j, i < j), rows(i >= 0, i < 8),
                   rows(i * 4 == j * 6 + 1)]
        clear_feasibility_cache()
        with_memo = [is_feasible(s) for s in systems]
        memos_off()
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
        # best of three on each side: one preemption or GC pause inside
        # a single ~40 us hit was the whole margin on a loaded host.
        # Each cold build stages a fresh program with every memo empty,
        # so no memo serves it.
        cold = warm = float("inf")
        for _ in range(3):
            ft.clear_compile_caches()
            p = make_program()
            t0 = time.perf_counter()
            e1 = build(p, backend="pycode")
            cold = min(cold, time.perf_counter() - t0)
            for _ in range(3):
                t0 = time.perf_counter()
                e2 = build(p, backend="pycode")
                warm = min(warm, time.perf_counter() - t0)
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

    def test_env_hatch_bypasses(self, memos_off):
        clear_build_cache()
        p = make_program()
        memos_off()
        e1 = build(p, backend="pycode")
        e2 = build(p, backend="pycode")
        assert e1 is not e2

    def test_stateful_opts_uncacheable(self):
        from repro.runtime.gpusim import Device

        clear_build_cache()
        p = make_program()
        before = build_cache_stats()
        e1 = build(p, backend="interp", metrics=Device("a"))
        e2 = build(p, backend="interp", metrics=Device("b"))
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

    def test_env_hatch_bypasses(self, memos_off):
        from repro.passes import lower
        from repro.pipeline import clear_pass_cache

        clear_pass_cache()
        memos_off()
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
    would throw away the whole working set). Every process-wide memo is
    a ``repro.state.BoundedMemo``, so the class is tested once and the
    sites only for using it."""

    @pytest.fixture
    def scratch_memo(self):
        # memos register by name for the life of the process; a test's
        # own one leaves the registry again
        made = []

        def make(limit):
            made.append(state.BoundedMemo(f"test-{len(state._MEMOS)}",
                                          limit))
            return made[-1]

        yield make
        for memo in made:
            del state._MEMOS[memo.name]

    def test_memo_put_evicts_oldest(self, scratch_memo):
        memo = scratch_memo(16)
        for k in range(24):
            memo.put(k, str(k))
        assert [k for k in range(24) if memo.get(k) is not None] \
            == list(range(8, 24))
        memo.put(8, "again")  # a present key evicts nothing
        assert len(memo) == 16 and memo.get(8) == "again"
        assert memo.get(9) == "9"

    def test_memo_put_under_threads(self, scratch_memo):
        # serving dispatcher threads reach the build and pass caches
        # concurrently while the main thread may clear them: unlocked,
        # two inserters evict the same oldest key (KeyError), or a clear
        # lands between an inserter's next(iter(d)) and its del
        # (RuntimeError: dictionary changed size during iteration)
        import sys
        import threading

        memo, n = scratch_memo(8), 50_000
        errors = []
        done = threading.Event()

        def insert(tid):
            try:
                for i in range(n):
                    memo.put((tid, i), i)
            except BaseException as e:  # noqa: BLE001 - reported below
                errors.append(e)

        def clear():
            try:
                while not done.is_set():
                    memo.clear()
            except BaseException as e:  # noqa: BLE001 - reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert, args=(t,))
                       for t in range(4)]
            clearer = threading.Thread(target=clear)
            for t in threads + [clearer]:
                t.start()
            for t in threads:
                t.join(timeout=120)
            done.set()
            clearer.join(timeout=120)
            assert not any(t.is_alive() for t in threads + [clearer])
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert len(memo) <= memo.limit
        memo.put("last", 1)
        assert memo.get("last") == 1

    def test_no_memo_switch_disables_get_and_put(self, scratch_memo,
                                                 monkeypatch):
        memo = scratch_memo(4)
        memo.put("k", 1)
        monkeypatch.setattr(state, "memos_on", False)  # read per lookup
        assert not state.memos_enabled()
        assert memo.get("k") is None
        memo.put("other", 2)
        monkeypatch.setattr(state, "memos_on", True)
        assert memo.get("k") == 1 and memo.get("other") is None

    def test_duplicate_name_raises(self, scratch_memo):
        memo = scratch_memo(4)
        with pytest.raises(ValueError, match="already declared"):
            state.BoundedMemo(memo.name, 4)
        with pytest.raises(ValueError, match="already declared"):
            state.Counters("omega", x=0)

    def test_forked_worker_can_put(self, scratch_memo):
        # a WorkerPool worker forked while a parent thread is mid-put
        # must not inherit the module lock held (the at-fork hook)
        import threading

        from repro.runtime.pool import OK, WorkerPool

        memo = scratch_memo(8)
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                memo.put(i, i)
                i += 1

        def handler(task):
            memo.put(("child", task), task)
            return memo.get(("child", task))

        t = threading.Thread(target=hammer)
        t.start()
        try:
            for _ in range(5):  # several forks: each must land unlocked
                pool = WorkerPool(handler, 2, timeout_s=30)
                try:
                    assert list(pool.map([1, 2, 3])) \
                        == [(OK, 1), (OK, 2), (OK, 3)]
                finally:
                    pool.close()
        finally:
            stop.set()
            t.join(timeout=30)

    def test_omega_memo_evicts_instead_of_clearing(self, monkeypatch):
        from repro.polyhedral import omega

        clear_feasibility_cache()
        monkeypatch.setattr(omega._MEMO, "limit", 4)
        s = x + y
        for k in range(6):  # six distinct systems no quick reject decides
            assert is_feasible(rows(s >= k, s <= k + 1))
        assert len(omega._MEMO) == 4

    def test_clear_compile_caches_covers_every_memo(self):
        # ... and whatever memo is declared next: the registry is the
        # list, so a seventh memo is covered the day it is declared. The
        # auto-scheduler, the cost model and batching memoize nothing.
        import repro.analysis.cost.api  # noqa: F401
        import repro.autosched.rules  # noqa: F401
        import repro.serving.batching  # noqa: F401

        func = make_program().func
        build(func, backend="pycode")
        assert set(state._MEMOS) == {"build", "deps", "deps_local",
                                     "lowering", "omega", "staged_code"}
        filled = [n for n, m in state._MEMOS.items() if len(m)]
        assert {"lowering", "build", "staged_code"} <= set(filled)
        ft.clear_compile_caches()
        assert [n for n, m in state._MEMOS.items() if len(m)] == []

    def test_pipeline_run_past_the_limit(self, monkeypatch):
        from repro.pipeline import lowering_pipeline, manager

        manager.clear_pass_cache()
        monkeypatch.setattr(manager._LOWERED, "limit", 4)
        pipe = lowering_pipeline()
        funcs = [make_program().func for _ in range(6)]  # distinct sids
        for f in funcs:
            pipe.run(f)
        assert len(manager._LOWERED) == 4
        hits = manager.pass_cache_stats()["hits"]
        pipe.run(funcs[-1])  # newest: still served from memory
        assert manager.pass_cache_stats()["hits"] > hits
        misses = manager.pass_cache_stats()["misses"]
        pipe.run(funcs[0])  # oldest: evicted, runs again
        assert manager.pass_cache_stats()["misses"] > misses

    def test_build_cache_keeps_the_newest(self, monkeypatch):
        from repro.runtime import driver

        clear_build_cache()
        monkeypatch.setattr(driver._BUILD_CACHE, "limit", 2)
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


#: the twelve tables of repro.stats()
TABLES = {"omega", "deps", "passes", "build", "bind", "disk", "verifier",
          "cost", "tuner", "search", "pool", "serving"}


class TestStatsRegistry:
    """``repro.stats()`` / ``repro.reset_stats()`` loop over the tables
    declared with ``repro.state.Counters``; nothing keeps a list."""

    def test_stats_has_exactly_the_declared_tables(self):
        from repro.analysis.cost import analyze_cost
        from repro.serving import batch_axis_prepend

        func = make_program().func
        build(func, backend="pycode")
        analyze_cost(func)
        batch_axis_prepend(func)
        snap = ft.stats()
        assert set(snap) == TABLES == set(state._COUNTERS)
        assert ft.stats("build") == snap["build"] == build_cache_stats()
        assert ft.compile_cache_stats() == {
            g: snap[g] for g in ("build", "bind", "passes", "deps",
                                 "omega", "disk")}
        with pytest.raises(KeyError):
            state._COUNTERS["build"].add("typo")  # only declared keys count

    def test_reset_stats_restores_declared_zeros(self):
        from repro.runtime import metrics
        from repro.verify import verify

        build(make_program(), backend="pycode")
        verify(make_program())
        metrics.POOL["backend"] = "interp"
        metrics.POOL.add("measure_time_s", 1.5)
        metrics.record_tuner_candidate("measured")
        metrics.record_best_trace([{"step": "split"}])
        metrics.record_serving_submit("t", "admitted")
        metrics.record_serving_batch(3, pad_elements=2)
        metrics.record_serving_responses("t", "ok", [0.25])
        assert metrics.serving_stats()["latency_samples"] == 1
        assert ft.stats("serving") == metrics.serving_stats()
        assert ft.stats("tuner")["best_trace"] == [{"step": "split"}]
        assert ft.stats("verifier")["runs"] >= 1

        ft.reset_stats()
        snap = ft.stats()
        assert snap["pool"]["backend"] == ""
        for table in snap.values():
            for key, value in table.items():
                if key.endswith("_s"):
                    assert value == 0.0 and isinstance(value, float), key
                elif isinstance(value, int):
                    assert value == 0, key
        # ... and what the per-family resets emptied
        serving = metrics.serving_stats()
        assert serving["batch_size_hist"] == {}
        assert serving["per_tenant"] == {}
        assert serving["latency_samples"] == 0
        assert metrics.tuner_stats()["best_trace"] is None

    def test_compile_cache_stats_in_a_fresh_interpreter(self):
        # the frozen benchmark subtracts two snapshots key by key, the
        # first taken before anything compiled: all six groups must be
        # there, numeric, before the compile path is even imported
        import json
        import os
        import subprocess
        import sys

        import repro

        code = ("import json, repro; "
                "print(json.dumps(repro.compile_cache_stats())); "
                "print(json.dumps(sorted(repro.stats())))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        snap, tables = map(json.loads, out.stdout.splitlines())
        assert tables == sorted(TABLES)
        assert list(snap) == ["build", "bind", "passes", "deps", "omega",
                              "disk"]
        for group in snap.values():
            assert all(type(v) in (int, float) for v in group.values())
        read = {"passes": {"hits", "misses", "disk_hits"},
                "deps": {"hits", "misses"},
                "omega": {"memo_hits", "full_solves"},
                "build": {"misses"},
                "bind": {"plan_misses"},
                "disk": {"gcc_runs", "ir_stores", "ir_hits", "ir_misses",
                         "native_hits"}}
        for group, keys in read.items():
            assert keys <= set(snap[group]), group
