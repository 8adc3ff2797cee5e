"""The persistent cross-process compile cache (repro.cache).

The suite runs with ``REPRO_NO_DISK_CACHE=1`` (see conftest); tests here
opt in by re-pointing ``REPRO_CACHE_DIR`` at a tmp_path, either in this
process via monkeypatch or in subprocesses for the cross-process
guarantees.
"""

import json
import os
import subprocess
import sys

import pytest

import repro as ft
from repro.cache import keys as cache_keys
from repro.ir import struct_hash
from repro.cache.serial import canonical_key, preorder_sids
from repro.cache.store import DiskCache, get_store
from repro.pipeline import build_pipeline, clear_pass_cache, compile_ir
from repro.pipeline.manager import pass_cache_stats
from repro.runtime.driver import Executable, build
from repro.workloads import gat

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def disk_env(monkeypatch, tmp_path):
    """Point the persistent cache at a fresh directory and enable it."""
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_pass_cache()
    yield str(tmp_path / "cache")
    clear_pass_cache()


def _disk():
    return ft.compile_cache_stats()["disk"]


def _passes_executed():
    from repro.runtime.metrics import pipeline_stats

    return sum(r["runs"] - r["cache_hits"]
               for r in pipeline_stats().values())


def _subenv(cache_dir, **extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env.update(extra)
    return env


def _run_py(code, cache_dir, **extra):
    return subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True, check=True,
                          env=_subenv(cache_dir, **extra))


class TestStore:

    def test_pipeline_populates_and_serves(self, disk_env):
        func = gat.make_program().func
        out1 = compile_ir(func)
        store = get_store()
        assert store is not None
        assert store.disk_stats()["by_kind"] == {
            "compile": {"entries": 1,
                        "bytes": store.disk_stats()["ir_bytes"]}}
        # wipe memory: the same compile must now come from disk, with
        # one lookup and without running a pass
        clear_pass_cache()
        hits = _disk()["ir_hits"]
        misses = pass_cache_stats()["misses"]
        out2 = compile_ir(gat.make_program().func)
        assert _disk()["ir_hits"] == hits + 1
        assert pass_cache_stats()["misses"] == misses
        assert struct_hash(out2) == struct_hash(out1)

    def test_corrupt_entry_is_a_miss_not_a_crash(self, disk_env):
        compile_ir(gat.make_program().func)
        store = get_store()
        entries = []
        for dirpath, _dirs, files in os.walk(store.ir_dir()):
            entries += [os.path.join(dirpath, f) for f in files
                        if f.endswith(".json")]
        assert entries
        for path in entries:  # truncate one, garbage the rest
            with open(path, "w") as f:
                f.write('{"fmt": 1, "input_sids": [')
        clear_pass_cache()
        before = _disk()["ir_corrupt"]
        out = compile_ir(gat.make_program().func)
        assert out is not None  # recompiled cleanly
        assert _disk()["ir_corrupt"] > before
        # every corrupt entry was dropped (and possibly re-written with
        # good content by the recompile); none of the garbage survives
        for path in entries:
            if os.path.exists(path):
                with open(path) as f:
                    json.load(f)  # valid again

    def test_opt_out_env_disables_everything(self, disk_env, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert get_store() is None
        build_pipeline("pycode").run(gat.make_program().func)
        assert not os.path.exists(os.path.join(disk_env, "ir"))

    def test_schema_change_invalidates(self, disk_env, monkeypatch):
        compile_ir(gat.make_program().func)
        store = get_store()
        n = store.disk_stats()["ir_entries"]
        assert n >= 1
        # a compiler-source change moves the namespace: nothing is
        # served, and recompiling writes fresh entries beside the old
        monkeypatch.setattr(cache_keys, "_SCHEMA_TAG",
                            "v1-py0.0-deadbeefdeadbeefdeadbeef")
        clear_pass_cache()
        before = _disk()["ir_hits"]
        compile_ir(gat.make_program().func)
        assert _disk()["ir_hits"] == before
        assert store.disk_stats()["ir_entries"] > n

    def test_lru_gc_respects_budget_and_recency(self, disk_env):
        store = DiskCache(os.path.join(disk_env))
        d = os.path.join(store.root, "ir", "vtest", "aa")
        os.makedirs(d)
        for i in range(10):
            with open(os.path.join(d, f"e{i}.json"), "w") as f:
                f.write("x" * 1000)
            os.utime(os.path.join(d, f"e{i}.json"), (i, i))
        evicted = store.gc(budget=4500)
        assert evicted == 6
        survivors = sorted(os.listdir(d))
        assert survivors == ["e6.json", "e7.json", "e8.json", "e9.json"]

    def test_clear_removes_all(self, disk_env):
        compile_ir(gat.make_program().func)
        store = get_store()
        assert store.disk_stats()["ir_entries"] >= 1
        store.clear()
        assert store.disk_stats()["total_bytes"] == 0


class TestCanonicalKeys:

    def test_canonical_key_ignores_absolute_sids(self):
        # two stagings of one program mint different sids but must agree
        # on the canonical hash (this is what makes cross-process disk
        # keys possible at all)
        f1 = gat.make_program().func
        f2 = gat.make_program().func
        assert preorder_sids(f1) != preorder_sids(f2)
        assert canonical_key(f1)[0] == canonical_key(f2)[0]

    def test_schema_tag_tracks_compiler_sources(self):
        tag = cache_keys.schema_tag()
        assert tag.startswith(f"v{cache_keys.CACHE_FORMAT}-py")
        assert cache_keys.source_digest() in tag


_COMPILE_SNIPPET = """
import json
import repro as ft
from repro.runtime.driver import build
from repro.workloads import gat
exe = build(gat.make_program(), backend="c")
stats = ft.compile_cache_stats()
print(json.dumps({
    "pass": stats["passes"], "disk": stats["disk"],
}))
"""


class TestCrossProcess:
    """The acceptance bar: a fresh process building an already-cached
    workload performs no lowering passes and no compiler invocation."""

    def test_cold_then_warm_process(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = json.loads(_run_py(_COMPILE_SNIPPET, cache_dir).stdout)
        assert cold["pass"]["misses"] > 0
        assert cold["disk"]["gcc_runs"] == 1
        assert cold["disk"]["ir_stores"] == 2  # compile record, native index

        warm = json.loads(_run_py(_COMPILE_SNIPPET, cache_dir).stdout)
        assert warm["pass"]["misses"] == 0, \
            "warm process must not execute any lowering pass"
        assert warm["disk"]["gcc_runs"] == 0, \
            "warm process must not invoke the C compiler"
        assert warm["disk"]["native_hits"] == 1
        assert warm["disk"]["ir_hits"] == 2 and \
            warm["disk"]["ir_misses"] == 0, "every lookup it makes hits"

    def test_two_processes_racing_one_key(self, tmp_path):
        # both processes compile the same workload into an empty cache
        # concurrently: no crashes, both correct, cache consistent
        cache_dir = str(tmp_path / "cache")
        code = _COMPILE_SNIPPET + """
import numpy as np
data = gat.make_data()
out = exe(data["indptr"], data["indices"], data["h"], data["wmat"],
          data["att_s"], data["att_d"])
np.testing.assert_allclose(out, gat.reference(data), rtol=1e-3,
                           atol=1e-4)
"""
        env = _subenv(cache_dir)
        procs = [subprocess.Popen([sys.executable, "-c", code],
                                  text=True, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env)
                 for _ in range(2)]
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
        # and a third process is fully warm
        warm = json.loads(_run_py(_COMPILE_SNIPPET, cache_dir).stdout)
        assert warm["pass"]["misses"] == 0
        assert warm["disk"]["gcc_runs"] == 0


def _entries(cache_dir):
    """{path: decoded JSON} of every IR entry under a store root."""
    out = {}
    for dirpath, _dirs, files in os.walk(os.path.join(cache_dir, "ir")):
        for name in files:
            if name.endswith(".json"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    out[path] = json.load(f)
    return out


class TestNativeDirFollowsStore:

    def test_two_roots_in_one_process(self, monkeypatch, tmp_path):
        # the native directory is derived from the store on each compile:
        # re-pointing REPRO_CACHE_DIR moves IR entries *and* kernels
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        data = gat.make_data()
        for root in ("a", "b"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / root))
            ft.clear_compile_caches()
            exe = build(gat.make_program(), backend="c")
            out = exe(data["indptr"], data["indices"], data["h"],
                      data["wmat"], data["att_s"], data["att_d"])
            assert abs(out - gat.reference(data)).max() < 1e-3
        for root in ("a", "b"):
            native = os.listdir(tmp_path / root / "native")
            assert [n for n in native
                    if n.startswith("k") and n.endswith(".so")], native
            assert _entries(str(tmp_path / root))
        ft.clear_compile_caches()


def _illegal_vectorize_func():
    """A scheduled program whose ``vectorize`` marking gcc cannot honour
    (atomic min in the simd body): ``simd_suppress`` rewrites it."""
    @ft.transform
    def f(x: ft.Tensor[("n", 16), "f32", "input"],
          lo: ft.Tensor[(16,), "f32", "inout"]):
        ft.label("Li")
        for i in range(x.shape(0)):
            ft.label("Lj")
            for j in range(16):
                lo[j] = ft.min(lo[j], x[i, j])

    s = ft.Schedule(f)
    s.parallelize("Li", "openmp")  # makes the inner min atomic
    s.vectorize("Lj")
    return s.func


class TestIdentityEntries:

    def test_noop_chain_is_a_marker_and_returns_the_input(self, disk_env):
        from repro.pipeline import lowering_pipeline

        lowered = lowering_pipeline().run(gat.make_program().func)
        before = set(_entries(disk_env))
        out = compile_ir(lowered, backend="c")
        assert struct_hash(out, include_sids=True) == \
            struct_hash(lowered, include_sids=True)
        (entry,) = [e for p, e in _entries(disk_env).items()
                    if p not in before]
        assert entry == {"fmt": 1, "same": True, "kind": "compile",
                         "n": len(preorder_sids(lowered))}
        clear_pass_cache()
        hits = _disk()["ir_hits"]
        again = compile_ir(lowered, backend="c")
        assert again is lowered, "a marker hit is the caller's own tree"
        assert _disk()["ir_hits"] == hits + 1

    def test_rewriting_chain_is_a_payload(self, disk_env):
        func = _illegal_vectorize_func()
        before = set(_entries(disk_env))
        out = compile_ir(func, backend="c")
        assert struct_hash(out, include_sids=True) != \
            struct_hash(func, include_sids=True)
        (entry,) = [e for p, e in _entries(disk_env).items()
                    if p not in before]
        assert "same" not in entry and "func" in entry
        clear_pass_cache()
        again = compile_ir(func, backend="c")
        assert again is not func
        assert struct_hash(again, include_sids=True) == \
            struct_hash(out, include_sids=True)

    def test_dtype_only_change_is_not_same(self, disk_env):
        from repro.cache.serial import encode_entry, same_tree
        from repro.ir import DataType
        from repro.ir import expr as E
        from repro.ir.visitor import Mutator
        from repro.pipeline import lowering_pipeline

        class Retype(Mutator):  # struct_hash ignores expression dtypes

            def mutate_Load(self, e):
                return E.Load(e.var, [self.mutate_expr(i)
                                      for i in e.indices],
                              DataType.FLOAT64)

        lowered = lowering_pipeline().run(gat.make_program().func)
        retyped = Retype()(lowered)
        assert struct_hash(retyped, include_sids=True) == \
            struct_hash(lowered, include_sids=True)
        assert not same_tree(retyped, lowered)
        entry = encode_entry(retyped, preorder_sids(lowered),
                             anchor=lowered)
        assert entry is None or "same" not in entry
        # and through compile_ir, for a backend whose legalization is
        # that retyping: whatever is written, it is no marker
        from repro.backend import (Backend, get_backend, register_backend,
                                   unregister_backend)

        register_backend(Backend(
            name="retyping", legalization=("retype",),
            legalization_impls={"retype": Retype()}))
        try:
            before = set(_entries(disk_env))
            compile_ir(lowered, backend="retyping")
            assert not [e for p, e in _entries(disk_env).items()
                        if p not in before and e.get("same")]
            clear_pass_cache()
            assert compile_ir(lowered, backend="retyping") is not lowered
        finally:
            unregister_backend("retyping")
        # nor do the two trees share a kernel: same canonical hash, two
        # native index entries
        from repro.cache.keys import native_index_key

        assert canonical_key(retyped)[0] == canonical_key(lowered)[0]
        assert native_index_key(retyped, "gcc", "-O2", True) != \
            native_index_key(lowered, "gcc", "-O2", True)
        for tree in (lowered, retyped):
            get_backend("c").build(tree)
        assert get_store().disk_stats()["by_kind"]["native"]["entries"] == 2

    def test_marker_with_wrong_count_is_corrupt(self, disk_env):
        from repro.pipeline import lowering_pipeline

        lowered = lowering_pipeline().run(gat.make_program().func)
        compile_ir(lowered, backend="c")
        (path,) = [p for p, e in _entries(disk_env).items()
                   if e.get("same")]
        with open(path, "w") as f:
            json.dump({"fmt": 1, "same": True, "n": 1}, f)
        clear_pass_cache()
        corrupt = _disk()["ir_corrupt"]
        misses = pass_cache_stats()["misses"]
        out = compile_ir(lowered, backend="c")
        assert _disk()["ir_corrupt"] == corrupt + 1
        assert pass_cache_stats()["misses"] > misses, "passes really ran"
        assert struct_hash(out, include_sids=True) == \
            struct_hash(lowered, include_sids=True)
        with open(path) as f:  # re-written with good content
            assert json.load(f)["n"] == len(preorder_sids(lowered))


class TestGradRecord:

    REQ = ["q", "k", "v"]
    FIELDS = ("requires", "provides", "tape_names", "used_outputs",
              "input_grads", "output_grads")

    def _grad_twice(self):
        from repro.ad import grad
        from repro.workloads import longformer

        p1 = longformer.make_program()
        g1 = grad(p1, requires=self.REQ)
        clear_pass_cache()
        stats = ft.compile_cache_stats()
        p2 = longformer.make_program()
        g2 = grad(p2, requires=self.REQ)
        return (p1, g1), (p2, g2), stats

    def test_loaded_equals_computed(self, disk_env):
        (p1, g1), (p2, g2), before = self._grad_twice()
        after = ft.compile_cache_stats()
        # the second grad() was one lookup and no analysis
        assert after["disk"]["ir_hits"] == before["disk"]["ir_hits"] + 1
        assert after["deps"]["misses"] == before["deps"]["misses"]
        assert after["passes"]["misses"] == before["passes"]["misses"]
        (record,) = [e for e in _entries(disk_env).values()
                     if "funcs" in e]
        assert sorted(record["funcs"]) == ["bwd", "fwd"]
        for f in self.FIELDS:
            assert getattr(g1, f) == getattr(g2, f), f
        assert g1.materialization.tape == g2.materialization.tape
        assert g1.materialization.recompute == \
            g2.materialization.recompute
        assert vars(g1.materialization).keys() == \
            vars(g2.materialization).keys() == {"tape", "recompute"}
        for a, b in ((g1.fwd, g2.fwd), (g1.bwd, g2.bwd)):
            assert canonical_key(a)[0] == canonical_key(b)[0]

    def test_forward_keeps_the_consumers_sids(self, disk_env):
        from repro.ir import For, collect_stmts

        (p1, g1), (p2, g2), _ = self._grad_twice()
        kept = []
        for prog, gp in ((p1, g1), (p2, g2)):
            fwd = set(preorder_sids(gp.fwd))
            kept.append([i for i, sid in
                         enumerate(preorder_sids(prog.func))
                         if sid in fwd])
        assert kept[0] == kept[1] and kept[0]
        # a loop keeps the sid it had in the staged program, in both:
        # schedules written against the staged program still apply
        for prog, gp in ((p1, g1), (p2, g2)):
            staged = {l.sid for l in collect_stmts(
                prog.func.body, lambda s: isinstance(s, For))}
            s = ft.Schedule(gp.fwd)
            sid = next(l.sid for l in s.loops() if l.sid in staged)
            s.split(sid, 2)

    def test_key_covers_the_arguments(self, disk_env):
        from repro.ad import grad
        from repro.workloads import longformer

        grad(longformer.make_program(), requires=self.REQ)
        grad(longformer.make_program(), requires=["q"])
        grad(longformer.make_program(), requires=self.REQ, tapes="all")
        assert len([e for e in _entries(disk_env).values()
                    if "funcs" in e]) == 3


_GRAD_SNIPPET = """
import json
import numpy as np
import repro as ft
from repro.ad import GradExecutable, grad
from repro.cache.serial import canonical_key
from repro.runtime.driver import build
from repro.workloads import longformer as wl

data = wl.make_data(seq_len=48, feat_len=8, w=4, seed=5)
args = (data["q"], data["k"], data["v"])
exe = build(wl.make_program(), backend="c", optimize=True)
out = exe(*args, w=data["w"])
ref = wl.reference(data)
np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

gp = grad(wl.make_program(), requires=["q", "k", "v"])
gexe = GradExecutable(gp, backend="c")
gout = gexe(*args, w=data["w"])
grads = gexe.backward()
np.testing.assert_allclose(gout, ref, rtol=1e-3, atol=1e-3)
gref = wl.grad_reference(data, np.ones_like(ref))
for g, name in zip(grads, ("q", "k", "v")):
    np.testing.assert_allclose(g, gref[name], rtol=2e-2, atol=2e-2)

from repro.runtime.metrics import pipeline_stats
stats = ft.compile_cache_stats()
print(json.dumps({
    "passes": stats["passes"], "deps": stats["deps"],
    "omega": stats["omega"], "disk": stats["disk"],
    "executed": sum(r["runs"] - r["cache_hits"]
                    for r in pipeline_stats().values()),
    "hashes": [canonical_key(f)[0] for f in (
        gp.fwd, gp.bwd, gexe.fwd_exe.func, gexe.bwd_exe.func)],
}))
"""


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    """A store one cold process filled with longformer forward
    (optimized) and its GradExecutable on ``c``, plus that process's
    report. Tests work on copies."""
    root = str(tmp_path_factory.mktemp("populated") / "cache")
    cold = json.loads(_run_py(_GRAD_SNIPPET, root).stdout)
    assert cold["passes"]["misses"] > 0 and cold["disk"]["gcc_runs"] == 3
    return root, cold


def _copy_store(populated_store, tmp_path):
    import shutil

    root, cold = populated_store
    copy = str(tmp_path / "cache")
    shutil.copytree(root, copy)
    return copy, cold


class TestWarmCompileReadsOnly:
    """The warm-path rule: each distinct tree is decoded at most once and
    nothing is transformed or analysed."""

    def test_warm_process_invariant(self, populated_store, tmp_path):
        store, cold = _copy_store(populated_store, tmp_path)
        warm = json.loads(_run_py(_GRAD_SNIPPET, store).stdout)
        assert warm["passes"]["misses"] == 0 and warm["executed"] == 0
        assert warm["deps"]["misses"] == 0
        assert warm["omega"]["full_solves"] == 0
        assert warm["disk"]["gcc_runs"] == 0
        assert warm["disk"]["native_hits"] == 3
        assert warm["disk"]["ir_stores"] == 0
        # three compile records (the scheduled tree, two identity
        # markers), three native index entries, the grad record — and
        # every lookup the process makes hits
        assert warm["disk"]["ir_hits"] == 7
        assert warm["disk"]["ir_misses"] == 0
        assert warm["hashes"] == cold["hashes"]

    def test_cold_store_holds_one_record_and_two_markers(
            self, populated_store):
        root, cold = populated_store
        entries = list(_entries(root).values())
        assert len([e for e in entries if "funcs" in e]) == 1
        assert len([e for e in entries if e.get("same")]) == 2
        assert cold["disk"]["ir_stores"] == len(entries)
        # one product record per entry point and nothing else: no
        # per-pass or per-segment intermediate outlives the process
        by_kind = DiskCache(root).disk_stats()["by_kind"]
        assert {k: v["entries"] for k, v in by_kind.items()} == \
            {"compile": 3, "native": 3, "grad": 1}

    def test_truncated_record_is_recomputed(self, populated_store,
                                            tmp_path):
        store, cold = _copy_store(populated_store, tmp_path)
        (path,) = [p for p, e in _entries(store).items() if "funcs" in e]
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text[:len(text) // 2])
        rep = json.loads(_run_py(_GRAD_SNIPPET, store).stdout)
        assert rep["disk"]["ir_corrupt"] == 1
        assert rep["deps"]["misses"] > 0, "grad() really ran"
        assert rep["disk"]["gcc_runs"] == 0  # same source, same kernels
        assert rep["hashes"] == cold["hashes"]
        assert "funcs" in _entries(store)[path]  # re-written, whole

    def test_mismatched_marker_is_rerun(self, populated_store, tmp_path):
        store, cold = _copy_store(populated_store, tmp_path)
        markers = [p for p, e in _entries(store).items() if e.get("same")]
        good = _entries(store)[markers[0]]
        with open(markers[0], "w") as f:
            json.dump(dict(good, n=good["n"] + 1), f)
        rep = json.loads(_run_py(_GRAD_SNIPPET, store).stdout)
        assert rep["disk"]["ir_corrupt"] == 1
        assert rep["passes"]["misses"] > 0, "the build pipeline really ran"
        assert rep["disk"]["gcc_runs"] == 0
        assert rep["hashes"] == cold["hashes"]
        assert _entries(store)[markers[0]] == good

    def test_deleted_kernel_is_rebuilt(self, populated_store, tmp_path):
        store, cold = _copy_store(populated_store, tmp_path)
        native = os.path.join(store, "native")
        victim = sorted(n for n in os.listdir(native)
                        if n.endswith(".so"))[0]
        os.unlink(os.path.join(native, victim))
        rep = json.loads(_run_py(_GRAD_SNIPPET, store).stdout)
        # the index entry that names the evicted kernel is no answer:
        # generated again, built once, indexed again
        assert rep["disk"]["gcc_runs"] == 1
        assert rep["disk"]["native_hits"] == 2
        assert rep["disk"]["ir_misses"] == 1
        assert rep["disk"]["ir_stores"] == 1
        assert rep["disk"]["ir_corrupt"] == 0
        assert rep["passes"]["misses"] == 0
        assert os.path.exists(os.path.join(native, victim))
        assert rep["hashes"] == cold["hashes"]
        # and the next process is warm again
        again = json.loads(_run_py(_GRAD_SNIPPET, store).stdout)
        assert again["disk"]["gcc_runs"] == 0
        assert again["disk"]["ir_misses"] == 0

    @pytest.mark.parametrize("knob", ["REPRO_VERIFY_EACH_PASS",
                                      "REPRO_DUMP_IR"])
    def test_instrumented_runs_ignore_record_and_markers(
            self, populated_store, tmp_path, knob):
        store, cold = _copy_store(populated_store, tmp_path)
        value = "1" if knob == "REPRO_VERIFY_EACH_PASS" \
            else str(tmp_path / "dump")
        rep = json.loads(_run_py(_GRAD_SNIPPET, store,
                                 **{knob: value}).stdout)
        assert rep["disk"]["ir_hits"] == 0
        assert rep["disk"]["ir_stores"] == 0
        assert rep["executed"] >= cold["executed"] > 0, "every pass ran"
        assert rep["deps"]["misses"] > 0, "grad() really ran"
        assert rep["disk"]["gcc_runs"] == 0


# one snippet, two orders: build() as a user calls it, or the three
# steps the benchmark's traced child takes one by one
_WARM_PATH_SNIPPET = """
import json, sys
from repro.codegen import ccode

generated = []
_generate = ccode.CCodegen.generate
ccode.CCodegen.generate = lambda self: (generated.append(1),
                                        _generate(self))[1]

import numpy as np
import repro as ft
from repro.ad import GradExecutable, grad
from repro.workloads import longformer as wl

data = wl.make_data(seq_len=48, feat_len=8, w=4, seed=5)
args = (data["q"], data["k"], data["v"])
if TRACED:
    from repro.backend import get_backend
    from repro.pipeline import compile_ir
    from repro.runtime.driver import Executable
    func = compile_ir(wl.make_program().func, backend="c", optimize=True)
    exe = Executable(func, get_backend("c").build(func), "c")
else:
    from repro.runtime.driver import build
    exe = build(wl.make_program(), backend="c", optimize=True)
out = exe(*args, w=data["w"])
gexe = GradExecutable(grad(wl.make_program(), requires=["q", "k", "v"]),
                      backend="c")
gexe(*args, w=data["w"])
gexe.backward()
modules = sorted(m for m in sys.modules if m.startswith("repro")
                 and not m.startswith("repro.workloads"))
np.testing.assert_allclose(out, wl.reference(data), rtol=1e-3, atol=1e-3)
stats = ft.compile_cache_stats()
print(json.dumps({"modules": modules, "generated": len(generated),
                  "passes": stats["passes"], "deps": stats["deps"],
                  "disk": stats["disk"], "source": len(exe.source)}))
"""

#: what a compile answered by the store must not even load
_COLD_ONLY = ("repro.autosched.rules", "repro.autosched.search",
              "repro.schedule.schedule", "repro.analysis",
              "repro.polyhedral", "repro.passes", "repro.codegen.pycode",
              "repro.runtime.interpreter")


class TestOneRecordPerEntryPoint:
    """Every public compile entry point owns one product record, looked
    up before anything that could compute it is imported."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_warm_process_loads_no_compiler(self, tmp_path, traced):
        cache_dir = str(tmp_path / "cache")
        code = f"TRACED = {traced}\n" + _WARM_PATH_SNIPPET
        cold = json.loads(_run_py(code, cache_dir).stdout)
        assert cold["generated"] == 3 and cold["disk"]["gcc_runs"] == 3
        assert any(m.startswith("repro.passes") for m in cold["modules"])
        warm = json.loads(_run_py(code, cache_dir).stdout)
        loaded = [m for m in warm["modules"]
                  if m.startswith(_COLD_ONLY)]
        assert not loaded, loaded
        assert len(warm["modules"]) <= 45
        assert warm["generated"] == 0, "CCodegen.generate ran"
        assert warm["passes"]["misses"] == 0 == warm["deps"]["misses"]
        assert warm["disk"]["gcc_runs"] == 0
        assert warm["disk"]["ir_stores"] == 0
        assert warm["disk"]["ir_misses"] == 0 and \
            warm["disk"]["ir_hits"] == 7
        # the source was not generated, yet it is there to read
        assert warm["source"] == cold["source"] > 0

    def test_stats_cli_names_the_kinds(self, populated_store):
        root, _cold = populated_store
        out = subprocess.run(
            [sys.executable, "-m", "repro.cache", "stats", "--json"],
            text=True, capture_output=True, check=True,
            env=_subenv(root)).stdout
        by_kind = json.loads(out)["disk"]["by_kind"]
        assert sorted(by_kind) == ["compile", "grad", "native"]
        assert all(row["entries"] and row["bytes"]
                   for row in by_kind.values())
        text = subprocess.run(
            [sys.executable, "-m", "repro.cache", "stats"],
            text=True, capture_output=True, check=True,
            env=_subenv(root)).stdout
        assert "compile" in text and "native" in text and "grad" in text

    @pytest.mark.parametrize("knob", ["REPRO_VERIFY_EACH_PASS",
                                      "REPRO_DUMP_IR", "REPRO_NO_MEMO",
                                      "REPRO_NO_DISK_CACHE"])
    def test_switches_gate_compile_and_native_records(
            self, disk_env, monkeypatch, tmp_path, knob):
        from repro.backend import get_backend

        func = compile_ir(gat.make_program().func, backend="c")
        get_backend("c").build(func)
        ft.clear_compile_caches()
        monkeypatch.setenv(knob, str(tmp_path / "dump")
                           if knob == "REPRO_DUMP_IR" else "1")
        before, ran = _disk(), _passes_executed()
        func = compile_ir(gat.make_program().func, backend="c")
        get_backend("c").build(func)
        after = _disk()
        for key in ("ir_hits", "ir_misses", "ir_stores"):
            assert after[key] == before[key], key
        assert _passes_executed() > ran
        # REPRO_NO_DISK_CACHE=1 builds in a private directory; the others
        # find the kernel by the digest of the source they generated
        if knob != "REPRO_NO_DISK_CACHE":
            assert after["gcc_runs"] == before["gcc_runs"]


_TRACED_GAT_SNIPPET = """
import json
import repro as ft
from repro.backend import get_backend
from repro.pipeline import compile_ir
from repro.workloads import gat
func = compile_ir(gat.make_program().func, backend="c", optimize=True)
get_backend("c").build(func)
print(json.dumps(ft.compile_cache_stats()["disk"]))
"""


class TestProductRecordFaults:
    """Slower correct answer, never a wrong or lost one."""

    def _built(self):
        from repro.backend import get_backend

        func = compile_ir(gat.make_program().func, backend="c",
                          optimize=True)
        return Executable(func, get_backend("c").build(func), "c")

    @staticmethod
    def _check(exe):
        data = gat.make_data()
        out = exe(data["indptr"], data["indices"], data["h"], data["wmat"],
                  data["att_s"], data["att_d"])
        assert abs(out - gat.reference(data)).max() < 1e-3

    def test_missing_c_twin_regenerates_the_same_text(self, disk_env):
        generated = self._built().source
        ft.clear_compile_caches()
        native = os.path.join(disk_env, "native")
        (twin,) = [n for n in os.listdir(native) if n.endswith(".c")]
        with open(os.path.join(native, twin)) as f:
            assert f.read() == generated
        warm = self._built()
        assert callable(warm._run.__ft_source__), "no C was generated"
        os.unlink(os.path.join(native, twin))
        assert warm.source == generated
        self._check(warm)

    def test_truncated_compile_record_is_recomputed(self, disk_env):
        first = self._built()
        (path,) = [p for p, e in _entries(disk_env).items()
                   if e["kind"] == "compile"]
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text[:len(text) // 2])
        ft.clear_compile_caches()
        before, misses = _disk(), pass_cache_stats()["misses"]
        again = self._built()
        assert _disk()["ir_corrupt"] == before["ir_corrupt"] + 1
        assert pass_cache_stats()["misses"] > misses, "passes really ran"
        assert _disk()["gcc_runs"] == before["gcc_runs"]
        assert canonical_key(again.func)[0] == canonical_key(first.func)[0]
        assert _entries(disk_env)[path]["kind"] == "compile"  # whole again
        self._check(again)

    def test_gc_between_the_index_hit_and_the_dlopen(self, disk_env,
                                                     monkeypatch):
        from repro.codegen import ccode

        # populated by another process: this one has not dlopen-ed the
        # kernel yet (a loaded library survives the loss of its file)
        _run_py(_TRACED_GAT_SNIPPET, disk_env)
        load = ccode._load_kernel

        def evicted_then_load(so_path):
            # the index entry has been read; python -m repro.cache gc
            # runs before the dlopen
            assert os.path.exists(so_path)
            assert get_store().gc(budget=0) > 0
            monkeypatch.setattr(ccode, "_load_kernel", load)
            return load(so_path)

        monkeypatch.setattr(ccode, "_load_kernel", evicted_then_load)
        before = _disk()["gcc_runs"]
        exe = self._built()
        assert _disk()["gcc_runs"] == before + 1
        self._check(exe)
        # rebuilt and indexed again: the next process loads it (the
        # compile record went with that gc and was already served here)
        warm = json.loads(_run_py(_TRACED_GAT_SNIPPET, disk_env).stdout)
        assert warm["gcc_runs"] == 0 and warm["native_hits"] == 1
