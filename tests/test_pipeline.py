"""Unit tests for the pass-manager compilation pipeline
(``repro.pipeline``): pass ordering, the lowering memo, instrumentation
(REPRO_DUMP_IR snapshots, REPRO_VERIFY_EACH_PASS attribution), backend
legalization, and the differential guarantee that the pipeline produces
the same IR as the pre-pipeline ad-hoc lowering sequence.
"""

import os

import pytest

import repro as ft
from repro.errors import VerificationError
from repro.ir import For, Func, collect_stmts, struct_hash
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.visitor import Mutator
from repro.backend.builtin import suppress_illegal_simd
from repro.pipeline import (Pass, Pipeline, STANDARD_LOWERING,
                            build_pipeline, clear_pass_cache, compile_ir,
                            declared_legalization, legalize,
                            lowering_passes, lowering_pipeline, named_pass,
                            pass_cache_stats)
from repro.runtime.driver import build
from repro.workloads import ALL


def make_square_program():
    @ft.transform
    def f(b: ft.Tensor[("n", "m"), "f32", "input"],
          a: ft.Tensor[("n", "m"), "f32", "output"]):
        for i in range(b.shape(0)):
            for j in range(b.shape(1)):
                a[i, j] = b[i, j] * b[i, j] + 1.0

    return f


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


class TestPassOrdering:

    def test_standard_lowering_order(self):
        assert STANDARD_LOWERING == ("flatten", "make_reduction",
                                     "simplify", "cleanup")
        assert lowering_pipeline().pass_names() == list(STANDARD_LOWERING)

    def test_build_pipeline_appends_legalization_then_prep(self):
        # nothing declared for pycode: the build pipeline is exactly the
        # standard lowering (keeps the tuner's per-candidate loop lean)
        assert build_pipeline("pycode").pass_names() == \
            list(STANDARD_LOWERING)
        assert build_pipeline("c").pass_names() == \
            list(STANDARD_LOWERING) + ["simd_suppress", "codegen_prep"]

    def test_run_applies_passes_in_sequence(self):
        trace = []

        def rec(name):
            def fn(func):
                trace.append(name)
                return func

            return fn

        pipe = Pipeline([Pass(n, rec(n)) for n in ("a", "b", "c")],
                        name="t")
        pipe.run(make_program().func)
        assert trace == ["a", "b", "c"]

    def test_duplicate_pass_names_rejected(self):
        p = named_pass("flatten")
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline([p, named_pass("flatten")])

    def test_unknown_pass_name_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            named_pass("no_such_pass")


class TestPassCache:
    """The one pass-manager memo: a pipeline that begins with the
    standard lowering serves it from the lowering memo; every other pass
    runs, and counts as a miss."""

    def test_second_run_hits_every_pass(self):
        clear_pass_cache()
        func = make_program().func
        pipe = lowering_pipeline()
        before = pass_cache_stats()
        out1 = pipe.run(func)
        mid = pass_cache_stats()
        assert mid["misses"] - before["misses"] == len(STANDARD_LOWERING)
        assert mid["hits"] == before["hits"]
        out2 = pipe.run(func)
        after = pass_cache_stats()
        assert after["hits"] - mid["hits"] == len(STANDARD_LOWERING) == 4
        assert after["misses"] == mid["misses"]
        # a hit returns the identical memoized object
        assert out1 is out2

    def test_cache_shared_across_pipeline_names(self):
        clear_pass_cache()
        func = make_program().func
        out1 = lowering_pipeline(name="schedule").run(func)
        before = pass_cache_stats()
        out2 = lowering_pipeline(name="ad").run(func)
        after = pass_cache_stats()
        assert out1 is out2
        assert after["misses"] == before["misses"]
        # a build pipeline is served the lowering, then runs the rest
        build_pipeline("c").run(func)
        assert pass_cache_stats()["hits"] - after["hits"] == 4
        assert pass_cache_stats()["misses"] - after["misses"] == 2

    def test_env_hatches_bypass_cache(self, memos_off):
        clear_pass_cache()
        func = make_program().func
        memos_off()
        pipe = lowering_pipeline()
        hits = pass_cache_stats()["hits"]
        assert pipe.run(func) is not pipe.run(func)
        assert pass_cache_stats()["hits"] == hits

    def test_rule_passes_always_run(self):
        clear_pass_cache()
        func = make_program().func
        lowered = lowering_pipeline().run(func)
        runs = []
        probe = Pass("auto_probe", lambda f: (runs.append(1), f)[1])
        pipe = Pipeline([probe] + lowering_passes(), name="t")
        before = pass_cache_stats()
        pipe.run(lowered)
        pipe.run(lowered)
        after = pass_cache_stats()
        # a pipeline that does not begin with the lowering consults no
        # memo: every pass, the rule and the lowering, runs and counts
        assert len(runs) == 2
        assert after["misses"] - before["misses"] == 2 * (1 + 4)
        assert after["hits"] == before["hits"]

    def test_lower_shim_uses_pass_cache(self):
        from repro.passes import lower

        clear_pass_cache()
        f = make_program().func
        assert lower(f) is lower(f)

    def test_pipeline_stats_exposed(self):
        # per-pass wall-clock under each pass's name, cold and served
        clear_pass_cache()
        func = make_program().func
        for served in (False, True):
            times = {}
            lowering_pipeline().run(func, times=times)
            assert list(times) == list(STANDARD_LOWERING), served
            assert all(t >= 0.0 for t in times.values())

    def test_compile_cache_stats_reports_passes(self):
        stats = ft.compile_cache_stats()
        assert set(stats["passes"]) == {"hits", "misses", "disk_hits"}

    def test_grad_lowering_serves_the_c_build(self):
        # grad() lowers the forward program it generates; building that
        # program for C is served the same lowering under another
        # pipeline name ("ad", then "build-c")
        from repro.ad import grad

        ft.clear_compile_caches()
        gp = grad(make_square_program())
        before = pass_cache_stats()
        build(gp.fwd, backend="c")
        build(gp.bwd, backend="c")
        after = pass_cache_stats()
        assert after["hits"] - before["hits"] == 4
        # both C builds run legalization and prep; bwd is lowered too
        assert after["misses"] - before["misses"] == 2 + 4 + 2

    def test_cold_optimized_build_counts_every_pass(self):
        ft.clear_compile_caches()
        before = pass_cache_stats()
        build(make_program(), backend="c", optimize=True)
        after = pass_cache_stats()
        # Schedule's lowering, six rules, then lowering, legalization
        # and prep
        rules = 6
        assert after["misses"] - before["misses"] == \
            4 + rules + len(build_pipeline("c").passes)
        assert after["hits"] == before["hits"]


class TestDumpIR:

    def test_one_snapshot_per_pass_plus_diffs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DUMP_IR", str(tmp_path))
        clear_pass_cache()
        pipe = build_pipeline("pycode")
        pipe.run(make_program().func)
        (run_dir,) = list(tmp_path.iterdir())
        assert "build-pycode" in run_dir.name
        irs = sorted(p.name for p in run_dir.glob("*.ir"))
        # the staged input plus one snapshot per pass
        assert len(irs) == 1 + len(pipe.passes)
        assert irs[0] == "00-input.ir"
        for i, name in enumerate(pipe.pass_names(), start=1):
            assert f"{i:02d}-{name}.ir" in irs
            assert (run_dir / f"{i:02d}-{name}.diff").exists()

    def test_cached_runs_still_snapshot(self, tmp_path, monkeypatch):
        clear_pass_cache()
        func = make_program().func
        pipe = lowering_pipeline()
        pipe.run(func)  # warm the cache without dumping
        monkeypatch.setenv("REPRO_DUMP_IR", str(tmp_path))
        pipe.run(func)
        (run_dir,) = list(tmp_path.iterdir())
        assert len(list(run_dir.glob("*.ir"))) == 1 + len(pipe.passes)


class _BreakStores(Mutator):
    """A deliberately-broken pass: shifts every Store index far negative,
    which the bounds verifier proves out of bounds (FT101)."""

    def mutate_Store(self, s):
        out = S.Store(s.var,
                      [E.makeSub(self.mutate_expr(i), E.IntConst(10 ** 6))
                       for i in s.indices],
                      self.mutate_expr(s.expr))
        out.sid, out.label = s.sid, s.label
        return out


class TestVerifyEachPass:

    def test_broken_pass_is_pinpointed(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        clear_pass_cache()
        broken = Pass("break_stores", _BreakStores())
        pipe = Pipeline(lowering_passes() + [broken], name="sabotaged")
        with pytest.raises(VerificationError) as exc:
            pipe.run(make_program().func)
        msg = str(exc.value)
        assert "'break_stores'" in msg
        assert "'sabotaged'" in msg
        assert "FT101" in msg

    def test_clean_pipeline_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        clear_pass_cache()
        out = build_pipeline("pycode").run(make_program().func)
        assert isinstance(out, Func)

    def test_preexisting_errors_not_attributed(self, monkeypatch):
        # an error already present in the input must not be blamed on
        # the first pass that runs
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        clear_pass_cache()
        bad = _BreakStores()(make_program().func)
        out = lowering_pipeline().run(bad)
        assert isinstance(out, Func)

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_workloads_survive_per_pass_verification(self, name,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        clear_pass_cache()
        func = ALL[name].make_program().func
        out = build_pipeline("pycode").run(func)
        assert isinstance(out, Func)


class TestDifferential:
    """The pipeline must produce bit-identical IR (same sid-inclusive
    struct_hash) to the pre-pipeline ad-hoc lowering sequence."""

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_pipeline_matches_manual_lowering(self, name):
        from repro.passes.cleanup import remove_dead_writes
        from repro.passes.flatten import flatten_stmt_seq
        from repro.passes.make_reduction import make_reduction
        from repro.passes.simplify_pass import simplify

        func = ALL[name].make_program().func
        manual = remove_dead_writes(
            simplify(make_reduction(flatten_stmt_seq(func))))
        clear_pass_cache()
        piped = lowering_pipeline().run(func)
        assert struct_hash(piped, include_sids=True) == \
            struct_hash(manual, include_sids=True)

    def test_cli_and_build_agree(self):
        # the verify CLI's --optimize path and build(optimize=True) must
        # see the same IR up to sid numbering (canonical identity)
        from repro.cache.serial import canonical_key

        func = ALL["gat"].make_program().func
        via_cli = compile_ir(func, optimize=True)
        exe = build(func, backend="pycode", optimize=True)
        assert canonical_key(via_cli)[0] == canonical_key(exe.func)[0]

    def test_cli_and_build_agree_with_the_store_on(self, monkeypatch,
                                                   tmp_path):
        # a repeat compile is a "compile" record hit whose decode mints
        # fresh sids, so what holds is canonical identity
        from repro.cache.serial import canonical_key
        from repro.runtime import clear_build_cache

        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_pass_cache()
        clear_build_cache()
        func = ALL["gat"].make_program().func
        hits = ft.compile_cache_stats()["disk"]["ir_hits"]
        first = compile_ir(func, optimize=True)
        second = compile_ir(func, optimize=True)
        exe = build(func, backend="pycode", optimize=True)
        assert ft.compile_cache_stats()["disk"]["ir_hits"] >= hits + 2
        assert len({canonical_key(f)[0]
                    for f in (first, second, exe.func)}) == 1
        clear_build_cache()


class TestLegalization:

    def test_backend_declarations(self):
        assert declared_legalization("c") == ("simd_suppress",)
        assert declared_legalization("cuda") == ("simd_suppress",)
        assert declared_legalization("pycode") == ()

    @staticmethod
    def _vectorized_with_atomic_minmax():
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

    def test_suppress_illegal_simd(self):
        func = self._vectorized_with_atomic_minmax()
        marked = [l for l in collect_stmts(
            func.body, lambda s: isinstance(s, For))
            if l.property.vectorize]
        assert marked, "schedule should have produced a vectorized loop"
        out = suppress_illegal_simd(func)
        assert not [l for l in collect_stmts(
            out.body, lambda s: isinstance(s, For)) if l.property.vectorize]

    def test_legalize_is_idempotent(self):
        func = self._vectorized_with_atomic_minmax()
        once = legalize(func, "c")
        twice = legalize(once, "c")
        assert struct_hash(once, include_sids=True) == \
            struct_hash(twice, include_sids=True)
        # nothing declared for the interpreter: unchanged input
        assert legalize(func, "pycode") is func

    def test_legal_vectorize_survives(self):
        func = make_program().func
        s = ft.Schedule(func)
        (inner,) = [l for l in s.loops() if l.label == "Lj"]
        s.vectorize(inner.sid)
        out = legalize(s.func, "c")
        assert [l for l in collect_stmts(
            out.body, lambda x: isinstance(x, For)) if l.property.vectorize]


class TestBuildIntegration:

    def test_compile_times_has_per_pass_entries(self):
        ft.clear_compile_caches()
        exe = build(make_program().func, backend="pycode")
        for name in STANDARD_LOWERING:
            assert name in exe.compile_times
        assert "codegen" in exe.compile_times

    def test_optimized_build_times_rule_passes(self):
        ft.clear_compile_caches()
        exe = build(make_program().func, backend="pycode", optimize=True)
        for name in ("auto_fuse", "auto_vectorize", "auto_parallelize",
                     "auto_mem_type", "auto_use_lib", "auto_unroll"):
            assert name in exe.compile_times
