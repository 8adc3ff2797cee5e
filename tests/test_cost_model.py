"""The static cost model (repro.analysis.cost) and its consumers.

The load-bearing property is *oracle agreement*: the static walker and
the interpreter's ``OpCounts`` dynamic counter count the same
events by construction (shared ``op_category``), so on an *exact*
estimate the two must agree to the operation, on a *sound* one the
static side must upper-bound the dynamic one, and only the
assumed-trip fallback (data-dependent loops, e.g. GAT's CSR walks) may
break the bound. The tuner-pruning tests then show dominance pruning
never changes which candidate the search returns under deterministic
(fake) measurement.
"""

import os

import numpy as np
import pytest

import repro as ft
from repro.analysis import BoundsCtx, const_bounds, tightest_bounds
from repro.analysis.cost import (COUNT_FIELDS, CostEstimate, Counts,
                                 analyze_cost, count, infer_scalar_env,
                                 perf_lint)
from repro.autosched import CPU, auto_schedule
from repro.autosched.search import StructuredTuner
from repro.autosched.search.screen import CandidateScreen
from repro.autosched.target import Target, default_target
from repro.backend import backend_caps
from repro.ir import (DataType, IntConst, Load, Var, makeIfExpr, makeMax,
                      makeMin)
from repro.ir.hashing import struct_hash
from repro.runtime import metrics
from repro.runtime.driver import Executable, build
from repro.runtime.interpreter import Interpreter, OpCounts
from repro.workloads import ALL

from .test_dep_rows import tune_search_sweep

#: interpreter-friendly sizes (the oracle executes every scalar op)
ORACLE_SIZES = {
    "subdivnet": dict(n_faces=16, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=24, feat_len=4, w=2),
    "softras": dict(n_faces=4, image_size=6),
    "gat": dict(n_nodes=16, avg_degree=3, feats=4, out_feats=4),
}

#: schedule rules applied in the "optimized" oracle runs (all of them
#: except use_lib, whose kernels the reference interpreter also treats
#: as one uncounted invocation — excluded to keep the comparison about
#: loop code)
ORACLE_PASSES = ["fuse", "vectorize", "parallelize", "mem_type",
                 "unroll"]


def _candidate_bounds(e, ctx):
    """``const_bounds`` by way of its bound candidates alone."""
    lo, up = tightest_bounds(e, ctx, allowed_vars=())
    return (lo.val if isinstance(lo, IntConst) else None,
            up.val if isinstance(up, IntConst) else None)


@pytest.fixture(autouse=True)
def const_bounds_calls(monkeypatch):
    """Every ``const_bounds`` call the cost model makes in this file must
    answer as the candidate path does. Yields the
    calls' ``(expr, ctx)``; the check runs after the test, because a
    search would count an exception raised in its cost model as an
    invalid candidate."""
    calls, wrong = [], []
    real = count.const_bounds

    def checked(e, ctx):
        got = real(e, ctx)
        if got != _candidate_bounds(e, ctx):
            wrong.append((e, got))
        calls.append((e, ctx))
        return got

    monkeypatch.setattr(count, "const_bounds", checked)
    yield calls
    assert not wrong


def test_const_bounds_on_a_tune_search_sweep(const_bounds_calls,
                                             monkeypatch):
    """Every call of a sweep, compound expressions included, answers as
    the candidate path does (checked by the autouse fixture)."""
    ft.clear_compile_caches()
    tune_search_sweep(monkeypatch)
    compound = [e for e, _ctx in const_bounds_calls
                if not isinstance(e, (IntConst, Var))]
    assert len(const_bounds_calls) > 1000
    assert len(compound) > 100


_I, _N = Var("i"), Var("n")  # i in [2, 10) below; n has no range


@pytest.mark.parametrize("e, want", [
    (makeMin(_I, 7), (2, 7)),
    (makeMin(_N, _I), (None, 9)),
    (makeMax(_I, 4), (4, 9)),
    (makeMax(_N, _I), (2, None)),
    (makeIfExpr(_I < 5, _I, 20 - _I), (2, 18)),
    ((_I - 9) % 4, (0, 3)),
    ((_I - 9) // 4, (-2, 0)),
    (_I * -3 + 1, (-26, -5)),
    (makeMin(_I, 6) * -2, (-12, -4)),
    (Var("j"), (-3, 8)),  # j in [-3, i)
    (Load("t", [_I], DataType.INT32) + 1, (None, None)),
    (_N + _I, (None, None)),
], ids=["min", "min_unranged", "max", "max_unranged", "if", "mod",
         "floordiv", "mul_negative", "mul_negative_min", "var_symbolic_end",
         "load", "unranged"])
def test_const_bounds_cases(e, want):
    ctx = BoundsCtx().with_loop("i", 2, 10).with_loop("j", -3, _I)
    assert const_bounds(e, ctx) == want == _candidate_bounds(e, ctx)


def _workload_args(name, data, func):
    """(arrays, scalars) for the driver, in the program's own order."""
    from repro.ir import AccessType, defined_tensors

    defs = defined_tensors(func.body)
    arrays = tuple(data[p] for p in func.params
                   if defs[p].atype in (AccessType.INPUT,
                                        AccessType.INOUT))
    scalars = {p: data[p] for p in func.scalar_params if p in data}
    return arrays, scalars


def _check_agreement(name, func, monkeypatch):
    data = ALL[name].make_data(**ORACLE_SIZES[name])
    arrays, scalars = _workload_args(name, data, func)
    lowered = build(func, backend="interp").func
    ops = OpCounts()
    interp = Interpreter(op_counts=ops)
    exe = Executable(lowered, lambda env: interp.run(lowered, env), "interp")
    # estimate exactly the lowered tree the interpreter executes
    # (build() runs standard lowering before handing off)
    env = infer_scalar_env(exe.func, arrays, data)
    est = analyze_cost(exe.func, backend="pycode", scalar_env=env)
    exe(*arrays, **scalars)
    dyn = ops.as_dict()
    stat = {f: getattr(est.counts, f) for f in COUNT_FIELDS}
    assert sum(dyn.values()) > 0, "oracle counted nothing"
    if est.exact:
        assert stat == dyn, f"{name}: exact estimate disagrees"
    elif est.sound:
        for f in COUNT_FIELDS:
            assert stat[f] >= dyn[f], \
                f"{name}: sound estimate under-counts {f}"
    else:
        # assumed-trip fallback (data-dependent loops): no bound, but
        # the estimate must stay within an order of magnitude
        for f in COUNT_FIELDS:
            if dyn[f]:
                assert stat[f] > 0, f"{name}: missed all {f}"
                assert stat[f] / dyn[f] < 16, \
                    f"{name}: {f} overcounted wildly"
    return est


class TestOracleAgreement:

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_raw_workload(self, name, monkeypatch):
        est = _check_agreement(name, ALL[name].make_program().func,
                               monkeypatch)
        # the CSR loops make gat (and only gat) unsound; longformer's
        # asymmetric window-boundary If makes it sound-but-inexact; the
        # other two have shape-var bounds the scalar env makes exact
        if name == "gat":
            assert not est.sound
        elif name == "longformer":
            assert est.sound and not est.exact
        else:
            assert est.exact

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_scheduled_workload(self, name, monkeypatch):
        func = auto_schedule(ALL[name].make_program(), target=CPU,
                             passes=ORACLE_PASSES)
        _check_agreement(name, func, monkeypatch)

    def test_interpreter_counts_off_by_default(self, rng, monkeypatch):
        assert Interpreter().ops is None


@ft.transform
def _axpy(x: ft.Tensor[(32, 32), "f32", "input"]):
    y = ft.empty((32, 32), "f32")
    for i in range(32):
        for j in range(32):
            y[i, j] = x[i, j] * 2.0 + 1.0
    return y


class TestEstimate:

    def test_counts_and_report(self):
        est = analyze_cost(_axpy)
        assert est.exact and est.sound
        n = 32 * 32
        assert est.counts.flops == 2 * n
        assert est.counts.loads == n
        assert est.counts.stores == n
        assert est.counts.iters == 32 + n
        d = est.as_dict()
        assert d["counts"]["flops"] == 2 * n
        assert [l["iter_var"] for l in d["loops"]] == ["i", "j"]
        assert d["traffic"]["x"]["stride_class"] == "unit"
        assert est.parallelism == pytest.approx(1.0)

    def test_parallel_lowers_seq_only(self):
        s = ft.Schedule(_axpy.func)
        loop = s.loops()[0]
        s.parallelize(loop.sid, "openmp")
        base = analyze_cost(_axpy.func, backend="c")
        par = analyze_cost(s.func, backend="c")
        for f in COUNT_FIELDS:
            assert getattr(par.counts, f) == getattr(base.counts, f)
        assert par.counts.seq < base.counts.seq
        assert par.parallelism > base.parallelism
        # dominance: par is no worse everywhere, strictly better on seq
        assert par.dominates(base)
        assert not base.dominates_or_equal(par)
        assert base.dominates_or_equal(base)
        assert not base.dominates(base)

    def test_backend_capabilities(self):
        # pycode ignores openmp annotations entirely
        s = ft.Schedule(_axpy.func)
        s.parallelize(s.loops()[0].sid, "openmp")
        assert analyze_cost(s.func, backend="pycode").counts.seq == \
            analyze_cost(_axpy.func, backend="pycode").counts.seq
        caps = backend_caps("c", default_target("c"))
        assert caps.capacity("openmp") > 1
        assert caps.stride_matters
        gpu = backend_caps("gpusim", default_target("gpusim"))
        assert gpu.capacity("cuda.blockIdx.x") is None  # unbounded

    def test_memo_and_metrics(self):
        # nothing is memoized: every call is one counted analysis
        metrics.reset_cost_stats()
        analyze_cost(_axpy.func)
        analyze_cost(_axpy.func)
        st = metrics.cost_stats()
        assert st["analyses"] == 2 and st["time_s"] > 0
        assert set(st) == {"analyses", "time_s"}

    def test_scalar_env_replaces_assumed_trips(self):
        @ft.transform
        def f(x: ft.Tensor[("n",), "f32", "input"]):
            y = ft.empty((x.shape(0),), "f32")
            for i in range(x.shape(0)):
                y[i] = x[i] + 1.0
            return y

        sym = analyze_cost(f.func)
        assert not sym.sound and sym.counts.flops == count.ASSUMED_TRIP == 8
        conc = analyze_cost(f.func, scalar_env={"n": 100})
        assert conc.exact and conc.counts.flops == 100

    def test_infer_scalar_env(self):
        @ft.transform
        def f(a: ft.Tensor[("n", "m"), "f32", "input"],
              b: ft.Tensor[("m",), "f32", "input"],
              k: ft.Size):
            y = ft.empty((a.shape(0),), "f32")
            for i in range(a.shape(0)):
                y[i] = a[i, 0] + b[0] + k * 1.0
            return y

        arrs = (np.zeros((5, 7), np.float32), np.zeros(7, np.float32))
        env = infer_scalar_env(f.func, arrs, {"k": 3, "junk": 2.5})
        assert env == {"n": 5, "m": 7, "k": 3}
        # name-keyed mapping form (what the verify CLI uses)
        env2 = infer_scalar_env(f.func, {"a": arrs[0], "b": arrs[1]},
                                {"k": 3})
        assert env2 == env


class TestPerfLint:

    def test_ft501_fires_on_parallelizable_hot_loop(self):
        codes = [d.code for d in perf_lint(_axpy)]
        assert "FT501" in codes

    def test_ft501_respects_carried_deps_and_annotations(self):
        @ft.transform
        def acc(x: ft.Tensor[(1024,), "f32", "input"]):
            y = ft.zeros((1024,), "f32")
            for i in range(1, 1024):
                y[i] = y[i - 1] + x[i]  # loop-carried: not parallel
            return y

        # the ft.zeros init loop is legitimately flagged; the carried-dep
        # accumulation loop must not be
        carried_sid = [l.sid for l in ft.Schedule(acc.func).loops()
                       if l.iter_var == "i"]
        assert carried_sid
        assert not [d for d in perf_lint(acc)
                    if d.code == "FT501" and d.sid in carried_sid]
        # an already-parallel loop is not reported either
        s = ft.Schedule(_axpy.func)
        s.parallelize(s.loops()[0].sid, "openmp")
        assert "FT501" not in [d.code for d in perf_lint(s.func)]

    def test_ft502_fires_on_transposed_traversal(self):
        @ft.transform
        def tr(x: ft.Tensor[(32, 32), "f32", "input"]):
            y = ft.empty((32, 32), "f32")
            for j in range(32):
                for i in range(32):
                    y[j, i] = x[i, j] * 2.0  # x strides its outer dim
            return y

        hits = [d for d in perf_lint(tr) if d.code == "FT502"]
        assert any(d.tensor == "x" for d in hits)
        assert not any(d.tensor == "y" for d in hits)

    def test_ft503_fires_on_invariant_recompute(self):
        @ft.transform
        def inv(x: ft.Tensor[(32,), "f32", "input"]):
            y = ft.empty((32, 32), "f32")
            for i in range(32):
                for j in range(32):
                    y[i, j] = x[i] * 2.0 + 1.0  # j-invariant store? no:
                    # indices use j, so this is NOT invariant
            return y

        assert "FT503" not in [d.code for d in perf_lint(inv)]

        @ft.transform
        def inv2(s: ft.Tensor[(32,), "f32", "input"]):
            y = ft.empty((32,), "f32")
            z = ft.empty((32,), "f32")
            for i in range(32):
                for j in range(32):
                    y[i] = s[i] * 2.0 + 1.0  # same value, every j
                    z[j] = y[i] + 0.0
            return z

        hits = [d for d in perf_lint(inv2) if d.code == "FT503"]
        assert any(d.tensor == "y" for d in hits)

    def test_verify_level_gates_perf_findings(self):
        from repro.analysis import verify

        assert not [d for d in verify(_axpy.func).diags
                    if d.code.startswith("FT5")]
        info = verify(_axpy.func, level="info")
        assert [d for d in info.diags if d.code == "FT501"]
        only = verify(_axpy.func, analyses=("perf",), level="info")
        assert all(d.code.startswith("FT5") for d in only.diags)


_SCREEN = CandidateScreen.screen


def _spy_screen(monkeypatch, force=False):
    """Collect the estimate of every candidate the screen cost-prunes;
    with ``force`` such candidates go on to measurement instead."""
    pruned = []

    def screen(self, cand):
        verdict, est = _SCREEN(self, cand)
        if verdict == "cost_pruned":
            pruned.append(est)
            if force:
                return "measure", est
        return verdict, est

    monkeypatch.setattr(CandidateScreen, "screen", screen)
    return pruned


class TestTunerPruning:
    """Fake-measure mode makes a candidate's 'time' its static time proxy.
    Pruning only drops candidates the incumbent dominates on *every*
    axis, and the proxy is monotone in those axes, so a pruned candidate
    provably cannot beat the incumbent. ``topk == batch`` measures every
    survivor and ``population=1`` makes the incumbent the only parent,
    so pruning cannot steer the search elsewhere either: the pruned and
    unpruned searches must return the same best time."""

    @pytest.fixture(autouse=True)
    def _fake_measure(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")

    def _mk(self, func=_axpy.func, inputs=None, rounds=32):
        if inputs is None:
            inputs = (np.random.default_rng(7).standard_normal(
                (32, 32)).astype(np.float32),)
        return StructuredTuner(func, make_inputs=lambda: inputs,
                               backend="pycode", rounds=rounds, batch=8,
                               topk=8, population=1, seed=3, workers=1)

    def test_counters_and_skips(self, monkeypatch):
        metrics.reset_tuner_stats()
        r = self._mk().tune()
        assert r.rounds == 32
        assert len(r.round_times) == 32
        assert r.dedup_skips > 0 or r.cost_pruned > 0
        assert r.measured == len(r.measure_times)
        assert r.measured + r.dedup_skips + r.cost_pruned \
            + r.frontier_skips + r.invalid == 32
        st = metrics.tuner_stats()
        assert st["candidates"] == 32
        assert st["dedup_skips"] == r.dedup_skips
        assert st["cost_pruned"] == r.cost_pruned
        assert st["measured"] == r.measured

    def test_pruning_never_changes_the_winner(self, monkeypatch):
        pruned_ests = _spy_screen(monkeypatch)
        pruned = self._mk().tune()
        assert len(pruned_ests) == pruned.cost_pruned > 0
        _spy_screen(monkeypatch, force=True)
        full = self._mk().tune()
        assert full.cost_pruned == 0
        assert pruned.measured < full.measured
        # same deterministic best, despite measuring fewer candidates
        assert pruned.best_time == full.best_time
        # what the pruner dropped would have measured no better
        for est in pruned_ests:
            assert est.time_proxy >= pruned.best_time

    def test_no_prune_env_restores_old_behavior(self, monkeypatch):
        _spy_screen(monkeypatch, force=True)
        a = self._mk().tune()
        b = self._mk().tune()
        assert a.cost_pruned == 0
        # every distinct, realizable assignment is measured
        assert a.measured == 32 - a.dedup_skips - a.invalid
        assert a.measured == b.measured
        assert struct_hash(a.best_func) == struct_hash(b.best_func)

    def test_dedup_by_structure(self, monkeypatch):
        # a loop with a six-point knob space: twelve draws must repeat
        # assignments, and every repeat is skipped before measurement

        @ft.transform
        def tiny(y: ft.Tensor[(4,), "f32", "output"]):
            for i in range(4):
                y[i] = 1.0

        t = self._mk(tiny.func, inputs=(), rounds=12)
        assert t.space.size() == 6
        r = t.tune()
        assert r.rounds == 12
        assert r.measured + r.dedup_skips + r.cost_pruned \
            + r.frontier_skips + r.invalid == 12
        assert r.dedup_skips >= 6
