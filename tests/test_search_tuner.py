"""Tests for the structured schedule searcher and its measurement pool
(``repro.autosched.search``): knob-space extraction, trace replay,
determinism across worker counts, crash/hang isolation, and the
satellite guarantees (inputs cached once per session, winner traces
recorded everywhere)."""

import os
import random

import numpy as np
import pytest

import repro as ft
from repro.analysis.cost import frontier_order, pareto_front
from repro.autosched import StructuredTuner
from repro.autosched.search.space import ScheduleSpace
from repro.autosched.search.trace import ScheduleTrace
from repro.ir.hashing import struct_hash
from repro.runtime import metrics
from repro.schedule import Schedule


def _mm_program(n=8, m=6, k=5):
    @ft.transform
    def mm(a: ft.Tensor[(n, k), "f32", "input"],
           b: ft.Tensor[(k, m), "f32", "input"],
           c: ft.Tensor[(n, m), "f32", "output"]):
        for i in range(n):
            for j in range(m):
                c[i, j] = 0.
                for p in range(k):
                    c[i, j] += a[i, p] * b[p, j]

    return mm


def _mm_inputs(n=8, m=6, k=5):
    rng = np.random.default_rng(0)
    return (rng.standard_normal((n, k), dtype=np.float32),
            rng.standard_normal((k, m), dtype=np.float32))


def _gat():
    from repro.workloads import gat

    data = gat.make_data(n_nodes=24, avg_degree=3, feats=4, out_feats=4)
    args = (data["indptr"], data["indices"], data["h"], data["wmat"],
            data["att_s"], data["att_d"])
    return gat.make_program(), args


# ---------------------------------------------------------------------------
# the knob space
# ---------------------------------------------------------------------------


class TestScheduleSpace:

    def test_extract_typed_knobs(self):
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        kinds = {k.kind for k in space.knobs}
        assert kinds == {"order", "tile", "ann"}
        # every knob's first choice is the identity
        a0 = space.default_assignment()
        func, trace = space.realize(a0)
        assert struct_hash(func) == struct_hash(base)
        assert len(trace) == 0

    def test_order_knob_only_legal_perms(self):
        # c[i,j] += ... has a reduction loop p: permutations among
        # (i, j, p) are all legal here, but every offered choice must
        # replay without raising
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        for knob in space.knobs:
            if knob.kind != "order":
                continue
            for perm in knob.choices:
                a = space.default_assignment()
                a[knob.name] = perm
                space.realize(a)  # must not raise

    def test_tile_factors_respect_trip(self):
        base = Schedule(_mm_program(n=8)).func
        space = ScheduleSpace.extract(base, backend="pycode")
        for knob in space.knobs:
            if knob.kind != "tile":
                continue
            for chain in knob.choices:
                for f in chain:
                    assert f < 64  # no factor above any trip here

    def test_every_chain_ann_pair_replays_faithfully(self):
        # every (tile chain, annotation) combination must replay to
        # the exact func realize() returned — regression test: a
        # two-level chain + parallel used to record the last split's
        # outer (the middle loop) in the trace while parallelizing the
        # first split's outer, so replaying the winner trace produced
        # a different schedule. The "c" backend is the one offering
        # the parallel annotation (openmp capacity > 1).
        base = Schedule(_mm_program(n=64, m=64, k=64)).func
        space = ScheduleSpace.extract(base, backend="c")
        assert space.parallel_kind == "openmp"
        covered = set()
        for tk in space.knobs:
            if tk.kind != "tile":
                continue
            ann_name = tk.name.replace(".tile", ".ann")
            ann_knob = next((k for k in space.knobs
                             if k.name == ann_name), None)
            anns = ann_knob.choices if ann_knob else ["none"]
            for chain in tk.choices:
                for ann in anns:
                    a = space.default_assignment()
                    a[tk.name] = chain
                    if ann_knob is not None:
                        a[ann_name] = ann
                    func, trace = space.realize(a)
                    replayed = trace.apply(Schedule(base)).func
                    assert struct_hash(func) == struct_hash(replayed), \
                        (tk.name, chain, ann)
                    covered.add((len(chain), ann))
        # the space must actually have exercised the risky pairings
        assert (2, "parallel") in covered
        assert (2, "vectorize") in covered
        assert (0, "parallel") in covered

    def test_random_realize_and_replay(self):
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        rng = random.Random(3)
        for _ in range(10):
            a = space.random_assignment(rng)
            func, trace = space.realize(a)
            replayed = trace.apply(Schedule(base)).func
            assert struct_hash(func) == struct_hash(replayed)

    def test_mutate_and_crossover_stay_in_space(self):
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        rng = random.Random(0)
        a = space.random_assignment(rng)
        b = space.random_assignment(rng)
        m = space.mutate(a, rng)
        x = space.crossover(a, b, rng)
        names = {k.name for k in space.knobs}
        assert set(m) == names and set(x) == names
        assert sum(1 for n in names if m[n] != a[n]) == 1
        for n in names:
            assert x[n] == a[n] or x[n] == b[n]

    def test_metrics_counters(self):
        metrics.reset_search_stats()
        base = Schedule(_mm_program()).func
        ScheduleSpace.extract(base, backend="pycode")
        st = metrics.search_stats()
        assert st["spaces"] == 1
        assert st["knobs"] == st["order_knobs"] + st["tile_knobs"] \
            + st["ann_knobs"]
        assert st["knobs"] > 0


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


class TestScheduleTrace:

    def test_json_round_trip(self):
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        rng = random.Random(7)
        a = space.random_assignment(rng)
        func, trace = space.realize(a)
        back = ScheduleTrace.from_json(trace.dumps())
        assert back.as_json() == trace.as_json()
        replayed = back.apply(Schedule(base)).func
        assert struct_hash(func) == struct_hash(replayed)

    def test_res_refs_resolve_split_results(self):
        base = Schedule(_mm_program()).func
        s = Schedule(base)
        tr = ScheduleTrace()
        step = tr.add("split", loop={"$loop": 0}, factor=2)
        tr.add("vectorize", loop={"$res": [step, 1]})
        outer, inner = s.split(s.loops()[0].sid, factor=2)
        s.vectorize(inner)
        replayed = tr.apply(Schedule(base)).func
        assert struct_hash(replayed) == struct_hash(s.func)

    def test_random_tuner_winner_trace_replays(self):
        # explore_prob=1: every draw is a fresh random assignment
        prog = _mm_program()
        tuner = StructuredTuner(prog, make_inputs=_mm_inputs,
                                backend="pycode", rounds=8, seed=1,
                                explore_prob=1.0)
        res = tuner.tune()
        assert res.best_trace is not None
        replayed = res.best_trace.apply(Schedule(tuner.base)).func
        assert struct_hash(replayed) == struct_hash(res.best_func)
        # ... and tuner_stats carries the winner's trace as JSON
        assert metrics.tuner_stats()["best_trace"] == \
            res.best_trace.as_json()

    def test_evolutionary_tuner_winner_trace_replays(self):
        # three generations: later ones mutate and cross over survivors
        prog = _mm_program()
        tuner = StructuredTuner(prog, make_inputs=_mm_inputs,
                                backend="pycode", rounds=10, batch=4,
                                seed=2, explore_prob=0.0)
        res = tuner.tune()
        assert res.best_trace is not None
        replayed = res.best_trace.apply(Schedule(tuner.base)).func
        assert struct_hash(replayed) == struct_hash(res.best_func)


# ---------------------------------------------------------------------------
# frontier ordering
# ---------------------------------------------------------------------------


class TestFrontier:

    def test_frontier_order_sorts_by_proxy(self):
        base = Schedule(_mm_program()).func
        space = ScheduleSpace.extract(base, backend="pycode")
        from repro.analysis.cost import estimate_cost
        from repro.pipeline import lowering_pipeline

        rng = random.Random(5)
        ests = []
        for _ in range(5):
            f, _tr = space.realize(space.random_assignment(rng))
            ests.append(estimate_cost(lowering_pipeline().run(f),
                                      backend="pycode"))
        order = frontier_order(ests)
        proxies = [ests[i].time_proxy for i in order]
        assert proxies == sorted(proxies)

    def test_frontier_order_nones_last_stable(self):
        class E:
            def __init__(self, p):
                self.time_proxy = p

        ests = [None, E(3.0), None, E(1.0), E(3.0)]
        assert frontier_order(ests) == [3, 1, 4, 0, 2]

    def test_pareto_front_keeps_incomparable(self):
        base = Schedule(_mm_program()).func
        from repro.analysis.cost import estimate_cost
        from repro.pipeline import lowering_pipeline

        est = estimate_cost(lowering_pipeline().run(base),
                            backend="pycode")
        # a duplicate never knocks its twin off the front
        assert pareto_front([est, est]) == [0, 1]
        assert pareto_front([None, est]) == [0, 1]


# ---------------------------------------------------------------------------
# the structured tuner: determinism across worker counts
# ---------------------------------------------------------------------------


def _structured(prog, inputs, workers, rounds=16, seed=0, **kw):
    return StructuredTuner(prog, make_inputs=lambda: inputs,
                           backend="pycode", rounds=rounds, seed=seed,
                           workers=workers, **kw)


class TestDeterminism:

    @pytest.mark.parametrize("no_prune", [False, True])
    def test_same_winner_at_1_2_4_workers(self, monkeypatch, no_prune):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        if no_prune:
            monkeypatch.setenv("REPRO_NO_COST_PRUNE", "1")
        else:
            monkeypatch.delenv("REPRO_NO_COST_PRUNE", raising=False)
        prog, args = _gat()
        results = []
        for workers in (1, 2, 4):
            res = _structured(prog, args, workers).tune()
            results.append((struct_hash(res.best_func), res.best_time,
                            res.measured))
        assert results[0] == results[1] == results[2]

    def test_identity_assignment_measured_first_gen(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        prog, args = _gat()
        res = _structured(prog, args, workers=1, rounds=8).tune()
        # the base schedule is always a candidate, so the tuner can
        # never return something worse than doing nothing
        assert res.best_time < float("inf")
        assert res.best_trace is not None

    def test_result_counters_add_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        prog, args = _gat()
        res = _structured(prog, args, workers=1, rounds=16).tune()
        accounted = (res.measured + res.dedup_skips + res.cost_pruned
                     + res.frontier_skips + res.invalid + res.timeouts)
        assert accounted == res.rounds == 16


# ---------------------------------------------------------------------------
# the measurement pool: isolation
# ---------------------------------------------------------------------------


class TestIsolation:

    def test_crashing_candidate_is_counted_not_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        monkeypatch.setenv("REPRO_TUNE_FAULT", "crash:*")
        metrics.reset_pool_stats()
        prog, args = _gat()
        res = _structured(prog, args, workers=2, rounds=8,
                          timeout_s=20).tune()
        # every measurement crashed a worker; the session survived
        assert res.measured == 0
        assert res.best_time == float("inf")
        st = metrics.pool_stats()
        assert st["task_failures"] >= 1
        assert st["worker_respawns"] >= 1
        assert st["tasks"] == st["task_failures"]

    def test_hanging_candidate_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        monkeypatch.setenv("REPRO_TUNE_FAULT", "hang:*")
        metrics.reset_pool_stats()
        prog, args = _gat()
        res = _structured(prog, args, workers=2, rounds=4,
                          batch=4, topk=2, timeout_s=2).tune()
        assert res.measured == 0
        assert res.timeouts >= 1
        st = metrics.pool_stats()
        assert st["task_timeouts"] >= 1
        assert st["worker_respawns"] >= 1
        assert metrics.tuner_stats()["measure_timeout"] >= 1

    def test_serial_pool_isolates_any_exception(self, monkeypatch):
        # at workers=1 an arbitrary exception from compile/run (not
        # just FreeTensorError) must fold back as a failed outcome,
        # matching the worker path's catch-everything isolation — not
        # crash the tuning session
        from repro.autosched.search import measure as m

        def boom(*args, **kwargs):
            raise TypeError("bad candidate")

        monkeypatch.setattr(m, "measure_once", boom)
        base = Schedule(_mm_program()).func
        with m.MeasurementPool(workers=1, backend="pycode",
                               inputs=()) as pool:
            out = pool.measure_batch([(base, None)])
        # failure payloads carry the registry backend name
        assert out == [("failed", "pycode: TypeError: bad candidate")]

    def test_selective_fault_spares_other_candidates(self, monkeypatch):
        # crash only one specific candidate: the others still measure
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        prog, args = _gat()
        clean = _structured(prog, args, workers=2, rounds=8,
                            timeout_s=20).tune()
        assert clean.measured >= 2
        victim = struct_hash(clean.best_func)
        monkeypatch.setenv("REPRO_TUNE_FAULT", f"crash:{victim[:12]}")
        res = _structured(prog, args, workers=2, rounds=8,
                          timeout_s=20).tune()
        assert res.measured >= 1
        assert struct_hash(res.best_func) != victim


# ---------------------------------------------------------------------------
# the measurement pool: workers share the disk store
# ---------------------------------------------------------------------------


_SHARED_STORE_SESSION = '''
import json
import sys

import numpy as np

import repro as ft
from repro.autosched import StructuredTuner
from repro.ir.hashing import struct_hash
from repro.runtime import metrics


@ft.transform
def mm(a: ft.Tensor[(8, 5), "f32", "input"],
       b: ft.Tensor[(5, 6), "f32", "input"],
       c: ft.Tensor[(8, 6), "f32", "output"]):
    for i in range(8):
        for j in range(6):
            c[i, j] = 0.
            for p in range(5):
                c[i, j] += a[i, p] * b[p, j]


inputs = (np.ones((8, 5), np.float32), np.ones((5, 6), np.float32))


def session():
    res = StructuredTuner(mm, make_inputs=lambda: inputs, backend="c",
                          rounds=8, batch=4, topk=4, seed=0,
                          workers=int(sys.argv[1])).tune()
    disk, pool = metrics.disk_cache_stats(), metrics.pool_stats()
    return (struct_hash(res.best_func), res.measured,
            disk["gcc_runs"] + pool["worker_gcc_runs"],
            disk["native_hits"] + pool["worker_native_hits"])


winner, measured, gcc, hits = session()
winner2, _, gcc2, hits2 = session()
print(json.dumps({"winner": winner, "winner_repeat": winner2,
                  "measured": measured, "gcc_runs": gcc,
                  "gcc_runs_repeat": gcc2 - gcc,
                  "native_hits_repeat": hits2 - hits}))
'''


class TestSharedStore:
    """Measurement workers compile through the persistent disk store, so
    gcc work does not grow with the worker count and a fresh pool is
    served by what an earlier one compiled."""

    def _run(self, tmp_path, workers):
        import json
        import subprocess
        import sys

        script = tmp_path / "session.py"
        script.write_text(_SHARED_STORE_SESSION)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"),
                   REPRO_CACHE_DIR=str(tmp_path / f"store{workers}"),
                   REPRO_TUNE_FAKE_MEASURE="1")
        out = subprocess.run([sys.executable, str(script), str(workers)],
                             env=env, capture_output=True, text=True,
                             timeout=600, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_workers_share_the_disk_store(self, tmp_path):
        one = self._run(tmp_path, 1)
        two = self._run(tmp_path, 2)
        assert one["winner"] == two["winner"]
        assert one["measured"] == two["measured"] >= 2
        assert one["gcc_runs"] > 0
        # workers may race on one kernel, but gcc does not scale
        assert two["gcc_runs"] <= one["gcc_runs"] * 1.25 + 2
        # a repeat session forks fresh workers: the store serves them
        assert two["winner_repeat"] == two["winner"]
        assert two["gcc_runs_repeat"] == 0
        assert two["native_hits_repeat"] > 0


# ---------------------------------------------------------------------------
# satellites: input caching
# ---------------------------------------------------------------------------


class TestInputCaching:

    def test_make_inputs_called_once_per_session(self):
        calls = []

        def make_inputs():
            calls.append(1)
            return _mm_inputs()

        tuner = StructuredTuner(_mm_program(), make_inputs=make_inputs,
                                backend="pycode", rounds=10, seed=0)
        res = tuner.tune()
        assert res.measured >= 2  # several real measurements happened
        assert len(calls) == 1

    def test_structured_tuner_caches_inputs_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
        calls = []
        prog, args = _gat()

        def make_inputs():
            calls.append(1)
            return args

        StructuredTuner(prog, make_inputs=make_inputs,
                        backend="pycode", rounds=8, seed=0,
                        workers=1).tune()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# end-to-end: tuned winners still compute the right thing
# ---------------------------------------------------------------------------


class TestEndToEnd:

    def test_structured_winner_is_correct(self):
        prog = _mm_program()
        a, b = _mm_inputs()
        res = StructuredTuner(prog, make_inputs=lambda: (a, b),
                              backend="pycode", rounds=12, seed=0,
                              workers=1).tune()
        from repro.runtime.driver import build

        exe = build(res.best_func, backend="pycode")
        np.testing.assert_allclose(exe(a, b), a @ b, rtol=1e-4)

    def test_cli_entry_point(self, capsys):
        from repro.tune import main

        rc = main(["gat", "--rounds", "6", "--repeats", "1",
                   "--json"])
        assert rc == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["workload"] == "gat"
        assert report["measured"] >= 1
        assert report["trace"] is not None
