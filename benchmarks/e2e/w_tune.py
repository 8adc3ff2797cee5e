"""``tune_search``: one ``StructuredTuner(...).tune()`` session per
program, in the compile-only mode ``compile_smoke.py`` and CI already use
(``REPRO_TUNE_FAKE_MEASURE=1``, ``REPRO_NO_DISK_CACHE=1``).

Schedule primitives, dependence / Omega legality queries, cost screening
and lowering dominate, with no gcc and no kernel timing. In this mode the
search trajectory and every counter repeat exactly, whereas with real
timing ``measured`` / ``cost_pruned`` differ from run to run.

The tuner's own seed is pinned: it selects the trajectory, and the cost
of a session differs by +-25% between trajectories, which is a property
of the workload and not noise. ``--seed`` drives the data the winner is
checked on.
"""

from __future__ import annotations

import time

import harness
import programs as P

#: candidate budget per session: two generations, so that the second one
#: mutates and crosses over survivors of the first
ROUNDS = 8
BATCH = 4
TUNER_SEED = 0

#: what must repeat exactly from sweep to sweep
EXACT = ("deps.hits", "deps.misses", "omega.full_solves",
         "omega.memo_hits", "build.misses", "assignments", "measured",
         "cost_pruned", "frontier_skips", "invalid")


def counters() -> dict:
    import repro
    from repro.runtime import metrics

    stats = repro.compile_cache_stats()
    out = {f"{group}.{k}": v for group in ("deps", "omega", "build")
           for k, v in stats[group].items()}
    out["assignments"] = metrics.search_stats()["assignments"]
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


class Session:
    def __init__(self, name: str, seed: int):
        self.name = name
        mod = P.module(name)
        self.prog = mod.make_program()
        self.data = mod.make_data(seed=seed, **P.TINY[name])
        self.args, self.scalars = P.call_args(name, self.data)
        self.ref = P.forward_ref(name, self.data)
        self.times = []

    def tune(self, tracer=None, workers: int = 1):
        """One operation: build the tuner (space extraction) and search."""
        from repro.autosched.search import StructuredTuner

        def make():
            return StructuredTuner(
                self.prog, make_inputs=lambda: self.args,
                backend="pycode", rounds=ROUNDS, batch=BATCH,
                workers=workers, seed=TUNER_SEED, scalars=self.scalars)

        t0 = time.perf_counter()
        if tracer is None:
            result = make().tune()
        else:
            with tracer.span("autosched.search.space", op=self.name):
                tuner = make()
            with tracer.span("autosched.search.tune", op=self.name):
                result = tuner.tune()
        return result, time.perf_counter() - t0

    def winner_ok(self, result, tracer=None) -> bool:
        """Replay the winner's trace on a fresh schedule, build it and
        check its output against NumPy (after the clock stops)."""
        from repro.runtime.driver import build
        from repro.schedule import Schedule

        def replay():
            sched = Schedule(self.prog)
            if result.best_trace is not None:
                result.best_trace.apply(sched)
            return sched.func

        if tracer is None:
            exe = build(replay(), backend="pycode")
            out = exe(*self.args, **self.scalars)
        else:
            with tracer.span("schedule.replay", op=self.name):
                func = replay()
            with tracer.span("runtime.driver.build", op=self.name):
                exe = build(func, backend="pycode")
            with tracer.span("runtime.driver.call", op=self.name):
                out = exe(*self.args, **self.scalars)
        return P.check_forward(out, self.ref)


def sweep(sessions, res: harness.Run, tracer=None) -> dict:
    """One session per program from cleared caches; returns the exact
    counters of the sweep."""
    import repro

    repro.clear_compile_caches()
    before = counters()
    totals = dict.fromkeys(("measured", "cost_pruned", "frontier_skips",
                            "invalid"), 0)
    results = []
    for s in sessions:
        try:
            if tracer is None:
                result, dt = s.tune()
            else:
                with tracer.span("op:tune_session", op=s.name):
                    result, dt = s.tune(tracer)
        except Exception as e:  # noqa: BLE001 - a failed session is a result
            res.count(1, 1)
            res.extra.setdefault("errors", []).append(
                f"{s.name}: {type(e).__name__}: {e}")
            continue
        results.append((s, result, dt))
        for k in totals:
            totals[k] += getattr(result, k)
    exact = delta(counters(), before)
    exact.update(totals)
    # winners are rebuilt and checked outside the sessions' clocks and
    # counters
    for s, result, dt in results:
        ok = s.winner_ok(result, tracer)
        res.count(1, 0 if ok else 1)
        if ok:
            s.times.append(dt)
    return {k: exact[k] for k in EXACT}


def layer_probes(sessions, res: harness.Run):
    """Direct calls into the analyses the search leans on, on each
    program's scheduled IR, and one session on the fork pool."""
    import repro
    from repro.analysis.cost import infer_scalar_env
    from repro.autosched import auto_schedule

    tracer = res.tracer
    for s in sessions:
        func = auto_schedule(s.prog, backend="pycode")
        env = infer_scalar_env(func, s.args, s.scalars)
        with tracer.span("analysis.cost", op=s.name):
            repro.analyze_cost(func, backend="pycode", scalar_env=env)
        with tracer.span("analysis.verify", op=s.name):
            report = repro.verify(func)
        res.count(1, 1 if report.errors else 0)
    self_ms = {k: v * 1e3 for k, v in tracer.self_times().items()}
    res.layers["analysis.cost_ms"] = self_ms["analysis.cost"]
    res.layers["analysis.verify_ms"] = self_ms["analysis.verify"]

    gat = next(s for s in sessions if s.name == "gat")
    repro.clear_compile_caches()
    with tracer.span("autosched.search.pool2", op="gat"):
        result, dt = gat.tune(workers=2)
    res.count(1, 0 if gat.winner_ok(result) else 1)
    res.layers["autosched.search.pool2_session_ms"] = dt * 1e3


def run(ctx: harness.Run):
    sessions = [Session(name, ctx.seed) for name in P.PROGRAMS]
    # one untimed sweep: the tuner's lazy imports happen here
    sweep(sessions, ctx)
    if ctx.failed:
        raise RuntimeError(f"warm-up sweep failed: {ctx.extra.get('errors')}")
    ctx.attempted = 0
    for s in sessions:
        s.times = []
    ctx.setup_done()

    budget = ctx.seconds / 3 if ctx.trace else ctx.seconds
    t0 = time.perf_counter()
    exact = []
    while len(exact) < 2 or time.perf_counter() - t0 < budget:
        exact.append(sweep(sessions, ctx))
    ctx.extra["sweeps"] = len(exact)
    ctx.extra["deterministic"] = all(e == exact[0] for e in exact)
    ctx.extra["exact_counters"] = exact[0]
    for s in sessions:
        if not s.times:
            raise RuntimeError(f"{s.name}: no correct session: "
                               f"{ctx.extra.get('errors')}")
    best = {s.name: min(s.times) for s in sessions}
    ctx.extra["session_ms"] = {k: v * 1e3 for k, v in best.items()}
    ctx.extra["noise_ratio"] = {s.name: harness.noise_ratio(s.times)
                                for s in sessions}
    untraced = harness.geomean(best.values())
    ctx.set_rate_metrics(untraced * 1e3)
    ctx.e2e["peak_rss_mb"] = harness.self_rss_mb()
    if not ctx.trace:
        return

    layers = ctx.layers
    for name, dt in best.items():
        layers[f"autosched.search.session_ms.{name}"] = dt * 1e3
    c = exact[0]
    layers["analysis.deps_hits"] = c["deps.hits"]
    layers["analysis.deps_misses"] = c["deps.misses"]
    layers["polyhedral.omega_full_solves"] = c["omega.full_solves"]
    layers["polyhedral.omega_memo_hits"] = c["omega.memo_hits"]
    layers["schedule.candidates_built"] = c["build.misses"]
    for k in ("assignments", "measured", "cost_pruned", "frontier_skips",
              "invalid"):
        layers[f"autosched.search.{k}"] = c[k]
    layers["bench.noise_ratio"] = harness.geomean(
        ctx.extra["noise_ratio"].values())

    for s in sessions:
        s.times = []
    t0 = time.perf_counter()
    while not sessions[0].times or time.perf_counter() - t0 < budget:
        sweep(sessions, ctx, ctx.tracer)
    traced = harness.geomean(min(s.times) for s in sessions)
    layers["bench.trace_overhead_share"] = traced / untraced - 1.0
    ctx.extra["layer_coverage"] = harness.layer_coverage(
        ctx.tracer, "op:tune_session")
    layer_probes(sessions, ctx)
