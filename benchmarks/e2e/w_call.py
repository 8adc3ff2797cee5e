"""``call_steady``: one ``Executable.__call__`` (or ``GradExecutable``
forward + ``backward()``) in a warm process.

Eleven series run round-robin in blocks: the four forward programs at
evaluation size (kernel + dispatch), the three gradients at evaluation
size, and the four forward programs at request size, where the kernel is
a few microseconds and the call is dispatch. Only ``runtime/driver.py``'s
bind plan -> ctypes -> kernel -> result wrap runs; the compiler is idle
after set-up. Comparing the small and the evaluation series separates
dispatch from kernel without touching the private ``_bind``.
"""

from __future__ import annotations

import statistics
import time

import harness
import programs as P

#: calls per block; a block's median ignores single stalls
BLOCK = 100
WARMUP_CALLS = 3


class Series:
    """One (program, size, kind) call stream and its oracle."""

    def __init__(self, label, kind, fn, check, gexe=None):
        self.label = label
        self.kind = kind          # eval | grad | small
        self.fn = fn
        self.check = check        # result -> bool, against NumPy
        self.gexe = gexe          # the GradExecutable of a grad series
        self.error = "wrong result"
        self.blocks = []          # per-block median seconds
        self.samples = []         # every call, pooled
        self.calls = 0
        self.failed = 0


def build_series(seed: int):
    from repro.ad import GradExecutable, grad
    from repro.runtime.driver import build

    series = []
    for name in P.PROGRAMS:
        mod = P.module(name)
        exe = build(mod.make_program(), backend="c", optimize=True)
        for kind, sizes in (("eval", P.SIZES), ("small", P.SMALL)):
            data = mod.make_data(seed=seed, **sizes[name])
            args, kwargs = P.call_args(name, data)
            ref = P.forward_ref(name, data)
            series.append(Series(
                f"{name}.{kind}", kind,
                lambda exe=exe, a=args, k=kwargs: exe(*a, **k),
                lambda out, ref=ref: P.check_forward(out, ref)))
            if kind == "eval" and name in P.GRAD_REQUIRES:
                gexe = GradExecutable(
                    grad(mod.make_program(),
                         requires=P.GRAD_REQUIRES[name]), backend="c")
                g_refs = P.grad_refs(name, data, ref)

                def grad_call(gexe=gexe, a=args, k=kwargs):
                    out = gexe(*a, **k)
                    return out, gexe.backward()

                series.append(Series(
                    f"{name}.grad", "grad", grad_call,
                    lambda r, ref=ref, g=g_refs:
                        P.check_grad(r[0], r[1], ref, g), gexe))
    return series


def run_block(s: Series, tracer=None):
    """BLOCK timed calls; the last result is checked after the clock
    stops. Calls of one series are identical, so a wrong result marks
    the whole block failed."""
    pc = time.perf_counter
    fn = s.fn
    ts = []
    out = None
    try:
        if tracer is None:
            for _ in range(BLOCK):
                t0 = pc()
                out = fn()
                ts.append(pc() - t0)
        else:
            span_name = ("runtime.driver.grad_call" if s.kind == "grad"
                         else "runtime.driver.call")
            for i in range(BLOCK):
                t0 = pc()
                with tracer.span(span_name, op=f"{s.label}#{s.calls + i}"):
                    out = fn()
                ts.append(pc() - t0)
        ok = s.check(out)
    except Exception as e:  # noqa: BLE001 - a failed call is a result
        s.error = f"{type(e).__name__}: {e}"
        ok = False
    s.calls += BLOCK
    if not ok:
        s.failed += BLOCK
        return
    s.blocks.append(statistics.median(ts))
    s.samples.extend(ts)


def timed_rounds(series, seconds: float, tracer=None) -> int:
    t0 = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - t0 < seconds:
        for s in series:
            run_block(s, tracer)
        rounds += 1
    return rounds


def kind_geomean(series, kind: str) -> float:
    return harness.geomean(harness.best_block(s.blocks)
                           for s in series if s.kind == kind)


def summarize(series, res: harness.Run) -> float:
    """Geomean over the series of the best-block median, in seconds; the
    per-series values, their noise floor and the pooled percentiles go
    to the report."""
    for s in series:
        if not s.blocks:
            raise RuntimeError(f"{s.label}: no correct block ({s.error})")
    res.extra["best_us"] = {s.label: harness.best_block(s.blocks) * 1e6
                            for s in series}
    res.extra["noise_ratio"] = {s.label: harness.noise_ratio(s.blocks)
                                for s in series}
    pooled = [t for s in series for t in s.samples]
    res.extra["pooled_p50_us"] = harness.percentile(pooled, 0.50) * 1e6
    res.extra["pooled_p99_us"] = harness.percentile(pooled, 0.99) * 1e6
    res.extra["pooled_samples"] = len(pooled)
    return harness.geomean(harness.best_block(s.blocks) for s in series)


def layer_probes(res: harness.Run, seconds: float, c_eval: dict):
    """Traced runs only: the non-C backends and the paper's operator
    baseline on the same forward programs (none gated), and the cost of
    a call at a new shape signature (a bind-plan miss)."""
    from repro.baselines import Device
    from repro.runtime.driver import bind_cache_stats, build

    per = seconds / (3 * len(P.PROGRAMS))
    us = {"pycode": [], "npblock": [], "op": []}
    speedups = []
    first_call = []
    for name in P.PROGRAMS:
        mod = P.module(name)
        data = mod.make_data(seed=res.seed, **P.SIZES[name])
        args, kwargs = P.call_args(name, data)
        ref = P.forward_ref(name, data)
        for backend in ("pycode", "npblock"):
            exe = build(mod.make_program(), backend=backend, optimize=True)
            ok = P.check_forward(exe(*args, **kwargs), ref)
            res.count(1, 0 if ok else 1)
            us[backend].append(harness.best_time(
                lambda: exe(*args, **kwargs), per))

        def baseline():
            return mod.run_baseline(data, Device(f"{name}-baseline"))[0]

        ok = P.check_forward(baseline().numpy(), ref)
        res.count(1, 0 if ok else 1)
        t_op = harness.best_time(baseline, per)
        us["op"].append(t_op)
        speedups.append(t_op / c_eval[name])

        # every size below is a signature the executable has not seen
        exe = build(mod.make_program(), backend="c", optimize=True)
        size_key = next(iter(P.SMALL[name]))
        before = bind_cache_stats()["plan_misses"]
        for bump in range(1, 9):
            sizes = dict(P.SMALL[name])
            sizes[size_key] += bump
            d = mod.make_data(seed=res.seed, **sizes)
            a, k = P.call_args(name, d)
            t0 = time.perf_counter()
            out = exe(*a, **k)
            first_call.append(time.perf_counter() - t0)
            ok = P.check_forward(out, P.forward_ref(name, d))
            res.count(1, 0 if ok else 1)
        if bind_cache_stats()["plan_misses"] - before != 8:
            raise RuntimeError("new shapes did not miss the bind plan")
    res.layers["backend.pycode_call_us"] = harness.geomean(us["pycode"]) * 1e6
    res.layers["backend.npblock_call_us"] = \
        harness.geomean(us["npblock"]) * 1e6
    res.layers["baselines.op_call_us"] = harness.geomean(us["op"]) * 1e6
    res.layers["baselines.speedup_vs_op"] = harness.geomean(speedups)
    res.layers["runtime.driver.first_call_us"] = \
        statistics.median(first_call) * 1e6


def run(ctx: harness.Run):
    from repro.runtime.driver import bind_cache_stats

    series = build_series(ctx.seed)
    for s in series:
        for _ in range(WARMUP_CALLS):
            out = s.fn()
        if not s.check(out):
            raise RuntimeError(f"{s.label}: wrong result in warm-up")
    ctx.setup_done()

    if not ctx.trace:
        ctx.extra["rounds"] = timed_rounds(series, ctx.seconds)
        ctx.set_rate_metrics(summarize(series, ctx) * 1e3)
        ctx.e2e["peak_rss_mb"] = harness.self_rss_mb()
        for s in series:
            ctx.count(s.calls, s.failed)
        return

    # a quarter of the time untraced, a quarter traced, the rest probes
    plans = bind_cache_stats()
    timed_rounds(series, ctx.seconds / 4)
    untraced = summarize(series, ctx)
    layers = ctx.layers
    layers["runtime.driver.call_eval_us"] = \
        kind_geomean(series, "eval") * 1e6
    layers["runtime.driver.call_small_us"] = \
        kind_geomean(series, "small") * 1e6
    layers["runtime.driver.grad_call_us"] = \
        kind_geomean(series, "grad") * 1e6
    layers["runtime.driver.call_p99_us"] = ctx.extra["pooled_p99_us"]
    layers["ad.tape_bytes"] = sum(s.gexe.tape_bytes for s in series
                                  if s.gexe is not None)
    layers["bench.noise_ratio"] = harness.geomean(
        ctx.extra["noise_ratio"].values())
    after = bind_cache_stats()
    for key in ("plan_hits", "plan_misses"):
        layers[f"runtime.driver.bind_{key}"] = after[key] - plans[key]
    c_eval = {s.label.split(".")[0]: harness.best_block(s.blocks)
              for s in series if s.kind == "eval"}

    for s in series:
        s.blocks, s.samples = [], []
    timed_rounds(series, ctx.seconds / 4, ctx.tracer)
    traced = harness.geomean(harness.best_block(s.blocks) for s in series)
    layers["bench.trace_overhead_share"] = traced / untraced - 1.0
    for s in series:
        ctx.count(s.calls, s.failed)
    layer_probes(ctx, ctx.seconds / 2, c_eval)
