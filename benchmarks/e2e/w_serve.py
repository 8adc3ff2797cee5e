"""``serve_burst`` and ``serve_paced``: a served request.

Both drive ``Server(mode="thread", workers=1, max_batch=64,
max_wait_s=0.002, queue_limit=4096)`` over the four default endpoints on
backend ``c`` with ``gen_requests(256, seed)`` payloads per endpoint, and
check every response against a NumPy reference computed in set-up.

``serve_burst`` is a closed loop with one client: a wave of 256 requests
per ``submit_many``, the next wave only after the previous one resolved.
That is saturation: bucket key, collate (``np.stack`` / pad / CSR
concat), one batched call per 64 requests, split and resolve dominate,
and the wait window never expires.

``serve_paced`` is an open loop: seeded exponential inter-arrival gaps
and a seeded mix of the four endpoints at 500, 1500 and 4000 requests
per second. Batches hold 1 to 3 requests, so the ``max_wait_s`` flush
rule and the per-batch overhead set latency, and batching efficiency is
irrelevant. A flush-rule change must move this workload and leave
``serve_burst`` alone; a collate change the reverse.

Phase isolation: in a process that starts a ``Server``, the main thread
never runs a C kernel. libgomp keeps one thread team per initial thread
and throttles spinning once teams outnumber the cores; eight main-thread
calls before the server started halved batched throughput in the sizing
probes, while the same calls on a short-lived thread cost nothing. Every
direct kernel call below therefore runs under ``off_main``.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

import harness
import programs as P

SERVER = dict(mode="thread", workers=1, max_batch=64, max_wait_s=0.002,
              queue_limit=4096)
WAVE = 256
#: waves per block (closed loop)
WAVES = 8
RESULT_TIMEOUT_S = 30.0

#: open-loop steps, requests per second
RATES = (500, 1500, 4000)
#: untimed open-loop warm-up before the first step
WARM_RATE, WARM_S = 1500, 0.6
#: a request answered later than this after it was due misses
LIMIT_S = 0.025
#: windows the paced latency is taken over
WINDOW_S = 0.5
#: a step whose generator ran later than this (p99) is invalid
MAX_LATE_S = 0.005


def assert_off_main():
    assert threading.current_thread() is not threading.main_thread(), \
        "a C kernel on the main thread of a serving process halves " \
        "batched throughput (one OpenMP team per initial thread)"


def off_main(fn, *args):
    """Run ``fn`` on a short-lived, joined helper thread."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as e:  # noqa: BLE001 - re-raised below
            box["error"] = e

    t = threading.Thread(target=target, name="e2e-helper")
    t.start()
    t.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


class Oracle:
    """The NumPy references of one endpoint's 256 payloads."""

    def __init__(self, name: str, payloads):
        self.refs = [P.forward_ref(name, P.request_data(name, a, s))
                     for a, s in payloads]
        self.flat = np.concatenate([r.ravel() for r in self.refs])

    def response_ok(self, resp, idx: int) -> bool:
        return (resp is not None and resp.ok
                and P.check_forward(resp.value, self.refs[idx]))

    def wave_failures(self, responses) -> int:
        """Failed, rejected, timed-out and wrong responses of one wave,
        in payload order. The fast path compares the whole wave at once;
        per-response shapes are checked on the slow path, which the
        warm-up wave always takes."""
        if all(r is not None and r.ok for r in responses):
            flat = np.concatenate([np.asarray(r.value).ravel()
                                   for r in responses])
            if P.close(flat, self.flat, **P.FWD_TOL):
                return 0
        return self.wave_failures_slow(responses)

    def wave_failures_slow(self, responses) -> int:
        return sum(1 for i, r in enumerate(responses)
                   if not self.response_ok(r, i))


def resolve(pending):
    try:
        return pending.result(timeout=RESULT_TIMEOUT_S)
    except TimeoutError:
        return None


class Setup:
    """Endpoints compiled, payloads and references generated."""

    def __init__(self, seed: int):
        from repro.serving import default_endpoints

        self.endpoints = default_endpoints(backend="c")
        # compiles on the main thread (gcc is a subprocess); runs nothing
        for ep in self.endpoints.values():
            ep.warm()
        self.names = list(self.endpoints)
        self.payloads = {n: ep.gen_requests(WAVE, seed)
                         for n, ep in self.endpoints.items()}
        self.oracles = {n: Oracle(n, self.payloads[n])
                        for n in self.names}

    def warm_server(self, srv):
        """One checked wave per endpoint: binding plans get made and
        every response's shape is checked once."""
        for n in self.names:
            rs = [resolve(p) for p in srv.submit_many(n, self.payloads[n])]
            if self.oracles[n].wave_failures_slow(rs):
                raise RuntimeError(f"{n}: wrong response in warm-up")


# -- closed loop -------------------------------------------------------------


class Burst:
    """Per-endpoint block medians of wave time and response latency."""

    def __init__(self, names):
        self.wave = {n: [] for n in names}
        self.latency = {n: [] for n in names}
        self.attempted = 0
        self.failed = 0

    def throughput(self) -> float:
        return harness.geomean(WAVE / harness.best_block(b)
                               for b in self.wave.values())

    def wave_s(self) -> float:
        return harness.geomean(harness.best_block(b)
                               for b in self.wave.values())

    def latency_s(self) -> float:
        return harness.geomean(harness.best_block(b)
                               for b in self.latency.values())


def burst_rounds(setup: Setup, seconds: float, one_wave, fault=None
                 ) -> Burst:
    """``one_wave(name) -> (seconds, responses)`` runs and times one
    wave; responses are checked after its clock stopped."""
    out = Burst(setup.names)
    t0 = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - t0 < seconds:
        for n in setup.names:
            wave_ts, lats = [], []
            for _ in range(WAVES):
                dt, rs = one_wave(n)
                if fault == "corrupt":
                    rs[5].value = rs[5].value + 1.0
                out.attempted += len(rs)
                out.failed += setup.oracles[n].wave_failures(rs)
                wave_ts.append(dt)
                lats.extend(r.latency_s for r in rs if r is not None)
            out.wave[n].append(statistics.median(wave_ts))
            out.latency[n].append(statistics.median(lats))
        rounds += 1
    return out


def server_burst(setup: Setup, seconds: float, res: harness.Run,
                 server_args: dict, fault=None) -> Burst:
    from repro.serving import Server

    with Server(setup.endpoints, **server_args) as srv:
        if fault is None:
            setup.warm_server(srv)
        res.setup_done()

        def one_wave(n):
            t0 = time.perf_counter()
            pend = srv.submit_many(n, setup.payloads[n])
            rs = [resolve(p) for p in pend]
            return time.perf_counter() - t0, rs

        return burst_rounds(setup, seconds, one_wave, fault)


class TracedStrategy:
    """A ``BatchStrategy`` with spans around ``collate`` and ``split``
    (``bucket_key`` runs once per request and stays unspanned: its time
    is the submit span's self time)."""

    def __init__(self, inner, tracer: harness.Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def bucket_key(self, arrays, scalars):
        return self.inner.bucket_key(arrays, scalars)

    def collate(self, endpoint, requests):
        with self.tracer.span("serving.strategies.collate",
                              op=endpoint.name):
            return self.inner.collate(endpoint, requests)

    def split(self, endpoint, outs, requests):
        with self.tracer.span("serving.strategies.split",
                              op=endpoint.name):
            return self.inner.split(endpoint, outs, requests)


def traced_endpoints(tracer: harness.Tracer):
    """A second set of the same endpoints (their executables come from
    the build cache) whose strategy and batched call record spans."""
    from repro.serving import default_endpoints

    endpoints = default_endpoints(backend="c")
    for ep in endpoints.values():
        ep.warm()
        ep.strategy = TracedStrategy(ep.strategy, tracer)
        inner = ep.executable

        def executable(func, inner=inner, name=ep.name):
            exe = inner(func)

            def call(*arrays, **scalars):
                with tracer.span("serving.batched_call", op=name):
                    return exe(*arrays, **scalars)

            return call

        ep.executable = executable
    return endpoints


def manual_burst(setup: Setup, seconds: float, tracer: harness.Tracer
                 ) -> Burst:
    """The traced closed loop: ``Server(start=False)`` driven by
    ``poll(force=True)`` from this (helper) thread, so that submit, poll,
    collate, the batched call and split nest on one thread."""
    from repro.serving import Server

    assert_off_main()
    args = dict(SERVER, start=False)
    with Server(traced_endpoints(tracer), **args) as srv:
        waves = iter(range(10**9))

        def one_wave(n):
            t0 = time.perf_counter()
            with tracer.span("op:wave", op=f"{n}#{next(waves)}"):
                with tracer.span("serving.server.submit_many"):
                    pend = srv.submit_many(n, setup.payloads[n])
                polled = 1
                while polled:
                    with tracer.span("serving.server.poll"):
                        polled = srv.poll(force=True)
                with tracer.span("serving.pending.result"):
                    rs = [resolve(p) for p in pend]
            return time.perf_counter() - t0, rs

        return burst_rounds(setup, seconds, one_wave)


def batch_layer_probes(setup: Setup, seconds: float) -> dict:
    """Direct calls on one 64-request batch per endpoint: the strategy's
    three steps and the batched executable, in seconds (geomean over the
    endpoints)."""
    from repro.serving import Request

    assert_off_main()
    per = seconds / (4 * len(setup.names))
    out = {"bucket_key": [], "collate": [], "call": [], "split": []}
    for n in setup.names:
        ep = setup.endpoints[n]
        strategy = ep.strategy
        reqs = [Request(i, n, list(a), dict(s), "default", 30.0, 0.0)
                for i, (a, s) in
                enumerate(setup.payloads[n][:SERVER["max_batch"]])]
        first = reqs[0]
        out["bucket_key"].append(harness.best_time(
            lambda: strategy.bucket_key(first.arrays, first.scalars),
            per, block=50))
        func, arrays, scalars, _pad = strategy.collate(ep, reqs)
        exe = ep.executable(func)
        outs = exe(*arrays, **scalars)
        out["collate"].append(harness.best_time(
            lambda: strategy.collate(ep, reqs), per))
        out["call"].append(harness.best_time(
            lambda: exe(*arrays, **scalars), per))
        out["split"].append(harness.best_time(
            lambda: strategy.split(ep, outs, reqs), per))
    return {k: harness.geomean(v) for k, v in out.items()}


def serial_rps(setup: Setup, seconds: float, res: harness.Run) -> float:
    """The no-serving baseline: one compiled call per request."""
    assert_off_main()
    rates = []
    for n in setup.names:
        ep = setup.endpoints[n]
        exe = ep.executable(ep.base_func())
        payloads = setup.payloads[n]
        outs = [exe(*a, **s) for a, s in payloads]
        bad = sum(1 for o, ref in zip(outs, setup.oracles[n].refs)
                  if not P.check_forward(o, ref))
        res.count(len(outs), bad)

        def wave():
            for a, s in payloads:
                exe(*a, **s)

        rates.append(WAVE / harness.best_time(
            wave, seconds / len(setup.names), block=3))
    return harness.geomean(rates)


def run_burst(res: harness.Run):
    from repro.runtime.metrics import reset_serving_stats, serving_stats

    seconds, trace, tracer, fault = \
        res.seconds, res.trace, res.tracer, res.fault
    setup = Setup(res.seed)
    server_args = dict(SERVER)
    if fault == "reject":
        server_args["queue_limit"] = WAVE // 2
    reset_serving_stats()
    burst = server_burst(setup, seconds / 4 if trace else seconds, res,
                         server_args, fault)
    res.count(burst.attempted, burst.failed)
    res.set_rate_metrics(burst.latency_s() * 1e3, burst.throughput())
    res.e2e["peak_rss_mb"] = harness.self_rss_mb()
    res.extra["wave_ms"] = {n: harness.best_block(b) * 1e3
                            for n, b in burst.wave.items()}
    res.extra["noise_ratio"] = {n: harness.noise_ratio(b)
                                for n, b in burst.wave.items()}
    res.extra["rounds"] = len(burst.wave[setup.names[0]])
    if not trace:
        return

    stats = serving_stats()
    layers = res.layers
    layers["serving.server.mean_batch"] = \
        stats["batched_requests"] / max(1, stats["batches"])
    layers["serving.server.pad_elements"] = stats["pad_elements"]
    layers["serving.server.queue_depth_hwm"] = stats["queue_depth_peak"]
    layers["bench.noise_ratio"] = harness.geomean(
        res.extra["noise_ratio"].values())

    traced = off_main(manual_burst, setup, seconds / 4, tracer)
    res.count(traced.attempted, traced.failed)
    layers["bench.trace_overhead_share"] = \
        traced.wave_s() / burst.wave_s() - 1.0
    layers["serving.server.submit_many_us"] = statistics.median(
        tracer.durations("serving.server.submit_many")) * 1e6
    res.extra["layer_coverage"] = harness.layer_coverage(tracer, "op:wave")

    probes = off_main(batch_layer_probes, setup, seconds / 8)
    layers["serving.strategies.bucket_key_us"] = probes["bucket_key"] * 1e6
    layers["serving.strategies.collate_us"] = probes["collate"] * 1e6
    layers["serving.strategies.split_us"] = probes["split"] * 1e6
    layers["serving.batched_call_us"] = probes["call"] * 1e6
    per_batch = probes["collate"] + probes["call"] + probes["split"]
    layers["serving.server.overhead_us"] = \
        (burst.wave_s() / WAVE - per_batch / SERVER["max_batch"]) * 1e6

    serial = off_main(serial_rps, setup, seconds / 8, res)
    layers["serving.serial_rps"] = serial
    layers["serving.batch_speedup"] = burst.throughput() / serial

    # last: forked workers must not inherit a running dispatcher
    reset_serving_stats()
    process = server_burst(setup, seconds / 4, res,
                           dict(SERVER, mode="process"))
    res.count(process.attempted, process.failed)
    layers["serving.executor.process_rps"] = process.throughput()
    layers["serving.executor.worker_respawns"] = \
        serving_stats()["worker_respawns"]


# -- open loop ---------------------------------------------------------------


class Step:
    """One rate step of the open loop, after its responses resolved."""

    def __init__(self, rate: int):
        self.rate = rate
        self.latency = []      # seconds from due, every request
        self.due = []          # seconds since the step began
        self.late = []         # generator lateness, seconds
        self.attempted = 0
        self.failed = 0        # not ok, or wrong
        self.missed = 0        # failed, or later than LIMIT_S
        self.batches = 0
        self.backlog = 0       # queue depth when the last one was sent
        self.rejected = 0

    def window_medians(self):
        buckets = {}
        for d, lat in zip(self.due, self.latency):
            buckets.setdefault(int(d / WINDOW_S), []).append(lat)
        return [statistics.median(b) for b in buckets.values()
                if len(b) >= 20]

    def p(self, q: float) -> float:
        return harness.percentile(self.latency, q)

    def late_p99(self) -> float:
        return harness.percentile(self.late, 0.99)

    def mean_batch(self) -> float:
        return len(self.latency) / max(1, self.batches)

    def keeps_up(self) -> bool:
        """p99 from due within the limit, nothing refused, and no
        backlog left when the generator stopped."""
        return (self.p(0.99) <= LIMIT_S and not self.rejected
                and self.backlog <= SERVER["max_batch"])


def paced_step(setup: Setup, srv, rate: int, duration: float, rng,
               tracer=None) -> Step:
    """Send on a schedule regardless of responses. The generator sleeps
    until a request is due and never spins: a spinning generator holds
    the interpreter lock and starves the dispatcher (a fake 42 ms p50 at
    2000 req/s in the sizing probes). It reports its own lateness."""
    n = max(1, int(rate * duration))
    due = rng.exponential(1.0 / rate, n).cumsum().tolist()
    which = rng.integers(0, len(setup.names), n).tolist()
    cursor = dict.fromkeys(setup.names, 0)
    plan = []
    for k in which:
        name = setup.names[k]
        idx = cursor[name] % WAVE
        cursor[name] += 1
        arrays, scalars = setup.payloads[name][idx]
        plan.append((name, idx, arrays, scalars))

    pc, sleep, submit = time.perf_counter, time.sleep, srv.submit
    sent = []
    pend = []
    t_start = pc() + 0.02
    if tracer is None:
        for i in range(n):
            wait = t_start + due[i] - pc()
            if wait > 0:
                sleep(wait)
            name, _idx, arrays, scalars = plan[i]
            sent.append(pc())
            pend.append(submit(name, arrays, scalars))
    else:
        for i in range(n):
            wait = t_start + due[i] - pc()
            if wait > 0:
                with tracer.span("loadgen.sleep", op=i):
                    sleep(wait)
            name, _idx, arrays, scalars = plan[i]
            sent.append(pc())
            with tracer.span("serving.server.submit", op=i):
                pend.append(submit(name, arrays, scalars))
    step = Step(rate)
    step.backlog = srv.queue_depth()
    responses = [resolve(p) for p in pend]

    batches = set()
    for i, resp in enumerate(responses):
        name, idx = plan[i][0], plan[i][1]
        late = sent[i] - (t_start + due[i])
        step.attempted += 1
        step.late.append(late)
        if resp is not None and resp.status == "rejected":
            step.rejected += 1
        if not setup.oracles[name].response_ok(resp, idx):
            step.failed += 1
            step.missed += 1
            continue
        lat = resp.latency_s + late
        step.latency.append(lat)
        step.due.append(due[i])
        batches.add(resp.batch_id)
        if lat > LIMIT_S:
            step.missed += 1
    step.batches = len(batches)
    return step


def paced_steps(setup: Setup, seconds: float, seed: int, endpoints,
                res: harness.Run, tracer=None, fault=None):
    from repro.serving import Server

    rng = np.random.default_rng(seed)
    args = dict(SERVER)
    if fault == "reject":
        args["queue_limit"] = 1
    steps = []
    with Server(endpoints, **args) as srv:
        if fault is None:
            setup.warm_server(srv)
            # batches of 1 to 3 are shape signatures the waves above did
            # not bind: let those plans get made before the clock starts
            warm = paced_step(setup, srv, WARM_RATE, WARM_S, rng)
            if warm.failed:
                raise RuntimeError("wrong response in paced warm-up")
        res.setup_done()
        for rate in RATES:
            steps.append(paced_step(setup, srv, rate,
                                    seconds / len(RATES), rng, tracer))
    return steps


def paced_latency_s(steps) -> float:
    return harness.geomean(min(s.window_medians()) for s in steps)


def run_paced(res: harness.Run):
    seed, seconds, trace, tracer, fault = \
        res.seed, res.seconds, res.trace, res.tracer, res.fault
    setup = Setup(seed)
    budget = seconds / 2 if trace else seconds
    steps = paced_steps(setup, budget, seed, setup.endpoints, res,
                        fault=fault)
    for s in steps:
        res.count(s.attempted, s.failed)
    good = sum(s.attempted - s.missed for s in steps)
    res.e2e["peak_rss_mb"] = harness.self_rss_mb()
    res.extra["steps"] = {
        f"r{s.rate}": {
            "sent": s.attempted, "failed": s.failed, "missed": s.missed,
            "p50_ms": s.p(0.5) * 1e3 if s.latency else None,
            "p99_ms": s.p(0.99) * 1e3 if s.latency else None,
            "samples": len(s.latency),
            "mean_batch": s.mean_batch(),
            "late_p99_ms": s.late_p99() * 1e3,
            "valid": s.late_p99() <= MAX_LATE_S,
            "backlog": s.backlog,
        } for s in steps}
    if fault == "reject":
        res.e2e.update(latency_ms=0.0, throughput_ops_s=0.0)
        return
    res.set_rate_metrics(paced_latency_s(steps) * 1e3, good / budget)
    if not trace:
        return

    layers = res.layers
    for s in steps:
        layers[f"serving.paced.p50_ms.r{s.rate}"] = s.p(0.5) * 1e3
        layers[f"serving.paced.p99_ms.r{s.rate}"] = s.p(0.99) * 1e3
        layers[f"serving.paced.mean_batch.r{s.rate}"] = s.mean_batch()
    layers["serving.paced.max_rate_ok"] = max(
        [s.rate for s in steps if s.keeps_up()], default=0)
    layers["loadgen.late_p99_ms"] = max(s.late_p99() for s in steps) * 1e3
    layers["bench.noise_ratio"] = harness.geomean(
        harness.noise_ratio(s.window_medians()) for s in steps)

    # the same steps again with spans: sleep and submit on this thread,
    # collate / batched call / split on the dispatcher's
    traced = paced_steps(setup, budget, seed, traced_endpoints(tracer),
                         res, tracer)
    for s in traced:
        res.count(s.attempted, s.failed)
    layers["bench.trace_overhead_share"] = \
        paced_latency_s(traced) / paced_latency_s(steps) - 1.0
    layers["serving.server.submit_us"] = statistics.median(
        tracer.durations("serving.server.submit")) * 1e6


def run(ctx: harness.Run):
    if ctx.workload == "serve_burst":
        run_burst(ctx)
    else:
        run_paced(ctx)
