"""``python -m repro.serve`` — serving demo and load generator.

Generates a deterministic request mix for the chosen workloads, runs it
twice — serially (one compiled call per request, the no-serving
baseline) and through a :class:`~repro.serving.Server` (dynamic
batching) — verifies the batched results against the serial ones, and
prints throughput, latency percentiles and the serving counters.

Examples::

    python -m repro.serve                          # all 4 workloads
    python -m repro.serve --workloads gat longformer --requests 64
    python -m repro.serve --mode process --workers 4 --backend c
    python -m repro.serve --tenants 3 --quota 8    # admission control
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from .runtime.metrics import reset_serving_stats, serving_stats
from .serving import Server, default_endpoints


def run_serial(endpoints, traffic) -> Dict[str, float]:
    """The baseline: every request is its own compiled call."""
    t0 = time.perf_counter()
    outs = []
    for name, arrays, scalars in traffic:
        ep = endpoints[name]
        exe = ep.executable(ep.base_func())
        outs.append(exe(*arrays, **scalars))
    return {"seconds": time.perf_counter() - t0, "outputs": outs}


def run_batched(endpoints, traffic, args) -> Dict[str, object]:
    reset_serving_stats()
    quotas = None
    if args.quota is not None:
        quotas = {f"tenant{t}": args.quota for t in range(args.tenants)}
    srv = Server(endpoints, mode=args.mode, workers=args.workers,
                 max_batch=args.max_batch, quotas=quotas)
    t0 = time.perf_counter()
    pendings = []
    for i, (name, arrays, scalars) in enumerate(traffic):
        tenant = f"tenant{i % args.tenants}"
        pendings.append(srv.submit(name, arrays, scalars, tenant=tenant))
    responses = [p.result(timeout=120) for p in pendings]
    seconds = time.perf_counter() - t0
    srv.close()
    return {"seconds": seconds, "responses": responses,
            "stats": serving_stats()}


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["subdivnet", "longformer", "softras", "gat"],
                    choices=["subdivnet", "longformer", "softras", "gat"])
    ap.add_argument("--requests", type=int, default=32,
                    help="requests per workload")
    ap.add_argument("--mode", choices=["thread", "process"],
                    default="thread")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--max-batch", type=int, default=8)
    ap.add_argument("--backend", default="pycode")
    ap.add_argument("--no-optimize", action="store_true")
    ap.add_argument("--tenants", type=int, default=1)
    ap.add_argument("--quota", type=int, default=None,
                    help="per-tenant in-flight quota (default: unlimited)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    args = ap.parse_args(argv)

    endpoints = default_endpoints(backend=args.backend,
                                  optimize=not args.no_optimize,
                                  names=args.workloads)
    traffic = []
    for name, ep in endpoints.items():
        for arrays, scalars in ep.gen_requests(args.requests,
                                               seed=args.seed):
            traffic.append((name, arrays, scalars))
        ep.warm()  # neither timed region below pays for a compile

    serial = run_serial(endpoints, traffic)
    batched = run_batched(endpoints, traffic, args)

    mismatches = rejected = 0
    for (name, _a, _s), ref, resp in zip(traffic, serial["outputs"],
                                         batched["responses"]):
        if resp.status == "rejected":
            rejected += 1
        elif not resp.ok or not np.allclose(resp.value, ref, atol=1e-4):
            mismatches += 1

    n = len(traffic)
    st = batched["stats"]
    report = {
        "requests": n,
        "serial_s": round(serial["seconds"], 4),
        "batched_s": round(batched["seconds"], 4),
        "speedup": round(serial["seconds"] /
                         max(batched["seconds"], 1e-9), 2),
        "serial_rps": round(n / max(serial["seconds"], 1e-9), 1),
        "batched_rps": round(n / max(batched["seconds"], 1e-9), 1),
        "mismatches": mismatches,
        "rejected": rejected,
        "stats": st,
    }
    if args.json:
        json.dump(report, sys.stdout, indent=2, default=str)
        print()
    else:
        print(f"{n} requests over {len(endpoints)} endpoint(s) "
              f"[{args.mode} mode, {args.workers} workers, "
              f"max_batch={args.max_batch}, work-conserving flush]")
        print(f"  serial : {report['serial_s']:8.3f}s  "
              f"({report['serial_rps']:.0f} req/s)")
        print(f"  batched: {report['batched_s']:8.3f}s  "
              f"({report['batched_rps']:.0f} req/s)  "
              f"speedup {report['speedup']}x")
        print(f"  batches: {st['batches']}  sizes {st['batch_size_hist']}"
              f"  pad_elements {st['pad_elements']}")
        print(f"  latency: p50 {st['latency_p50_s'] * 1e3:.1f}ms  "
              f"p99 {st['latency_p99_s'] * 1e3:.1f}ms")
        print(f"  outcomes: {st['completed']} ok, {st['failed']} failed, "
              f"{st['timed_out']} timed out, "
              f"{st['rejected_quota'] + st['rejected_queue']} rejected")
        if mismatches:
            print(f"  !! {mismatches} result(s) differ from serial")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
