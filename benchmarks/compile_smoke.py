"""Compile-time smoke benchmark for CI.

Runs a short tuner session per workload (the compile-path hot loop:
dependence analysis, schedule legality checks, lowering and codegen),
writes ``benchmarks/results/compile_bench.json`` and fails — exit code 1 —
if any workload's tuner wall-clock regresses more than ``THRESHOLD``×
over the committed baseline in
``benchmarks/results/compile_bench_baseline.json``.

The threshold is deliberately loose (2×): CI machines are slower and
noisier than the machine that produced the baseline; the guard exists to
catch algorithmic regressions (a cache stops hitting, a fast path stops
firing), not micro-level noise.

Usage::

    PYTHONPATH=src python benchmarks/compile_smoke.py
"""

import json
import os
import sys
import time

# this benchmark measures the *in-process* compile path: a warm disk
# cache would make the timings meaningless
os.environ["REPRO_NO_DISK_CACHE"] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import MODULES, TINY, ft_args  # noqa: E402

import repro  # noqa: E402
from repro.autosched import RandomTuner  # noqa: E402
from repro.runtime.metrics import pipeline_stats  # noqa: E402

ROUNDS = 12
THRESHOLD = 2.0

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "compile_bench_baseline.json")
OUT_PATH = os.path.join(RESULTS_DIR, "compile_bench.json")


def run_once():
    out = {}
    for name in sorted(MODULES):
        mod = MODULES[name]
        data = mod.make_data(**TINY[name])
        args, kwargs = ft_args(name, data)
        t0 = time.perf_counter()
        tuner = RandomTuner(mod.make_program(),
                            make_inputs=lambda: args,
                            backend="pycode", rounds=ROUNDS, seed=0,
                            scalars=kwargs)
        tuner.tune()
        out[name] = {"tuner_total_s": round(time.perf_counter() - t0, 4)}
    out["_cache_stats"] = repro.compile_cache_stats()
    out["_pipeline_stats"] = pipeline_stats()
    return out


def main() -> int:
    results = run_once()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OUT_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {OUT_PATH}")

    stats = results["_cache_stats"]
    print("cache counters:", json.dumps(stats))
    if not (stats["deps"]["hits"] and stats["omega"]["memo_hits"]):
        print("FAIL: compile-path caches were never hit — the memo layer "
              "is not being exercised")
        return 1

    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH}; skipping regression check")
        return 0
    with open(BASELINE_PATH) as f:
        baseline = json.load(f)

    failed = False
    for name, row in sorted(baseline.items()):
        if name.startswith("_"):
            continue
        base = row["tuner_total_s"]
        cur = results[name]["tuner_total_s"]
        ratio = cur / base if base else float("inf")
        flag = ""
        if ratio > THRESHOLD:
            failed = True
            flag = f"  REGRESSION (> {THRESHOLD}x)"
        print(f"{name:12s} baseline {base:8.4f}s  current {cur:8.4f}s  "
              f"ratio {ratio:5.2f}x{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
