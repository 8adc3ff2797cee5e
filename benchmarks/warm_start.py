"""Cold- vs warm-start compile benchmark for the persistent cache.

Measures what the persistent cache (repro.cache) actually buys: the
wall-clock of a *fresh Python process* compiling a workload, first
against an empty cache directory (cold — every pass runs, gcc runs),
then again in another fresh process (warm — the pipeline jumps to its
terminal cached pass and the ``.so`` is loaded from the shared store).

Writes ``benchmarks/results/warm_start.json`` and fails — exit code 1 —
unless the warm process's compile is at least ``MIN_SPEEDUP``× faster
than the cold one and performed zero pass executions and zero compiler
invocations.

Usage::

    PYTHONPATH=src python benchmarks/warm_start.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time

MIN_SPEEDUP = 5.0
WORKLOADS = ["gat", "softras"]
BACKEND = "c"

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
OUT_PATH = os.path.join(RESULTS_DIR, "warm_start.json")

_SNIPPET = """
import json, time
import repro as ft
# the compile path imports lazily; pull it in before the timer so the
# measurement is compile work, not module loading (identical either way)
import repro.autosched, repro.cache, repro.pipeline, repro.schedule
from repro.codegen import ccode
from repro.runtime.driver import build
from repro.workloads import {name}
prog = {name}.make_program()
t0 = time.perf_counter()
exe = build(prog, backend={backend!r}, optimize=True)
dt = time.perf_counter() - t0
stats = ft.compile_cache_stats()
print(json.dumps({{
    "compile_s": dt,
    "pass_misses": stats["passes"]["misses"],
    "disk_hits": stats["passes"]["disk_hits"],
    "gcc_runs": stats["disk"]["gcc_runs"],
}}))
"""


def _run(name: str, cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    out = subprocess.run(
        [sys.executable, "-c",
         _SNIPPET.format(name=name, backend=BACKEND)],
        env=env, text=True, capture_output=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    results = {}
    failed = False
    with tempfile.TemporaryDirectory(prefix="repro_warm_start_") as root:
        for name in WORKLOADS:
            cache_dir = os.path.join(root, name)
            cold = _run(name, cache_dir)
            warm = _run(name, cache_dir)
            speedup = cold["compile_s"] / max(warm["compile_s"], 1e-9)
            results[name] = {
                "cold_s": round(cold["compile_s"], 4),
                "warm_s": round(warm["compile_s"], 4),
                "speedup": round(speedup, 2),
                "warm_pass_misses": warm["pass_misses"],
                "warm_disk_hits": warm["disk_hits"],
                "warm_gcc_runs": warm["gcc_runs"],
            }
            ok = (speedup >= MIN_SPEEDUP and warm["pass_misses"] == 0
                  and warm["gcc_runs"] == 0)
            print(f"{name}: cold {cold['compile_s']:.3f}s -> warm "
                  f"{warm['compile_s']:.3f}s ({speedup:.1f}x)"
                  f"{' OK' if ok else ' FAIL'}")
            if not ok:
                failed = True
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OUT_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {OUT_PATH}")
    if failed:
        print(f"FAIL: warm start must be >={MIN_SPEEDUP}x faster with "
              "zero pass executions and zero gcc runs")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
