"""``compile_cold`` and ``compile_warm``: compile -> first result, in a
fresh interpreter per operation (see ``compile_child.py``).

``compile_cold`` gives every child an empty artifact store, so frontend,
ad, the pipeline passes, dependence analysis, codegen and gcc do all the
work. ``compile_warm`` populates one store in set-up and gives it to every
child: the same programs, but the cache layer is used the other way round
(reads, parse and ``dlopen`` instead of stores) and passes and gcc must do
nothing. A gain bought by more work at store time shows on
``compile_cold``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import harness

CHILD = os.path.join(harness.HERE, "compile_child.py")
CHILD_TIMEOUT_S = 150

#: what must repeat exactly from child to child (the compiler is
#: deterministic; only times may differ)
EXACT = (("source_bytes",), ("tape_bytes",), ("passes", "misses"),
         ("passes", "hits"), ("disk", "gcc_runs"), ("disk", "ir_stores"),
         ("deps", "misses"), ("omega", "full_solves"))


def run_child(store: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=store)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, "--seed", str(seed),
             "--traced", str(int(traced))],
            env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timeout", "t_spawn": t0}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"ok": False, "error": proc.stderr[-2000:], "t_spawn": t0}
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["t_spawn"] = t0
    return rep


def exact_counters(rep: dict) -> tuple:
    out = []
    for path in EXACT:
        v = rep
        for k in path:
            v = v[k]
        out.append(v)
    return tuple(out)


def child_failed(rep: dict, warm: bool) -> bool:
    if not rep.get("ok"):
        return True
    disk, passes = rep["disk"], rep["passes"]
    if warm:
        # a warm child that runs gcc or executes a pass is a failed
        # operation: the store did not do its job
        return bool(disk["gcc_runs"] or passes["misses"])
    # a "cold" child that found a compiled kernel was not cold
    return not disk["gcc_runs"] or bool(disk["native_hits"])


def layers_from(rep: dict, store_bytes: int) -> dict:
    ms = {k: v * 1e3 for k, v in rep["layer_s"].items()}
    groups = rep["compile_groups_s"]
    disk, passes = rep["disk"], rep["passes"]
    return {
        "repro.import_ms": ms.get("repro.import", 0.0),
        "frontend.stage_ms": ms.get("frontend.stage", 0.0),
        "ad.grad_transform_ms": ms.get("ad.grad_transform", 0.0),
        "ad.tape_bytes": rep["tape_bytes"],
        "pipeline.autosched_rules_ms":
            groups.get("autosched_rules", 0.0) * 1e3,
        "pipeline.lowering_ms": groups.get("lowering", 0.0) * 1e3,
        "pipeline.legalize_ms": groups.get("legalize", 0.0) * 1e3,
        "pipeline.pass_runs": passes["misses"],
        "pipeline.pass_cache_hits": passes["hits"],
        "pipeline.pass_disk_hits": passes["disk_hits"],
        "analysis.deps_hits": rep["deps"]["hits"],
        "analysis.deps_misses": rep["deps"]["misses"],
        "polyhedral.omega_full_solves": rep["omega"]["full_solves"],
        "polyhedral.omega_memo_hits": rep["omega"]["memo_hits"],
        "codegen.c_total_ms": groups.get("codegen", 0.0) * 1e3,
        "codegen.gcc_ms": disk["gcc_time_s"] * 1e3,
        "codegen.gcc_runs": disk["gcc_runs"],
        "codegen.source_bytes": rep["source_bytes"],
        "cache.lookup_ms": disk["lookup_time_s"] * 1e3,
        "cache.store_ms": disk["store_time_s"] * 1e3,
        "cache.ir_hits": disk["ir_hits"],
        "cache.ir_misses": disk["ir_misses"],
        "cache.ir_stores": disk["ir_stores"],
        "cache.native_hits": disk["native_hits"],
        "cache.store_bytes": store_bytes,
    }


def run(ctx: harness.Run):
    warm = ctx.workload == "compile_warm"
    shared = os.path.join(ctx.rundir, "store")
    # set-up is one cold child either way: for compile_warm it populates
    # the store; for compile_cold it is discarded, having shown that the
    # toolchain works and filled the page cache and the .pyc files
    first = run_child(shared, ctx.seed, traced=False)
    if child_failed(first, warm=False):
        raise RuntimeError(f"first child failed: {first.get('error', first)}")
    ctx.extra["setup_child_s"] = first["product_s"]
    if not warm:
        shutil.rmtree(shared)
    ctx.setup_done()

    min_children = 3 if warm else 2
    reports = []
    store_bytes = 0
    t_phase = time.perf_counter()
    while (len(reports) < min_children
           or time.perf_counter() - t_phase < ctx.seconds):
        # traced runs alternate untraced and traced children
        traced = ctx.trace and len(reports) % 2 == 1
        store = shared if warm else os.path.join(
            ctx.rundir, f"store-{len(reports)}")
        rep = run_child(store, ctx.seed, traced)
        rep["traced"] = traced
        reports.append(rep)
        store_bytes = harness.dir_bytes(store)
        if not warm:
            shutil.rmtree(store, ignore_errors=True)

    failed = [r for r in reports if child_failed(r, warm)]
    good = [r for r in reports if r not in failed]
    ctx.count(len(reports), len(failed))
    ctx.extra["errors"] = [
        r.get("error") or {k: r[k] for k in ("checks", "disk", "passes")}
        for r in failed]
    untraced = [r["product_s"] for r in good if not r["traced"]]
    if not untraced:
        raise RuntimeError(f"no good child: {ctx.extra['errors']}")

    ctx.extra["deterministic"] = \
        len({exact_counters(r) for r in good}) == 1
    ctx.extra["exact_counters"] = dict(zip(
        (".".join(p) for p in EXACT), exact_counters(good[0])))
    ctx.extra["child_product_s"] = [r["product_s"] for r in good]
    ctx.extra["child_wall_s"] = [r["wall_s"] for r in good]
    ctx.set_rate_metrics(min(untraced) * 1e3)
    ctx.e2e["peak_rss_mb"] = max(r["rss_mb"] for r in good)
    if not ctx.trace:
        return

    traced_reps = [r for r in good if r["traced"]]
    if not traced_reps:
        raise RuntimeError(f"no good traced child: {ctx.extra['errors']}")
    rep = min(traced_reps, key=lambda r: r["product_s"])
    ctx.layers.update(layers_from(rep, store_bytes))
    ctx.layers["bench.noise_ratio"] = harness.noise_ratio(
        [r["product_s"] for r in good])
    ctx.layers["bench.trace_overhead_share"] = \
        rep["product_s"] / min(untraced) - 1.0
    ctx.extra["layer_coverage"] = \
        sum(rep["layer_s"].values()) / rep["product_s"]
    for r in traced_reps:
        offset = (r["t_spawn"] - ctx.t_process) * 1e6
        for ev in r["events"]:
            ev["ts"] += offset
        ctx.tracer.add_foreign(r["events"])
