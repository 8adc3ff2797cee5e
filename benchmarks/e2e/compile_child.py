"""One fresh interpreter that compiles the 7-program set and gets a
verified first result from each: the operation of ``compile_cold`` and
``compile_warm``. Run by ``w_compile.py`` with ``REPRO_CACHE_DIR`` set.

A fresh process per sample is required: ``codegen/ccode.py`` resolves its
native directory once per process, so re-pointing ``REPRO_CACHE_DIR`` and
clearing the caches in-process silently skips gcc from the second sample
on.

Prints one JSON object. ``product_s`` is the time from the first import
to the last first result, without input generation and the NumPy oracle
(the benchmark's own work); it is the sum of the top-level spans below.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import programs as P  # noqa: E402

LOWERING = {"flatten", "make_reduction", "simplify", "cleanup", "prune",
            "codegen_prep"}


def group_compile_times(times: dict, into: dict):
    """Fold one Executable.compile_times into the per-layer groups."""
    for name, dt in times.items():
        if name.startswith("auto"):
            key = "autosched_rules"
        elif name in LOWERING:
            key = "lowering"
        elif name == "codegen":
            key = "codegen"
        elif name in ("verify", "daemon"):
            key = "other"
        else:
            key = "legalize"
        into[key] = into.get(key, 0.0) + dt


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    traced = bool(args.traced)

    sys.path.insert(0, harness.SRC)
    tr = harness.Tracer()
    t_origin = time.perf_counter()

    with tr.span("repro.import"):
        import numpy as np  # noqa: F401
        import repro
        # the compile path imports lazily; load it here so that the
        # build spans are compile work, not module loading
        import repro.autosched  # noqa: F401
        import repro.cache  # noqa: F401
        import repro.pipeline  # noqa: F401
        import repro.schedule  # noqa: F401
        from repro.ad import GradExecutable, grad
        from repro.backend import get_backend
        from repro.codegen import ccode  # noqa: F401
        from repro.pipeline import compile_ir
        from repro.runtime.driver import Executable, build

    checks = {}
    groups = {}
    source_bytes = 0
    tape_bytes = 0

    for name in P.PROGRAMS:
        mod = P.module(name)
        data = mod.make_data(seed=args.seed, **P.SIZES[name])
        call, scalars = P.call_args(name, data)
        out_ref = P.forward_ref(name, data)

        with tr.span("frontend.stage", op=name):
            prog = mod.make_program()
        if traced:
            times = {}
            with tr.span("pipeline.compile_ir", op=name):
                func = compile_ir(prog.func, backend="c", optimize=True,
                                  times=times)
            with tr.span("backend.c.build", op=name):
                t0 = time.perf_counter()
                run_fn = get_backend("c").build(func)
                times["codegen"] = time.perf_counter() - t0
            with tr.span("runtime.driver.Executable", op=name):
                exe = Executable(func, run_fn, "c", compile_times=times)
        else:
            with tr.span("runtime.driver.build", op=name):
                exe = build(prog, backend="c", optimize=True)
        with tr.span("runtime.driver.first_call", op=name):
            out = exe(*call, **scalars)
        checks[name] = P.check_forward(out, out_ref)
        group_compile_times(exe.compile_times, groups)
        source_bytes += len(exe.source or "")

        if name not in P.GRAD_REQUIRES:
            continue
        g_refs = P.grad_refs(name, data, out_ref)
        with tr.span("frontend.stage", op=name + ".grad"):
            prog = mod.make_program()
        with tr.span("ad.grad_transform", op=name + ".grad"):
            gp = grad(prog, requires=P.GRAD_REQUIRES[name])
        with tr.span("ad.GradExecutable", op=name + ".grad"):
            gexe = GradExecutable(gp, backend="c")
        with tr.span("runtime.driver.first_call", op=name + ".grad"):
            out = gexe(*call, **scalars)
            grads = gexe.backward()
        checks[name + ".grad"] = P.check_grad(out, grads, out_ref, g_refs)
        for exe in (gexe.fwd_exe, gexe.bwd_exe):
            group_compile_times(exe.compile_times, groups)
            source_bytes += len(exe.source or "")
        tape_bytes += gexe.tape_bytes

    t_end = time.perf_counter()
    stats = repro.compile_cache_stats()
    top_level = sum(t1 - t0 for _n, t0, t1, parent, *_ in tr.spans
                    if parent < 0)
    report = {
        "ok": all(checks.values()),
        "checks": checks,
        "product_s": top_level,
        "wall_s": t_end - T_START,
        "layer_s": tr.self_times(),
        "compile_groups_s": groups,
        "source_bytes": source_bytes,
        "tape_bytes": tape_bytes,
        "passes": stats["passes"],
        "deps": stats["deps"],
        "omega": stats["omega"],
        "disk": stats["disk"],
        "rss_mb": harness.self_rss_mb(),
        "events": tr.events(t_origin=t_origin) if traced else [],
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
