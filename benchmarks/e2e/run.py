"""The end-to-end benchmark: one workload per process.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--out FILE]
    python3 benchmarks/e2e/run.py --all --runs 10 --out SET.json
    python3 benchmarks/e2e/run.py --selftest

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. See README.md beside this file.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

#: workload name -> module that runs it
WORKLOADS = {
    "compile_cold": "w_compile",
    "compile_warm": "w_compile",
    "call_steady": "w_call",
    "tune_search": "w_tune",
    "serve_burst": "w_serve",
    "serve_paced": "w_serve",
}

#: extra REPRO_* settings a workload states (beyond REPRO_NO_DAEMON and
#: the private REPRO_CACHE_DIR every workload gets)
WORKLOAD_ENV = {
    # compile-only search, as compile_smoke.py and CI already run it: the
    # trajectory and every counter then repeat exactly
    "tune_search": {"REPRO_TUNE_FAKE_MEASURE": "1",
                    "REPRO_NO_DISK_CACHE": "1"},
}


def run_workload(args) -> int:
    spec = harness.load_spec()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    trace = bool(args.trace)
    with harness.RunDir(args.workload) as rundir:
        harness.scrub_env(rundir, WORKLOAD_ENV.get(args.workload))
        head = harness.header(args.workload, args.seed, args.seconds,
                              trace)
        res = harness.Run(args.workload, args.seed, args.seconds, trace,
                          rundir, T_PROCESS, args.fault)
        importlib.import_module(WORKLOADS[args.workload]).run(res)
    if trace:
        path = os.path.join(harness.OUT, f"trace-{args.workload}.json")
        res.tracer.write(path, head)
        res.extra["trace_file"] = os.path.relpath(path, harness.ROOT)

    res.layers["bench.fail_share"] = res.failed / max(1, res.attempted)
    if trace:
        declared = spec["per_layer"]
        # a layer this workload does not exercise reads 0
        values = {m["name"]: res.layers.get(m["name"], 0) for m in declared}
        unknown = set(res.layers) - set(values)
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: res.e2e[m["name"]] for m in declared}
        unknown = set(res.e2e) - set(values)
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(trace)} commit={head['git_commit'][:12]} "
          f"nproc={head['nproc']} python={head['python']} "
          f"numpy={head['numpy']} gcc={head['gcc']!r}")
    print(f"# env {json.dumps(head['env'])}")
    for name, m in metrics.items():
        if trace and name not in res.layers:
            continue
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for key, value in sorted(res.extra.items()):
        text = json.dumps(value)
        print(f"# {key}: {text if len(text) < 300 else text[:300] + '...'}")
    print(f"# attempted={res.attempted} failed={res.failed} "
          f"wall={time.perf_counter() - T_PROCESS:.1f}s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(record, header=head, extra=res.extra,
                           layers_reported=sorted(res.layers)), f,
                      indent=1)
    print(json.dumps(record))
    return 0


def run_all(args) -> int:
    """Every workload ``--runs`` times (seeds seed, seed+1, ...), each in
    its own process, untraced; then one traced run each. Writes one set
    of runs to ``--out`` for compare.py."""
    spec = harness.load_spec()
    runs = []
    os.makedirs(os.path.join(harness.OUT, "tmp"), exist_ok=True)
    tmp = os.path.join(harness.OUT, "tmp", f"all-{os.getpid()}.json")
    plan = [(w["name"], args.seed + i, 0) for i in range(args.runs)
            for w in spec["workloads"]]
    plan += [(w["name"], args.seed, 1) for w in spec["workloads"]]
    for name, seed, trace in plan:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(trace), "--out", tmp],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return proc.returncode
        with open(tmp) as f:
            runs.append(json.load(f))
        os.unlink(tmp)
        last = json.loads(proc.stdout.splitlines()[-1])
        shown = {k: round(v["value"], 4) for k, v in
                 list(last["metrics"].items())[:4]}
        print(f"{name} seed={seed} trace={trace} "
              f"failed={last['failed']}/{last['attempted']} {shown}",
              flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
    return 0


def main() -> int:
    spec_seconds = None
    try:
        spec_seconds = harness.load_spec()["run_seconds"]
    except (OSError, ValueError, KeyError):
        pass
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--fault", choices=("corrupt", "reject"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds is None:
        print("BENCHMARK.json is missing; pass --seconds",
              file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("one of --workload, --all, --selftest is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
