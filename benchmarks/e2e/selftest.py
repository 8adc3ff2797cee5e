"""``run.py --selftest``: the benchmark checks itself, every workload at
minimum length (about a minute and a half on the sizing host).

- BENCHMARK.json is within the limits of the benchmark contract;
- each workload, untraced and traced, prints a last line with exactly
  the keys ``correct``, ``attempted``, ``failed``, ``metrics``, the
  metrics being exactly the declared ones with their units, no operation
  failed, and every per-layer metric is measured by some workload;
- a deliberately corrupted response and a forced rejection are counted
  as failed operations;
- two ``tune_search`` sweeps and two cold compile children give identical
  counters and ``codegen.source_bytes``;
- every traced run leaves a loadable Chrome-trace file, and where the
  traced operations nest on one thread the layer spans cover at least
  90% of their time.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
SECONDS = "1"


def check_spec(spec: dict) -> list:
    errors = []

    def need(cond, what):
        if not cond:
            errors.append(what)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "top-level keys")
    need(os.path.getsize(harness.SPEC_PATH) <= 64 * 1024, "file size")
    need(1 <= len(spec["paths"]) <= 16
         and all(PATH.match(p) and not p.startswith("/") and ".." not in p
                 for p in spec["paths"]), "paths")
    need(1 <= len(spec["command"]) <= 32
         and all(isinstance(c, str) and len(c) <= 200
                 for c in spec["command"]), "command")
    need(isinstance(spec["run_seconds"], int)
         and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(spec["workloads"]) <= 8, "workload count")
    need(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    need(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {w}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"],
             f"why of {w['name']}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"},
             f"end_to_end keys {m}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        need(UNIT.match(m["unit"]), f"unit of {m['name']}")
        need(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        names.append(m["name"])
    need(all(NAME.match(n) for n in names), "a name's form")
    need(len(set(names)) == len(names), "a name is used twice")
    need(any(m["name"] == "setup_s" and m["unit"] == "s"
             and m["better"] == "lower" for m in spec["end_to_end"]),
         "setup_s")
    runs = 4 + 22 * len(spec["workloads"])
    need(runs * (spec["run_seconds"] + 8) <= 3420,
         "run_seconds leaves no room for set-up within 3420 s")
    return errors


def run_once(workload: str, trace: int, fault=None):
    """-> (last-line record, --out record or None, return code)."""
    out = os.path.join(harness.OUT, "tmp", f"selftest-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = [sys.executable, os.path.join(harness.HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--out", out]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        return None, None, proc.returncode
    last = json.loads(proc.stdout.splitlines()[-1])
    with open(out) as f:
        full = json.load(f)
    os.unlink(out)
    return last, full, 0


def main() -> int:
    spec = harness.load_spec()
    failures = list(check_spec(spec))
    measured = set()

    def need(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            print(f"{name} --trace {trace}", flush=True)
            last, full, code = run_once(name, trace)
            if code:
                need(False, f"{name} trace={trace} exits 0")
                continue
            need(set(last) == {"correct", "attempted", "failed",
                               "metrics"}, "last line has the four keys")
            need({k: v["unit"] for k, v in last["metrics"].items()} ==
                 {m["name"]: m["unit"] for m in declared},
                 "exactly the declared metrics, with units")
            need(all(isinstance(v["value"], (int, float))
                     for v in last["metrics"].values()), "numeric values")
            need(last["correct"] and last["failed"] == 0
                 and last["attempted"] >= 1, "no operation failed")
            extra = full["extra"]
            if "deterministic" in extra:
                need(extra["deterministic"],
                     f"counters repeat exactly: {extra['exact_counters']}")
            if not trace:
                need(all(v["value"] > 0 for v in last["metrics"].values()),
                     "no end-to-end metric is 0")
                continue
            measured |= set(full["layers_reported"])
            with open(os.path.join(harness.ROOT, extra["trace_file"])) as f:
                events = json.load(f)["traceEvents"]
            need(len(events) > 0 and all(e["ph"] == "X" for e in events),
                 f"Chrome trace loads ({len(events)} spans)")
            if "layer_coverage" in extra:
                need(extra["layer_coverage"] >= 0.9,
                     f"layer spans cover {extra['layer_coverage']:.1%} "
                     "of the traced operations")
    missing = {m["name"] for m in spec["per_layer"]} - measured
    need(not missing, f"every per-layer metric is measured ({missing})")

    for workload, fault in (("serve_burst", "corrupt"),
                            ("serve_burst", "reject"),
                            ("serve_paced", "reject")):
        print(f"{workload} --fault {fault}", flush=True)
        last, _full, code = run_once(workload, 0, fault)
        need(code == 0 and last["failed"] > 0 and not last["correct"],
             "the fault is counted as failed operations")

    print(f"selftest: {len(failures)} failure(s)")
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0
