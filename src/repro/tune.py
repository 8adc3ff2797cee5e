"""CLI: ``python -m repro.tune <workload> [...]``.

Runs a tuning session on one of the paper workloads and prints the
winner: best measured time, screening/pool counters, and the replayable
schedule trace. The search is the structured knob-space searcher
(``repro.autosched.search.StructuredTuner``).

Examples::

    PYTHONPATH=src python -m repro.tune gat --rounds 24 --workers 2
    PYTHONPATH=src python -m repro.tune longformer --batch 8 --topk 4
    PYTHONPATH=src python -m repro.tune softras --json --trace out.json

Exits non-zero if the session measured nothing (every candidate failed).
"""

from __future__ import annotations

import argparse
import json
import sys


def _workload_inputs(mod, func):
    """(args, scalars) for a workload: program params come from the
    module's default ``make_data()`` dict by name; int-valued entries
    (e.g. longformer's window) are scalar keyword params."""
    data = mod.make_data()
    args = tuple(data[p] for p in func.params)
    scalars = {k: v for k, v in data.items() if isinstance(v, int)}
    return args, scalars


def main(argv=None) -> int:
    from .autosched import StructuredTuner
    from .backend import available_backends
    from .runtime import metrics
    from .schedule import Schedule
    from .workloads import ALL

    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Tune a paper workload and report the best schedule.")
    parser.add_argument("workload", choices=sorted(ALL),
                        help="which workload to tune")
    parser.add_argument("--backend", default="pycode",
                        choices=available_backends(),
                        help="measurement backend (default: pycode)")
    parser.add_argument("--rounds", type=int, default=32,
                        help="candidate budget (default: 32)")
    parser.add_argument("--workers", type=int, default=None,
                        help="measurement worker processes (default: 1)")
    parser.add_argument("--batch", type=int, default=16,
                        help="assignments per generation (default: 16)")
    parser.add_argument("--topk", type=int, default=None,
                        help="measured survivors per generation "
                             "(default: batch/4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="min-of-N measurement repeats (default: 3)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the winning ScheduleTrace as JSON "
                             "({prim, args} steps; statements as "
                             "{\"$stmt\": pre-order index})")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print a JSON report instead of text")
    args = parser.parse_args(argv)

    mod = ALL[args.workload]
    prog = mod.make_program()
    base = Schedule(prog).func
    inputs, scalars = _workload_inputs(mod, base)

    result = StructuredTuner(
        prog, make_inputs=lambda: inputs, backend=args.backend,
        rounds=args.rounds, batch=args.batch, topk=args.topk,
        seed=args.seed, repeats=args.repeats, scalars=scalars,
        workers=args.workers).tune()

    trace_json = result.best_trace.as_json() \
        if result.best_trace is not None else None
    report = {
        "workload": args.workload,
        "backend": args.backend,
        "rounds": result.rounds,
        "measured": result.measured,
        "dedup_skips": result.dedup_skips,
        "cost_pruned": result.cost_pruned,
        "frontier_skips": result.frontier_skips,
        "invalid": result.invalid,
        "timeouts": result.timeouts,
        "best_time_s": result.best_time,
        "tuner_wall_s": round(result.total_time, 4),
        "trace": trace_json,
        "pool": metrics.pool_stats(),
        "search": metrics.search_stats(),
    }

    if args.trace:
        with open(args.trace, "w") as f:
            json.dump(trace_json, f, indent=2)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        r = result
        print(f"{args.workload} [{args.backend}]: "
              f"best {r.best_time * 1e3:.3f} ms after {r.rounds} rounds "
              f"({r.measured} measured, {r.dedup_skips} dedup, "
              f"{r.cost_pruned} cost-pruned, {r.frontier_skips} "
              f"frontier-skipped, {r.invalid} invalid, {r.timeouts} "
              f"timeouts; wall {r.total_time:.2f} s)")
        if r.best_trace is not None and len(r.best_trace):
            print("winning schedule:")
            for line in r.best_trace.summary().splitlines():
                print(f"  {line}")
        elif r.best_trace is not None:
            print("winning schedule: the unscheduled base")
        if args.trace:
            print(f"trace written to {args.trace}")

    return 0 if result.measured else 1


if __name__ == "__main__":
    sys.exit(main())
