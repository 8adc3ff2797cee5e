"""A/B benchmark of the tuner's cost-model screening front-end.

For every paper workload, runs the same tuning session twice — identical
seed, rounds and candidate stream — once with the screening front-end
disabled (``REPRO_NO_COST_PRUNE=1``: every candidate is compiled and
measured, the pre-cost-model behaviour) and once with structural dedup +
dominance pruning on. Writes ``benchmarks/results/cost_prune_ab.json``
and fails — exit code 1 — unless, on **every** workload:

- the screened session compiles+measures at least ``MIN_SAVINGS`` fewer
  candidates, and
- its chosen schedule is as fast as the unscreened session's choice
  (head-to-head re-measurement of the two winners, ``TOLERANCE`` head
  room for timer noise).

Usage::

    PYTHONPATH=src python benchmarks/cost_prune_ab.py
"""

import json
import os
import sys
import time

os.environ["REPRO_NO_DISK_CACHE"] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import MODULES, TINY, ft_args  # noqa: E402

from repro.autosched import RandomTuner  # noqa: E402
from repro.ir.hashing import struct_hash  # noqa: E402
from repro.runtime import metrics  # noqa: E402
from repro.runtime.driver import build  # noqa: E402

ROUNDS = 24
REPEATS = 3
SEED = 0
#: required reduction in compiled+measured candidates (>= 30%)
MIN_SAVINGS = 0.30
#: head-to-head noise allowance for "equal-or-better"
TOLERANCE = 1.10
#: head-to-head re-measurement repeats (min-of)
HEAD_TO_HEAD = 7

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
OUT_PATH = os.path.join(RESULTS_DIR, "cost_prune_ab.json")


def tune_once(name, prune: bool):
    mod = MODULES[name]
    data = mod.make_data(**TINY[name])
    args, kwargs = ft_args(name, data)
    if prune:
        os.environ.pop("REPRO_NO_COST_PRUNE", None)
    else:
        os.environ["REPRO_NO_COST_PRUNE"] = "1"
    tuner = RandomTuner(mod.make_program(), make_inputs=lambda: args,
                        backend="pycode", rounds=ROUNDS, seed=SEED,
                        repeats=REPEATS, scalars=kwargs)
    t0 = time.perf_counter()
    result = tuner.tune()
    wall = time.perf_counter() - t0
    os.environ.pop("REPRO_NO_COST_PRUNE", None)
    return result, wall, (args, kwargs)


def head_to_head(func, args, kwargs):
    exe = build(func, backend="pycode")
    exe(*args, **kwargs)  # warm-up
    best = float("inf")
    for _ in range(HEAD_TO_HEAD):
        t0 = time.perf_counter()
        exe(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    out = {}
    failures = []
    for name in sorted(MODULES):
        metrics.reset_tuner_stats()
        full, full_wall, (args, kwargs) = tune_once(name, prune=False)
        pruned, pruned_wall, _ = tune_once(name, prune=True)
        assert full.rounds == pruned.rounds == ROUNDS
        assert full.dedup_skips == 0 and full.cost_pruned == 0

        savings = 1.0 - pruned.measured / max(1, full.measured)
        same_winner = struct_hash(pruned.best_func) == \
            struct_hash(full.best_func)
        if same_winner:
            t_full = t_pruned = head_to_head(full.best_func, args,
                                             kwargs)
        else:
            t_full = head_to_head(full.best_func, args, kwargs)
            t_pruned = head_to_head(pruned.best_func, args, kwargs)

        row = {
            "rounds": ROUNDS,
            "measured_full": full.measured,
            "measured_pruned": pruned.measured,
            "dedup_skips": pruned.dedup_skips,
            "cost_pruned": pruned.cost_pruned,
            "measure_savings": round(savings, 4),
            "tuner_wall_full_s": round(full_wall, 4),
            "tuner_wall_pruned_s": round(pruned_wall, 4),
            "best_full_s": full.best_time,
            "best_pruned_s": pruned.best_time,
            "same_winner": same_winner,
            "head_to_head_full_s": t_full,
            "head_to_head_pruned_s": t_pruned,
        }
        out[name] = row
        print(f"{name:12s} measured {full.measured} -> "
              f"{pruned.measured} ({savings:.0%} fewer; "
              f"{pruned.dedup_skips} dedup + {pruned.cost_pruned} "
              f"pruned), best {t_full * 1e3:.3f} ms -> "
              f"{t_pruned * 1e3:.3f} ms"
              f"{' (same winner)' if same_winner else ''}")

        if savings < MIN_SAVINGS:
            failures.append(
                f"{name}: only {savings:.0%} fewer measurements "
                f"(need >= {MIN_SAVINGS:.0%})")
        if t_pruned > t_full * TOLERANCE:
            failures.append(
                f"{name}: screened winner is slower "
                f"({t_pruned * 1e3:.3f} ms vs {t_full * 1e3:.3f} ms)")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OUT_PATH, "w") as f:
        json.dump(out, f, indent=2)
    print(f"\nwrote {OUT_PATH}")
    if failures:
        print("\nFAIL:")
        for msg in failures:
            print(" ", msg)
        return 1
    print("OK: screening saves >= "
          f"{MIN_SAVINGS:.0%} of measurements on every workload "
          "without losing the winner")
    return 0


if __name__ == "__main__":
    sys.exit(main())
