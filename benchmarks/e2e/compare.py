"""Compare two sets of runs written by ``run.py --all --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

Applies the bounds of BENCHMARK.json to every end-to-end metric x
workload and prints one row per pair: both medians, B's best run, the
spread (distance between the quartiles as a share of the median, the
wider of the two sets) and a verdict:

- ``regressed``  B's median is worse than A's by more than the bound, or
  B failed a larger share of its operations than A;
- ``unresolved`` the spread exceeds the bound, so "no change" cannot be
  told from a change of the bound's size (unless every run of B is better
  than every run of A);
- ``ok``         otherwise.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness


def load_runs(path: str) -> dict:
    """workload -> list of untraced run records."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for run in doc["runs"]:
        if not run["header"]["trace"]:
            out.setdefault(run["header"]["workload"], []).append(run)
    return out


def verdict(a, b, better: str, bound: float):
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / med_a
    spread = max(harness.iqr_share(a), harness.iqr_share(b))
    best = min(b) if better == "lower" else max(b)
    all_better = (max(b) < min(a)) if better == "lower" \
        else (min(b) > max(a))
    if worse > bound:
        word = "regressed"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "ok"
    return med_a, med_b, best, spread, worse, word


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = harness.load_spec()
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    print(f"{'workload':13s} {'metric':17s} {'median A':>12s} "
          f"{'median B':>12s} {'best B':>12s} {'spread':>7s} "
          f"{'B worse by':>10s} {'bound':>6s}  verdict")
    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in runs_a or name not in runs_b:
            print(f"{name:13s} missing from one set")
            regressed = True
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a[name]]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b[name]]
            med_a, med_b, best, spread, worse, word = verdict(
                a, b, m["better"], m["bound"])
            regressed |= word == "regressed"
            print(f"{name:13s} {m['name']:17s} {med_a:12.5g} "
                  f"{med_b:12.5g} {best:12.5g} {spread:7.1%} "
                  f"{worse:+10.1%} {m['bound']:6.0%}  {word}")
        share = [sum(r["failed"] for r in runs) /
                 sum(r["attempted"] for r in runs)
                 for runs in (runs_a[name], runs_b[name])]
        word = "regressed" if share[1] > share[0] else "ok"
        regressed |= word == "regressed"
        print(f"{name:13s} {'fail_share':17s} {share[0]:12.5g} "
              f"{share[1]:12.5g} {'':12s} {'':7s} {'':10s} {'+0':>6s}  "
              f"{word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
