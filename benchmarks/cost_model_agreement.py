"""Rank agreement between the static cost model and real measurements.

For every paper workload, samples a set of structurally distinct
candidate schedules (random points of the tuner's knob space), computes
each candidate's static ``time_proxy`` and measures its actual runtime,
then checks Spearman rank correlation between the two orderings. The
cost model only needs to *rank* candidates for dominance pruning and
FT5xx lint to be useful — absolute scale is irrelevant — so rank
agreement is the right fidelity metric.

Writes ``benchmarks/results/cost_model_agreement.json`` and fails —
exit code 1 — if the mean Spearman rho over the workloads drops below
``MIN_MEAN_RHO``.

Usage::

    PYTHONPATH=src python benchmarks/cost_model_agreement.py
"""

import json
import os
import random
import sys

os.environ["REPRO_NO_DISK_CACHE"] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import MODULES, TINY, ft_args  # noqa: E402

from repro.autosched.search.measure import measure_once  # noqa: E402
from repro.autosched.search.screen import CandidateScreen  # noqa: E402
from repro.autosched.search.space import ScheduleSpace  # noqa: E402
from repro.autosched.target import default_target  # noqa: E402
from repro.errors import FreeTensorError  # noqa: E402
from repro.ir.hashing import struct_hash  # noqa: E402
from repro.schedule import Schedule  # noqa: E402

#: distinct candidates to sample per workload
SAMPLE = 12
#: candidate-generation attempts before giving up on reaching SAMPLE
MAX_DRAWS = 200
REPEATS = 5
#: full measurement passes over the candidate list; the per-candidate
#: time is the min across passes, so slow drift (thermal, scheduler)
#: decorrelates from candidate order
PASSES = 3
SEED = 0
MIN_MEAN_RHO = 0.6

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
OUT_PATH = os.path.join(RESULTS_DIR, "cost_model_agreement.json")


def average_ranks(xs):
    """Ranks 1..n with ties sharing their average rank."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys):
    rx, ry = average_ranks(xs), average_ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def sample_candidates(space, rng):
    """Structurally distinct candidates, the base schedule included."""
    cands = [space.base]
    seen = {struct_hash(space.base)}
    draws = 0
    while len(cands) < SAMPLE and draws < MAX_DRAWS:
        draws += 1
        try:
            c, _trace = space.realize(space.random_assignment(rng))
        except FreeTensorError:
            continue
        h = struct_hash(c)
        if h not in seen:
            seen.add(h)
            cands.append(c)
    return cands


def main():
    out = {}
    rhos = []
    for name in sorted(MODULES):
        mod = MODULES[name]
        data = mod.make_data(**TINY[name])
        args, kwargs = ft_args(name, data)
        base = Schedule(mod.make_program()).func
        target = default_target("pycode")
        space = ScheduleSpace.extract(base, "pycode", target)
        screen = CandidateScreen(base, lambda: args, "pycode", target,
                                 kwargs)
        cands = sample_candidates(space, random.Random(SEED))
        proxies = [screen.estimate(c).time_proxy for c in cands]
        measured = [float("inf")] * len(cands)
        for _ in range(PASSES):
            for i, c in enumerate(cands):
                measured[i] = min(measured[i], measure_once(
                    c, "pycode", args, kwargs, REPEATS))
        rho = spearman(proxies, measured)
        rhos.append(rho)
        out[name] = {
            "candidates": len(cands),
            "spearman_rho": round(rho, 4),
            "proxy": [round(p, 1) for p in proxies],
            "measured_s": measured,
        }
        print(f"{name:12s} rho={rho:+.3f} over {len(cands)} candidates")

    mean_rho = sum(rhos) / len(rhos)
    out["mean_rho"] = round(mean_rho, 4)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OUT_PATH, "w") as f:
        json.dump(out, f, indent=2)
    print(f"\nmean rho {mean_rho:+.3f} (gate >= {MIN_MEAN_RHO}); "
          f"wrote {OUT_PATH}")
    if mean_rho < MIN_MEAN_RHO:
        print("FAIL: cost model ranks candidates worse than the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
