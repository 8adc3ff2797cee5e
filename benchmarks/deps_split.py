"""Where a tune_search sweep's dependence time goes.

Reproduces the per-sweep split in ``docs/PERFORMANCE.md`` (section 3):
the four sessions of the end-to-end ``tune_search`` workload
(``benchmarks/e2e/w_tune.py``: compile-only, ``REPRO_TUNE_FAKE_MEASURE=1``,
seed 1), each sweep from cleared caches, with ``perf_counter`` wrappers
(no profiler) around the dependence layers. Prints, per layer, the
minimum over the sweeps of the milliseconds one sweep spends in it; a
layer the sources under test do not have prints ``-``. Point
``PYTHONPATH`` at another checkout's ``src`` to compare two trees:

    PYTHONPATH=src python benchmarks/deps_split.py [--sweeps 8]

Layers: ``find`` (every query), ``uncached`` (queries the pair memo
misses), ``systems`` (per-access systems: ``_Local`` builds, or the old
per-pair ``_domain``), ``entry`` (``feasible_rows``, the solver entry
the analyser calls, solve included), ``_translate`` (the tightening of the
``Linearizer`` rows other callers hand ``is_feasible`` / ``any_feasible``)
and ``_solve`` (outermost calls only). Last, ``refuted`` counts the pairs
of one sweep that a stage short of the whole system refuted (the
``deps.refuted`` counter; ``-`` where the analyser has no stages).
"""

import argparse
import os
import sys
import time

os.environ["REPRO_TUNE_FAKE_MEASURE"] = "1"
os.environ["REPRO_NO_DISK_CACHE"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))

import programs as P  # noqa: E402
import w_tune  # noqa: E402
from repro.analysis import deps  # noqa: E402
from repro.polyhedral import omega  # noqa: E402

LAYERS = ("find", "uncached", "systems", "entry", "_translate", "_solve")
spent = {}


def _wrap(owner, name, layer, static=False):
    fn = getattr(owner, name, None)
    if fn is None:
        return
    spent[layer] = 0.0
    depth = [0]

    def timed(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                spent[layer] += time.perf_counter() - t0
    setattr(owner, name, staticmethod(timed) if static else timed)


class _Run:
    """The slice of ``harness.Run`` that ``w_tune.sweep`` reports into."""

    failed = 0
    extra: dict = {}

    def count(self, _attempted, failed):
        self.failed += failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sweeps", type=int, default=8)
    args = ap.parse_args()
    _wrap(deps.DepAnalyzer, "find", "find")
    _wrap(deps.DepAnalyzer, "_dep_exists_uncached", "uncached")
    _wrap(deps, "_Local", "systems")
    _wrap(deps.DepAnalyzer, "_domain", "systems", static=True)
    _wrap(deps, "feasible_rows", "entry")
    _wrap(omega, "_translate", "_translate")
    _wrap(omega, "_solve", "_solve")
    sessions = [w_tune.Session(name, 1) for name in P.PROGRAMS]
    run = _Run()
    w_tune.sweep(sessions, run)  # imports and first-use work
    best = dict.fromkeys(LAYERS + ("sweep",), float("inf"))
    for _ in range(args.sweeps):
        spent.update(dict.fromkeys(spent, 0.0))
        before = deps.analysis_cache_stats().get("refuted")
        t0 = time.perf_counter()
        w_tune.sweep(sessions, run)
        spent["sweep"] = time.perf_counter() - t0
        for layer, dt in spent.items():
            best[layer] = min(best[layer], dt)
    if run.failed:
        raise SystemExit(f"{run.failed} sessions failed")
    refuted = "-" if before is None else \
        deps.analysis_cache_stats()["refuted"] - before
    print(" ".join(f"{k} {'-' if v == float('inf') else f'{v * 1e3:.0f}'}"
                   for k, v in best.items()), "refuted", refuted)


if __name__ == "__main__":
    main()
