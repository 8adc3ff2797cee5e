"""The pass manager: compilation as an explicit sequence of Pass objects.

Every compilation in this codebase — ``build()``, the rule-based
auto-scheduler, ``grad()``'s forward/backward lowering, and the
``python -m repro.verify`` CLI — constructs a :class:`Pipeline` and runs
it, instead of calling lowering passes ad hoc. Centralising the pass
sequence buys three things at once:

- **per-pass caching**: each pass's output is memoized under a chain
  key — the sid-inclusive content hash of the pipeline's input extended
  by the names of the passes applied since — so a pipeline whose prefix
  already ran is served from the cache pass by pass. This subsumes the
  old whole-``lower()`` memo at the same cost: warm or cold, a chain
  hashes its input exactly once;
- **per-pass instrumentation**: wall-clock per pass (cumulative process
  counters in ``repro.runtime.metrics.pipeline_stats()`` and per-build
  timings in ``Executable.compile_times``), IR snapshots with unified
  diffs after every pass (``REPRO_DUMP_IR=<dir>``), and between-pass
  verification that attributes any *new* error diagnostic to the pass
  that introduced it (``REPRO_VERIFY_EACH_PASS=1``);
- **target-aware composition**: backends declare the legalization passes
  their code generators require (see ``repro.pipeline.legalize``) and
  the builders in ``repro.pipeline`` append them, so codegen never
  special-cases IR shapes it cannot emit.

The per-pass cache is in-process only. What outlives the process is one
*product record* per public compile entry point (``compile_ir()``, the C
backend's native index, ``grad()``) in the persistent store of
``repro.cache`` (:func:`product_store`; docs/PERFORMANCE.md).

Escape hatches: ``REPRO_NO_MEMO=1`` disables the per-pass cache (with
every other in-process memo, and the product records);
``REPRO_NO_DISK_CACHE=1`` disables the persistent store only.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..errors import VerificationError
from ..ir import Func, dump, struct_hash
from ..state import BoundedMemo, Counters, memos_enabled

#: content-addressed per-pass result cache:
#: ``(pass name, chain key) -> output Func``, where the chain key is the
#: sid-inclusive struct-hash of the pipeline's input joined with the
#: names of the cacheable passes already applied to it. Passes are
#: deterministic and sid-preserving, so the output of pass *k* is a pure
#: function of (input tree, passes 1..k) — deriving keys from the chain
#: instead of hashing every intermediate tree keeps a cold pipeline at
#: exactly one hash of its input (the tuner compiles hundreds of unique
#: candidate schedules; hashing after every pass was measurably slower).
#: Only the *terminal* output of each run's cacheable segment is stored —
#: one retained tree per compiled program, like the old whole-``lower()``
#: memo (keeping every intermediate measurably slowed the tuner through
#: gc pressure alone) — and a warm run jumps to the deepest pass in its
#: chain with an entry. Every consumer treats pass outputs as immutable
#: (schedules rebuild, never mutate in place), so sharing outputs across
#: callers is safe. Hashes are sid-inclusive because statement addressing
#: must stay identical to a fresh run — schedules target statements by
#: sid afterwards.
_PASS_CACHE = BoundedMemo("passes", 512)

class _PassCounters(Counters):
    """Hit/miss counters of the per-pass result cache (cumulative;
    surviving ``clear_pass_cache``); a reset also empties their per-pass
    breakdown, the rows of ``metrics.pipeline_stats()``."""

    def reset(self):
        from ..runtime import metrics

        super().reset()
        metrics._PIPELINE_STATS.clear()


#: ``disk_hits`` is declared, and stays 0 (this cache is in-process only),
#: because the frozen benchmark child reads the key
_STATS = _PassCounters("passes", hits=0, misses=0, disk_hits=0)

clear_pass_cache = _PASS_CACHE.clear
pass_cache_stats = _STATS.snapshot

#: monotonic index for REPRO_DUMP_IR run directories (no timestamps: runs
#: stay ordered and reproducible within one process)
_DUMP_COUNTER = itertools.count()


def runs_instrumented() -> bool:
    """Whether ``REPRO_DUMP_IR`` / ``REPRO_VERIFY_EACH_PASS`` ask for
    every pass to really execute (so nothing may be served from a
    cache)."""
    env = os.environ
    return (bool(env.get("REPRO_DUMP_IR", ""))
            or env.get("REPRO_VERIFY_EACH_PASS", "") == "1")


def product_store():
    """The persistent store the product records live in (kinds
    ``compile``, ``native``, ``grad``), or None: disk caching off,
    ``REPRO_NO_MEMO=1``, or an instrumented run (every pass must run)."""
    if not memos_enabled() or runs_instrumented():
        return None
    from ..cache.store import get_store

    return get_store()


def composite_cache_lookup(name: str, key: str) -> Optional[Func]:
    """Look up a composite (whole-sub-pipeline) result under pass-cache
    entry ``(name, key)``; returns the Func or None.

    The auto-scheduler memoizes its entire run this way: its rule passes
    are individually uncacheable (they share one Schedule session and
    mint fresh sids per run), but the run as a whole is deterministic in
    its input, so serving the stored object keeps repeated optimized
    compiles of one program — build(), then the verify CLI — bit-identical
    down to sids.
    """
    if not memos_enabled():
        return None
    entry = _PASS_CACHE.get((name, key))
    _STATS.add("misses" if entry is None else "hits")
    return entry


def composite_cache_store(name: str, key: str, func: Func):
    _PASS_CACHE.put((name, key), func)


class Pass:
    """One named IR-to-IR transformation step.

    ``fn`` takes a :class:`~repro.ir.Func` and returns a new Func; it
    must be deterministic, sid-preserving, and must not mutate its input.
    ``cacheable=False`` marks passes whose output depends on state beyond
    the input tree — the auto-scheduler's rule passes share a mutable
    Schedule session, for example — so they always run.

    ``key`` is the identity the cache chains use for this pass (default:
    the name). Backend legalization passes set ``key`` to
    ``name@caps_version`` so bumping a backend's declared version
    invalidates cached chains through its legalization, while ``name``
    stays clean for timings and metrics — and the standard-lowering
    prefix of the chain remains shared across backends.
    """

    __slots__ = ("name", "fn", "cacheable", "key")

    def __init__(self, name: str, fn: Callable[[Func], Func],
                 cacheable: bool = True, key: Optional[str] = None):
        self.name = name
        self.fn = fn
        self.cacheable = cacheable
        self.key = key if key is not None else name

    def __repr__(self):  # pragma: no cover
        tag = "" if self.cacheable else ", uncacheable"
        return f"Pass({self.name}{tag})"


class Pipeline:
    """An explicit, named, instrumented sequence of passes.

    ``run(func)`` threads the function through every pass in order and
    returns the final Func. Stateless between runs: one Pipeline object
    can compile any number of functions.
    """

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline"):
        self.passes: List[Pass] = list(passes)
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self.name = name

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __repr__(self):  # pragma: no cover
        return f"Pipeline({self.name}: {' -> '.join(self.pass_names())})"

    def run(self, func: Func,
            times: Optional[Dict[str, float]] = None) -> Func:
        """Run every pass in order; returns the final Func.

        ``times``, when given, accumulates per-pass wall-clock seconds
        under each pass's name (this is what ``Executable.compile_times``
        carries for a cold build).
        """
        from ..runtime import metrics

        dump_dir = os.environ.get("REPRO_DUMP_IR", "")
        snap = _Snapshotter(dump_dir, self, func) if dump_dir else None
        baseline: Optional[Set[tuple]] = None
        if os.environ.get("REPRO_VERIFY_EACH_PASS", "") == "1":
            baseline = _error_keys(func)
        # Instrumented runs want every pass to really execute (snapshots
        # diff pass outputs; per-pass verification attributes findings),
        # so they bypass cache lookups entirely.
        instrumented = snap is not None or baseline is not None
        use_cache = memos_enabled() and not instrumented

        def live(p: Pass, cur: Func, counted: bool) -> Func:
            nonlocal baseline
            t0 = time.perf_counter()
            out = p.fn(cur)
            dt = time.perf_counter() - t0
            if counted:
                _STATS.add("misses")
            metrics.record_pass_run(p.name, dt, False)
            if times is not None:
                times[p.name] = times.get(p.name, 0.0) + dt
            if snap is not None:
                snap.take(p.name, out)
            if baseline is not None:
                baseline = self._check_pass(p, out, baseline)
            return out

        cur = func
        n = len(self.passes)
        i = 0
        # The chain anchors at a struct-hash of the current tree and
        # extends by pass name: pass outputs are pure functions of
        # (anchor tree, passes since), so no intermediate tree is ever
        # hashed. An uncacheable pass (output depends on state beyond
        # the input tree) invalidates the anchor; the next cacheable
        # pass re-hashes.
        chain: Optional[str] = None
        while i < n:
            p = self.passes[i]
            if not (use_cache and p.cacheable):
                cur = live(p, cur, False)
                chain = None
                i += 1
                continue
            if chain is None:
                chain = struct_hash(cur, include_sids=True)
            # the contiguous cacheable segment starting here, with each
            # pass's chain key
            j = i
            keys = []
            ch = chain
            while j < n and self.passes[j].cacheable:
                keys.append((self.passes[j].key, ch))
                ch = ch + "|" + self.passes[j].key
                j += 1
            # serve from the deepest pass in the segment with an entry
            t0 = time.perf_counter()
            hit_idx = None
            for k in range(j - 1, i - 1, -1):
                out = _PASS_CACHE.get(keys[k - i])
                if out is not None:
                    hit_idx = k
                    break
            if hit_idx is not None:
                dt = time.perf_counter() - t0
                _STATS.add("hits", hit_idx - i + 1)
                for k in range(i, hit_idx + 1):
                    name = self.passes[k].name
                    d = dt if k == hit_idx else 0.0
                    metrics.record_pass_run(name, d, True)
                    if times is not None:
                        times[name] = times.get(name, 0.0) + d
                cur = out
                chain = keys[hit_idx - i][1] + "|" + \
                    self.passes[hit_idx].key
                i = hit_idx + 1
                continue
            # cold segment: run it live, store only its terminal output
            # (one retained tree per program, like the old lower() memo)
            for k in range(i, j):
                cur = live(self.passes[k], cur, True)
            _PASS_CACHE.put(keys[j - 1 - i], cur)
            chain = ch
            i = j
        return cur

    def _check_pass(self, p: Pass, out: Func,
                    baseline: Set[tuple]) -> Set[tuple]:
        """REPRO_VERIFY_EACH_PASS: verify ``out`` and attribute any error
        diagnostic not present before this pass to ``p``."""
        from ..analysis.verify import verify

        report = verify(out, level="error")
        keys = {_diag_key(d) for d in report.errors}
        fresh = [d for d in report.errors if _diag_key(d) not in baseline]
        if fresh:
            lines = [
                f"pipeline {self.name!r}: pass {p.name!r} introduced "
                f"{len(fresh)} new error diagnostic(s):"
            ]
            lines += [d.render(show_source=False) for d in fresh]
            raise VerificationError("\n".join(lines), diagnostics=report)
        return keys


def _diag_key(d) -> tuple:
    """Identity of a diagnostic for cross-pass comparison. The message is
    excluded: passes rewrite expressions, which rewords messages about a
    finding that was already there."""
    return (d.code, d.sid, d.tensor)


def _error_keys(func: Func) -> Set[tuple]:
    from ..analysis.verify import verify

    return {_diag_key(d) for d in verify(func, level="error").errors}


class _Snapshotter:
    """REPRO_DUMP_IR: one ``.ir`` snapshot per pass plus a unified diff
    against the previous snapshot, in a fresh per-run directory."""

    def __init__(self, base_dir: str, pipeline: Pipeline, func: Func):
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in func.name) or "func"
        run = next(_DUMP_COUNTER)
        self.dir = os.path.join(base_dir,
                                f"{run:04d}-{pipeline.name}-{safe}")
        os.makedirs(self.dir, exist_ok=True)
        self.idx = 0
        self.prev_name = "00-input"
        self.prev_text = self._write(self.prev_name, func)

    def _write(self, stem: str, func: Func) -> str:
        text = dump(func, show_ids=True)
        with open(os.path.join(self.dir, stem + ".ir"), "w") as f:
            f.write(text)
        return text

    def take(self, pass_name: str, func: Func):
        import difflib

        self.idx += 1
        stem = f"{self.idx:02d}-{pass_name}"
        text = self._write(stem, func)
        diff = difflib.unified_diff(
            self.prev_text.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=self.prev_name + ".ir", tofile=stem + ".ir")
        with open(os.path.join(self.dir, stem + ".diff"), "w") as f:
            f.writelines(diff)
        self.prev_name, self.prev_text = stem, text
