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

The in-memory cache is backed by the persistent cross-process store in
``repro.cache``: on a full memory miss the pipeline probes the store
deepest-first along its chain key (canonicalised to be process-
independent) and installs hits back into memory; the terminal output of
a cold cacheable segment is written through — as an identity marker when
the segment gave its anchor tree back, so a warm run of it decodes
nothing. See docs/PERFORMANCE.md.

Escape hatches: ``REPRO_NO_MEMO=1`` disables the per-pass cache (with
every other in-process memo, and the store entries it gates);
``REPRO_NO_DISK_CACHE=1`` disables the persistent store only.
"""

from __future__ import annotations

import difflib
import itertools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import VerificationError
from ..ir import Func
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


def _hash(func: Func) -> str:
    from ..ir.hashing import struct_hash

    return struct_hash(func, include_sids=True)


def _disk_store():
    """The persistent store handle, or None when disk caching is off."""
    from ..cache import store as disk_store

    return disk_store.get_store()


def product_store():
    """The store whole-product records (``grad()``) live in, or None:
    under the switches that gate composite entries, and bypassed by
    instrumented runs exactly as pass-cache lookups are."""
    if not memos_enabled() or runs_instrumented():
        return None
    return _disk_store()


def composite_cache_lookup(name: str, key: str,
                           input_func: Optional[Func] = None,
                           disk_extra: Optional[str] = None,
                           ) -> Optional[Func]:
    """Look up a composite (whole-sub-pipeline) result under pass-cache
    entry ``(name, key)``; returns the Func or None.

    The auto-scheduler memoizes its entire run this way: its rule passes
    are individually uncacheable (they share one Schedule session and
    mint fresh sids per run), but the run as a whole is deterministic in
    its input, so serving the stored object keeps repeated optimized
    compiles of one program — build(), then the verify CLI — bit-identical
    down to sids.

    ``input_func`` + ``disk_extra`` opt the entry into the persistent
    store: on a memory miss the disk is probed under the *canonical*
    (process-independent) key derived from ``input_func`` plus the
    ``disk_extra`` discriminator, and a disk hit is installed in memory
    under ``(name, key)`` so repeats stay bit-identical in-process.
    """
    if not memos_enabled():
        return None
    entry = _PASS_CACHE.get((name, key))
    if entry is not None:
        _STATS.add("hits")
        return entry
    if input_func is not None:
        disk = _disk_store()
        if disk is not None:
            from ..cache.serial import canonical_key

            canon, sids = canonical_key(input_func)
            func = disk.ir_lookup(name, f"{canon}|{disk_extra or ''}", sids)
            if func is not None:
                _STATS.add("disk_hits")
                _PASS_CACHE.put((name, key), func)
                return func
    _STATS.add("misses")
    return None


def composite_cache_store(name: str, key: str, func: Func,
                          input_func: Optional[Func] = None,
                          disk_extra: Optional[str] = None):
    if not memos_enabled():
        return
    _PASS_CACHE.put((name, key), func)
    if input_func is not None:
        disk = _disk_store()
        if disk is not None:
            from ..cache.serial import canonical_key

            canon, sids = canonical_key(input_func)
            disk.ir_store(name, f"{canon}|{disk_extra or ''}", sids, func)


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
            times: Optional[Dict[str, float]] = None,
            _persist: bool = True) -> Func:
        """Run every pass in order; returns the final Func.

        ``times``, when given, accumulates per-pass wall-clock seconds
        under each pass's name (this is what ``Executable.compile_times``
        carries for a cold build). ``_persist=False`` (internal) keeps
        this run out of the persistent store: ``grad()`` stores its
        product as one record instead of per-pass entries.
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
        disk = _disk_store() if use_cache and _persist else None
        # The chain anchors at a struct-hash of the current tree and
        # extends by pass name: pass outputs are pure functions of
        # (anchor tree, passes since), so no intermediate tree is ever
        # hashed. An uncacheable pass (output depends on state beyond
        # the input tree) invalidates the anchor; the next cacheable
        # pass re-hashes.
        chain: Optional[str] = None
        # Disk twin of the chain: [anchor tree, pass names since anchor,
        # memoized canonical_key(anchor)]. The canonical (preorder-sid-
        # renumbered) hash is process-independent, so it — not the
        # absolute-sid chain — keys the persistent store. Computed only
        # when the disk is actually consulted.
        anchor: Optional[list] = None

        def disk_key(upto: int) -> Tuple[str, List[str]]:
            from ..cache.serial import canonical_key

            if anchor[2] is None:
                anchor[2] = canonical_key(anchor[0])
            canon, sids = anchor[2]
            names = anchor[1] + [self.passes[m].key
                                 for m in range(i, upto + 1)]
            return canon + "|" + "|".join(names), sids

        while i < n:
            p = self.passes[i]
            if not (use_cache and p.cacheable):
                cur = live(p, cur, False)
                chain = None
                anchor = None
                i += 1
                continue
            if chain is None:
                chain = _hash(cur)
                anchor = [cur, [], None]
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
            # full memory miss: probe the persistent store, deepest first
            from_disk = False
            if hit_idx is None and disk is not None:
                for k in range(j - 1, i - 1, -1):
                    dkey, sids = disk_key(k)
                    out = disk.ir_lookup("pass", dkey, sids, anchor[0])
                    if out is not None:
                        hit_idx = k
                        from_disk = True
                        break
            if hit_idx is not None:
                dt = time.perf_counter() - t0
                covered = hit_idx - i + 1
                if from_disk:
                    _STATS.add("disk_hits", covered)
                    # install in memory so in-process repeats skip disk
                    _PASS_CACHE.put(keys[hit_idx - i], out)
                else:
                    _STATS.add("hits", covered)
                for k in range(i, hit_idx + 1):
                    name = self.passes[k].name
                    d = dt if k == hit_idx else 0.0
                    metrics.record_pass_run(name, d, True)
                    if times is not None:
                        times[name] = times.get(name, 0.0) + d
                cur = out
                chain = keys[hit_idx - i][1] + "|" + \
                    self.passes[hit_idx].key
                anchor[1].extend(self.passes[k].key
                                 for k in range(i, hit_idx + 1))
                i = hit_idx + 1
                continue
            # cold segment: run it live, store only its terminal output
            # (one retained tree per program, like the old lower() memo)
            for k in range(i, j):
                cur = live(self.passes[k], cur, True)
            _PASS_CACHE.put(keys[j - 1 - i], cur)
            if disk is not None:
                # a chain that gave its anchor back (build() of an
                # already-lowered tree) is stored as an identity marker
                dkey, sids = disk_key(j - 1)
                disk.ir_store("pass", dkey, sids, cur, anchor[0])
            chain = ch
            anchor[1].extend(self.passes[k].key for k in range(i, j))
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

    @staticmethod
    def _text(func: Func) -> str:
        from ..ir import dump

        return dump(func, show_ids=True)

    def _write(self, stem: str, func: Func) -> str:
        text = self._text(func)
        with open(os.path.join(self.dir, stem + ".ir"), "w") as f:
            f.write(text)
        return text

    def take(self, pass_name: str, func: Func):
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
