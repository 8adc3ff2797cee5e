"""The pass manager: compilation as an explicit sequence of Pass objects.

Every compilation in this codebase — ``build()``, the rule-based
auto-scheduler, ``grad()``'s forward/backward lowering, and the
``python -m repro.verify`` CLI — constructs a :class:`Pipeline` and runs
it, instead of calling lowering passes ad hoc. Centralising the pass
sequence buys three things at once:

- **one lowering memo**: a pipeline that begins with the standard
  lowering (``STANDARD_LOWERING``) serves that prefix from an in-process
  memo keyed by the sid-inclusive content hash of its input, so
  ``Schedule``, ``lower()``, ``grad()`` and ``build()`` lower a given
  tree once per process between them. Every other pass just runs;
- **per-pass instrumentation**: wall-clock per pass (per-build timings
  in ``Executable.compile_times``), IR snapshots with unified diffs
  after every pass (``REPRO_DUMP_IR=<dir>``), and between-pass
  verification that attributes any *new* error diagnostic to the pass
  that introduced it (``REPRO_VERIFY_EACH_PASS=1``);
- **target-aware composition**: backends declare the legalization passes
  their code generators require (``Backend.legalization``) and
  the builders in ``repro.pipeline`` append them, so codegen never
  special-cases IR shapes it cannot emit.

The lowering memo is in-process only. What outlives the process is one
*product record* per public compile entry point (``compile_ir()``, the C
backend's native index, ``grad()``) in the persistent store of
``repro.cache`` (:func:`product_store`; docs/PERFORMANCE.md).

``REPRO_NO_DISK_CACHE=1`` disables the persistent store; tests disable
every in-process memo and the product records with ``state.memos_on``.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import VerificationError
from ..ir import Func, dump, struct_hash
from ..state import BoundedMemo, Counters, memos_enabled

#: the standard lowering sequence (no scheduling decisions): flatten
#: statement sequences, canonicalise self-updates into reductions,
#: fold/simplify expressions and control flow, and drop dead writes.
STANDARD_LOWERING = ("flatten", "make_reduction", "simplify", "cleanup")

#: the lowering memo: sid-inclusive struct-hash of a pipeline's input ->
#: its standard lowering. Passes are deterministic and sid-preserving, so
#: the lowering is a pure function of the input tree; hashes include
#: sids because schedules address statements by sid afterwards. Every
#: consumer treats the shared output as immutable (schedules rebuild,
#: never mutate in place).
_LOWERED = BoundedMemo("lowering", 512)

#: ``misses`` counts pass executions, ``hits`` passes served from the
#: lowering memo; ``disk_hits`` is declared, and stays 0 (the memo is
#: in-process only), because the end-to-end benchmark's compile child
#: reads the key
_STATS = Counters("passes", hits=0, misses=0, disk_hits=0)

clear_pass_cache = _LOWERED.clear
pass_cache_stats = _STATS.snapshot

#: monotonic index for REPRO_DUMP_IR run directories (no timestamps: runs
#: stay ordered and reproducible within one process)
_DUMP_COUNTER = itertools.count()


def instrumentation() -> Tuple[str, bool]:
    """``(dump_dir, verify_each_pass)`` from ``REPRO_DUMP_IR`` and
    ``REPRO_VERIFY_EACH_PASS``. Either one asks for every pass to really
    execute (so nothing may be served from a memo)."""
    env = os.environ
    return (env.get("REPRO_DUMP_IR", ""),
            env.get("REPRO_VERIFY_EACH_PASS", "") == "1")


def product_store():
    """The persistent store the product records live in (kinds
    ``compile``, ``native``, ``grad``), or None: disk caching off, memos
    disabled, or an instrumented run (every pass must run)."""
    if not memos_enabled() or any(instrumentation()):
        return None
    from ..cache.store import get_store

    return get_store()


class Pass:
    """One named IR-to-IR transformation step.

    ``fn`` takes a :class:`~repro.ir.Func` and returns a new Func; it
    must be deterministic, sid-preserving, and must not mutate its input.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[Func], Func]):
        self.name = name
        self.fn = fn

    def __repr__(self):  # pragma: no cover
        return f"Pass({self.name})"


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
        #: whether the run starts with the standard lowering, which the
        #: lowering memo serves
        self.lowers = tuple(names[:len(STANDARD_LOWERING)]) == \
            STANDARD_LOWERING

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __repr__(self):  # pragma: no cover
        return f"Pipeline({self.name}: {' -> '.join(self.pass_names())})"

    def run(self, func: Func,
            times: Optional[Dict[str, float]] = None) -> Func:
        """Run every pass in order; returns the final Func.

        ``times``, when given, accumulates per-pass wall-clock seconds
        under each pass's name (this is what ``Executable.compile_times``
        carries for a cold build); a memo hit's lookup time goes under
        the last lowering pass.
        """
        dump_dir, verify_each_pass = instrumentation()
        snap = _Snapshotter(dump_dir, self, func) if dump_dir else None
        baseline: Optional[Set[tuple]] = None
        if verify_each_pass:
            baseline = _error_keys(func)
        cur, passes, key = func, self.passes, None
        # Instrumented runs want every pass to really execute (snapshots
        # diff pass outputs; per-pass verification attributes findings),
        # so they bypass the memo.
        n = len(STANDARD_LOWERING)
        if self.lowers and memos_enabled() and not (dump_dir or
                                                     verify_each_pass):
            key = struct_hash(func, include_sids=True)
            t0 = time.perf_counter()
            lowered = _LOWERED.get(key)
            if lowered is not None:
                _STATS.add("hits", n)
                if times is not None:
                    for name in STANDARD_LOWERING:
                        times[name] = times.get(name, 0.0)
                    times[STANDARD_LOWERING[-1]] += time.perf_counter() - t0
                cur, passes, key = lowered, passes[n:], None
        for i, p in enumerate(passes):
            t0 = time.perf_counter()
            cur = p.fn(cur)
            dt = time.perf_counter() - t0
            _STATS.add("misses")
            if times is not None:
                times[p.name] = times.get(p.name, 0.0) + dt
            if snap is not None:
                snap.take(p.name, cur)
            if baseline is not None:
                baseline = self._check_pass(p, cur, baseline)
            if key is not None and i == n - 1:
                _LOWERED.put(key, cur)
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
