"""Content-addressed on-disk store backing the persistent compile cache.

Layout (under :func:`cache_root`, default ``~/.cache/repro``)::

    <root>/ir/<schema-tag>/<hh>/<hash>.json   one entry per (kind, key)
    <root>/native/k<digest>.{c,so}            compiled kernel artifacts
                                              (repro.codegen.ccode)
    <root>/gc.lock                            inter-process GC mutex

Every entry is the product of one public compile entry point, names its
``kind``, and is looked up before anything that could compute it is
imported (docs/PERFORMANCE.md):

- ``"compile"`` — ``pipeline.compile_ir()``: a *payload* (``input_sids``
  + one ``func``) or, when compiling gave the input tree back, an
  *identity marker* (``{"same": true, "n": <input statement count>}``:
  the consumer keeps the tree it already has);
- ``"native"`` — ``codegen.ccode.compile_func_native()``: the index
  ``{"digest": ...}`` from (legalized tree, compiler, flags) to the
  ``k<digest>.so`` built from them, so a warm process generates no C;
- ``"grad"`` — ``ad.grad()``: a *record* (``input_sids`` + named
  ``funcs`` + ``meta``), the whole product of one differentiation.

Writes are crash-safe: entries are written to a temp file in the same
directory and ``os.replace``-d into place, so readers only ever observe
complete files. Corrupt or truncated entries (e.g. from a torn copy or a
foreign writer) are deleted and reported as misses — the cache can lose
entries but never serve garbage, because every IR payload was
fidelity-checked at write time and native artifacts are keyed by the full
gcc input.

Eviction is LRU over file mtimes (a hit bumps the entry's mtime); the
budget is ``REPRO_CACHE_MAX_MB`` (default 512). GC runs opportunistically
after a batch of stores and takes a non-blocking ``flock`` so concurrent
processes never double-evict.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from typing import List, Optional, Tuple

from . import keys

_DEFAULT_MAX_MB = 512
_AUTO_GC_EVERY = 64  # stores between opportunistic GC checks


def cache_root() -> str:
    """Resolved cache directory (``REPRO_CACHE_DIR`` wins)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return os.path.abspath(os.path.expanduser(env))
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def enabled() -> bool:
    """Whether the persistent cache participates in this process."""
    return os.environ.get("REPRO_NO_DISK_CACHE") != "1"


def max_bytes() -> int:
    try:
        mb = float(os.environ.get("REPRO_CACHE_MAX_MB", _DEFAULT_MAX_MB))
    except ValueError:
        mb = _DEFAULT_MAX_MB
    return int(mb * 1024 * 1024)


class DiskCache:
    """One process's handle on the shared on-disk store."""

    def __init__(self, root: str):
        self.root = root
        self._stores_since_gc = 0

    # -- paths ------------------------------------------------------------

    def ir_dir(self) -> str:
        return os.path.join(self.root, "ir", keys.schema_tag())

    def native_dir(self) -> str:
        return os.path.join(self.root, "native")

    def _entry_path(self, kind: str, key: str) -> str:
        h = keys.entry_hash(kind, key)
        return os.path.join(self.ir_dir(), h[:2], h + ".json")

    # -- entries ----------------------------------------------------------

    def lookup(self, kind: str, key: str, decode):
        """``decode(entry)`` of the stored entry; None is a miss (no entry,
        or no use for it). What ``decode`` rejects is dropped as corrupt."""
        from ..runtime import metrics

        t0 = time.perf_counter()
        path = self._entry_path(kind, key)
        out = None
        try:
            with open(path, "r") as f:
                out = decode(json.load(f))
        except FileNotFoundError:
            pass
        except Exception:
            # torn write, foreign format, sid-list mismatch: drop it
            with suppress(OSError):
                os.unlink(path)
            metrics.DISK.add("ir_corrupt")
        else:
            with suppress(OSError):  # LRU recency bump
                os.utime(path)
        metrics.record_disk_lookup(out is not None,
                                   time.perf_counter() - t0)
        return out

    def store(self, kind: str, key: str, encode) -> bool:
        """Persist ``encode()`` as one entry; False when it returns None
        (unserializable) or the write fails (both are non-fatal)."""
        from ..runtime import metrics

        t0 = time.perf_counter()
        entry = encode()
        if entry is None:
            return False
        entry["kind"] = kind  # what disk_stats() groups by
        path = self._entry_path(kind, key)
        try:
            import tempfile

            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(entry, f, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            return False
        metrics.record_disk_store(time.perf_counter() - t0)
        self._stores_since_gc += 1
        if self._stores_since_gc >= _AUTO_GC_EVERY:
            self._stores_since_gc = 0
            self.gc()
        return True

    # -- maintenance ------------------------------------------------------

    def _all_files(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) of every evictable file under the root."""
        out = []
        for sub in ("ir", "native"):
            top = os.path.join(self.root, sub)
            for dirpath, _dirs, files in os.walk(top):
                for name in files:
                    if ".tmp" in name or name.endswith(".lock"):
                        continue
                    p = os.path.join(dirpath, name)
                    try:
                        st = os.stat(p)
                    except OSError:
                        continue
                    out.append((st.st_mtime, st.st_size, p))
        return out

    def disk_stats(self) -> dict:
        """What is actually on disk right now (all schema namespaces)."""
        files = self._all_files()
        ir = [f for f in files if os.sep + "ir" + os.sep in f[2]]
        native = [f for f in files if os.sep + "native" + os.sep in f[2]]
        by_kind: dict = {}
        for _mtime, size, path in ir:
            try:
                with open(path) as f:
                    kind = json.load(f).get("kind", "?")
            except (OSError, ValueError, AttributeError):
                kind = "?"  # unreadable: the next lookup drops it
            row = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
        return {
            "root": self.root,
            "schema": keys.schema_tag(),
            "ir_entries": len(ir),
            "ir_bytes": sum(f[1] for f in ir),
            "by_kind": by_kind,
            "native_files": len(native),
            "native_bytes": sum(f[1] for f in native),
            "total_bytes": sum(f[1] for f in files),
            "budget_bytes": max_bytes(),
        }

    def gc(self, budget: Optional[int] = None) -> int:
        """Evict least-recently-used files until under budget. Returns
        the number of files removed (0 when under budget or when another
        process is already collecting)."""
        from ..runtime import metrics

        budget = max_bytes() if budget is None else budget
        lock_path = os.path.join(self.root, "gc.lock")
        try:
            os.makedirs(self.root, exist_ok=True)
            lock = open(lock_path, "w")
        except OSError:
            return 0
        try:
            try:
                import fcntl

                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except (ImportError, OSError):
                return 0  # someone else is collecting
            files = self._all_files()
            total = sum(f[1] for f in files)
            evicted = 0
            # Evict a .so together with its .c twin: pairs share a stem,
            # and stranded sources would just be re-evicted next round.
            for mtime, size, path in sorted(files):
                if total <= budget:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
            if evicted:
                metrics.DISK.add("evictions", evicted)
                self._prune_empty_dirs()
            return evicted
        finally:
            lock.close()

    def clear(self) -> int:
        """Remove every cache entry (all schema namespaces and native
        artifacts). Returns the number of files removed."""
        files = self._all_files()
        removed = 0
        for _mtime, _size, path in files:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self):
        for sub in ("ir", "native"):
            top = os.path.join(self.root, sub)
            for dirpath, dirs, files in os.walk(top, topdown=False):
                if not dirs and not files and dirpath != top:
                    with suppress(OSError):
                        os.rmdir(dirpath)


_STORES: dict = {}


def get_store() -> Optional[DiskCache]:
    """The process-wide store handle, or None when disk caching is off.

    Keyed by the resolved root so tests that re-point ``REPRO_CACHE_DIR``
    get a fresh handle.
    """
    if not enabled():
        return None
    root = cache_root()
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = DiskCache(root)
    return store
