"""Versioned key schema for the persistent compile cache.

Every on-disk IR entry lives under a *schema tag* that folds together

- the cache format version (bumped when the entry encoding changes),
- a digest of the ``repro`` package's own source tree (any change to a
  pass, the printer, the hashing scheme, ... silently invalidates every
  entry written by the previous compiler), and
- the interpreter's major.minor (a different Python can pickle-free
  round-trip differently).

so stale entries self-invalidate: a new compiler simply reads and writes
a different namespace, and the old namespace ages out through LRU GC.

Native (``.so``) artifacts are *not* namespaced by the schema tag — they
are keyed by a digest of the generated C source plus the compiler
identity and flags (:func:`native_digest`), which is the complete input
of the gcc invocation regardless of compiler-internals. (The ``"native"``
index entries that lead to them, :func:`native_index_key`, *are*.)
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Optional

#: bump when the on-disk entry encoding changes shape
CACHE_FORMAT = 1

_SOURCE_DIGEST: Optional[str] = None
_SCHEMA_TAG: Optional[str] = None
_CC_FINGERPRINTS: dict = {}


def source_digest() -> str:
    """Content digest of every ``.py`` file in the ``repro`` package
    (computed once per process)."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        h = hashlib.blake2b(digest_size=12)
        names = []
        for root, dirs, files in os.walk(pkg_dir):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for f in sorted(files):
                if f.endswith(".py"):
                    names.append(os.path.join(root, f))
        for path in names:
            h.update(os.path.relpath(path, pkg_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
        _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def schema_tag() -> str:
    """The namespace current-compiler entries live under."""
    global _SCHEMA_TAG
    if _SCHEMA_TAG is None:
        _SCHEMA_TAG = (f"v{CACHE_FORMAT}"
                       f"-py{sys.version_info[0]}.{sys.version_info[1]}"
                       f"-{source_digest()}")
    return _SCHEMA_TAG


def cc_fingerprint(cc: str) -> str:
    """First line of ``cc --version`` ("" when the compiler cannot be
    queried).

    Memoized per process and, keyed by the compiler binary's path+mtime,
    in ``<cache root>/ccinfo.json`` — spawning gcc just to identify
    itself costs ~10ms, which would dominate a warm process's entire
    compile.
    """
    fp = _CC_FINGERPRINTS.get(cc)
    if fp is not None:
        return fp
    binkey = _cc_binary_key(cc)
    info_path, info = _load_ccinfo()
    if binkey is not None and info.get(binkey) is not None:
        fp = info[binkey]
    else:
        try:
            import subprocess

            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=10)
            fp = (out.stdout or "").splitlines()[0].strip() if out.stdout \
                else ""
        except Exception:
            fp = ""
        if binkey is not None and info_path is not None:
            try:
                info[binkey] = fp
                os.makedirs(os.path.dirname(info_path), exist_ok=True)
                tmp = info_path + f".{os.getpid()}.tmp"
                with open(tmp, "w") as f:
                    json.dump(info, f)
                os.replace(tmp, info_path)
            except OSError:
                pass
    _CC_FINGERPRINTS[cc] = fp
    return fp


def _cc_binary_key(cc: str) -> Optional[str]:
    """Identity of the compiler *binary* (path + mtime), or None when it
    cannot be resolved (then the fingerprint is never disk-memoized)."""
    from shutil import which

    path = which(cc)
    if path is None:
        return None
    try:
        return f"{path}|{os.stat(path).st_mtime_ns}"
    except OSError:
        return None


def _load_ccinfo():
    from .store import cache_root, enabled

    if not enabled():
        return None, {}
    path = os.path.join(cache_root(), "ccinfo.json")
    try:
        with open(path) as f:
            return path, json.load(f)
    except (OSError, ValueError):
        return path, {}


def native_digest(source: str, cc: str, opt: str, openmp: bool) -> str:
    """Content key of one native artifact: generated source + compiler
    identity + flags. Two processes generating the same C translation
    unit share one ``.so``."""
    h = hashlib.blake2b(digest_size=12)
    h.update(source.encode())
    h.update(b"\0")
    h.update(f"{cc}|{opt}|omp={int(bool(openmp))}|"
             f"{cc_fingerprint(cc)}".encode())
    return h.hexdigest()


def native_index_key(func, cc: str, opt: str, openmp: bool) -> str:
    """Key of the ``"native"`` index entry of one legalized tree:
    everything the generated C and the gcc command are functions of —
    the tree as ``same_tree`` compares it (``struct_hash`` ignores
    expression dtypes, codegen reads them), compiler identity, flags —
    so the index can never select a kernel compiled from different C."""
    from .serial import _expr_dtypes, canonical_key

    dtypes = hashlib.blake2b(",".join(_expr_dtypes(func)).encode(),
                             digest_size=12).hexdigest()
    return "|".join((canonical_key(func)[0], dtypes, cc, opt,
                     f"omp={int(bool(openmp))}", cc_fingerprint(cc)))


def entry_hash(kind: str, key: str) -> str:
    """Filename-safe digest for one IR entry within the schema
    namespace."""
    return hashlib.blake2b(f"{kind}\0{key}".encode(),
                           digest_size=16).hexdigest()
