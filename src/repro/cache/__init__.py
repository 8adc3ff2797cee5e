"""Persistent cross-process compile cache (see docs/PERFORMANCE.md).

The in-process pass/build caches make the *second* compile in one process
free; this package makes the second compile on one *machine* free — the
stored artifact is what processes share. It has three layers:

- :mod:`repro.cache.keys` — the versioned key schema (self-invalidating
  on compiler-source or format changes),
- :mod:`repro.cache.serial` — fidelity-checked IR serialization with
  cross-process statement-identity translation,
- :mod:`repro.cache.store` — the content-addressed on-disk store with
  atomic writes, corruption recovery and LRU GC.

Environment knobs: ``REPRO_CACHE_DIR`` (location, default
``~/.cache/repro``), ``REPRO_NO_DISK_CACHE=1`` (opt out),
``REPRO_CACHE_MAX_MB`` (LRU budget, default 512).
"""

from .keys import CACHE_FORMAT, native_digest, schema_tag, source_digest
from .serial import (canonical_key, decode_entry, decode_func, encode_entry,
                     encode_func, preorder_sids)
from .store import DiskCache, cache_root, enabled, get_store, max_bytes

__all__ = [
    "CACHE_FORMAT",
    "DiskCache",
    "cache_root",
    "canonical_key",
    "decode_entry",
    "decode_func",
    "enabled",
    "encode_entry",
    "encode_func",
    "get_store",
    "max_bytes",
    "native_digest",
    "preorder_sids",
    "schema_tag",
    "source_digest",
]
