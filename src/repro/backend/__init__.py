"""``repro.backend`` — the unified backend registry.

One :class:`Backend` object per target declares everything backend-
specific — codegen entry, capability table, legalization passes, memory
scope rules, default target kind, cache version — and every stage of the
compiler *queries* the registry instead of dispatching on backend-name
strings. See ``repro.backend.registry`` for the object model and
``repro.backend.npblock`` for a full out-of-core registration example.
"""

from .caps import BackendCaps
from .registry import (Backend, ScopeRule, available_backends,
                       backend_cache_tag, backend_caps, find_backend,
                       get_backend, register_backend, scope_violation,
                       unregister_backend)

__all__ = [
    "Backend", "BackendCaps", "ScopeRule", "available_backends",
    "backend_cache_tag", "backend_caps", "find_backend", "get_backend",
    "register_backend", "scope_violation", "unregister_backend",
]
