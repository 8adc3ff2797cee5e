"""``repro.pipeline`` — the unified pass-manager compilation pipeline.

One authoritative construction of the compile flow, shared by all four
entry points (``repro.runtime.build``, ``repro.autosched.auto_schedule``,
``repro.ad.grad`` and the ``python -m repro.verify`` CLI):

    staged Func
      │  [optimize: auto_fuse → auto_vectorize → auto_parallelize →
      │             auto_mem_type → auto_use_lib → auto_unroll]
      ▼
    flatten → make_reduction → simplify → cleanup      (standard lowering)
      ▼
    <backend legalization>                              (Backend.legalization)
      ▼
    codegen_prep                                        (final normalization)
      ▼
    code generator

See docs/ARCHITECTURE.md for the full diagram, the pass inventory per
target, and the instrumentation environment variables
(``REPRO_DUMP_IR``, ``REPRO_VERIFY_EACH_PASS``).
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Dict, List, Optional, Tuple

from ..ir import Func
from .manager import (STANDARD_LOWERING, Pass, Pipeline, clear_pass_cache,
                      pass_cache_stats)


#: standard pass name -> (module, function), imported per name on first
#: use. "codegen_prep" is "flatten" under a distinct name — the final
#: normalization after legalization rewrites, right before the code
#: generator.
_PASS_FNS = {
    "flatten": ("..passes.flatten", "flatten_stmt_seq"),
    "make_reduction": ("..passes.make_reduction", "make_reduction"),
    "simplify": ("..passes.simplify_pass", "simplify"),
    "cleanup": ("..passes.cleanup", "remove_dead_writes"),
    "codegen_prep": ("..passes.flatten", "flatten_stmt_seq"),
}


def _pass_fn(name: str):
    module, attr = _PASS_FNS[name]
    return getattr(import_module(module, __name__), attr)


def named_pass(name: str) -> Pass:
    """Construct a standard pass by name (``flatten``, ``make_reduction``,
    ``simplify``, ``cleanup``, ``codegen_prep``)."""
    if name not in _PASS_FNS:
        raise ValueError(
            f"unknown pass {name!r}; known: {sorted(_PASS_FNS)}")
    return Pass(name, _pass_fn(name))


def lowering_passes() -> List[Pass]:
    """The standard lowering sequence as fresh Pass objects."""
    return [Pass(n, _pass_fn(n)) for n in STANDARD_LOWERING]


#: shared stateless pipeline instances, keyed by name
_PIPELINES: Dict[str, Pipeline] = {}


def lowering_pipeline(name: str = "lower") -> Pipeline:
    """The standard lowering pipeline (what ``repro.passes.lower`` runs).

    Pipelines are stateless between runs, so instances are shared by
    ``name``; the lowering memo is shared across all of them regardless.
    """
    pipe = _PIPELINES.get(name)
    if pipe is None:
        pipe = Pipeline(lowering_passes(), name=name)
        _PIPELINES[name] = pipe
    return pipe


def legalization_passes(backend: str) -> List[Pass]:
    """The :class:`Pass` objects ``backend`` declared on its registered
    :class:`~repro.backend.Backend`, in order."""
    from ..backend import get_backend

    return list(get_backend(backend).legalization)


def declared_legalization(backend: str) -> Tuple[str, ...]:
    """The names of ``backend``'s declared legalization passes."""
    return tuple(p.name for p in legalization_passes(backend))


def legalize(func: Func, backend: str) -> Func:
    """Apply ``backend``'s declared legalization directly (for code
    generators invoked outside a Pipeline; idempotent)."""
    passes = legalization_passes(backend)
    if not passes:
        return func
    return Pipeline(passes, name=f"legalize-{backend}").run(func)


def build_pipeline(backend: str = "pycode",
                   name: Optional[str] = None) -> Pipeline:
    """The full non-scheduling compile pipeline for ``backend``: standard
    lowering, then — when the backend declared legalization passes —
    those passes followed by the final ``codegen_prep`` normalization.

    Not memoized: the legalization declarations may change as backends
    register themselves.
    """
    passes = lowering_passes()
    legal = legalization_passes(backend)
    if legal:
        # re-normalise only when legalization actually rewrote the tree;
        # for backends with nothing declared the build pipeline is
        # exactly the standard lowering (one pass fewer in the tuner's
        # per-candidate hot loop)
        passes += legal
        passes.append(named_pass("codegen_prep"))
    return Pipeline(passes, name=name or f"build-{backend}")


def compile_ir(func: Func, backend: str = "pycode", target=None,
               optimize: bool = False,
               times: Optional[Dict[str, float]] = None) -> Func:
    """Compile ``func`` to the exact IR ``build()`` hands its backend.

    This is the single authoritative optimize/lower path: ``build()``
    calls it, and the verify CLI calls it with the same defaults, so
    CLI-verified IR is what a build compiles, up to sid numbering (same
    ``cache.serial.canonical_key``).

    The output is deterministic in (input tree, backend, target,
    ``optimize``): one ``"compile"`` record in the persistent store (an
    identity marker when compiling gave the tree back), looked up before
    the scheduler or any pass is imported. A hit's time goes under the
    name of the last pass it stands for.
    """
    from ..autosched.target import default_target
    from ..backend import backend_cache_tag
    from .manager import product_store

    if target is None:
        target = default_target(backend)
    disk = product_store()
    if disk is not None:
        from ..cache.serial import canonical_key, decode_entry, encode_entry

        t0 = time.perf_counter()
        canon, sids = canonical_key(func)
        key = "|".join((canon, backend_cache_tag(backend),
                        repr(target.cache_key()), str(bool(optimize))))
        out = disk.lookup("compile", key,
                          lambda entry: decode_entry(entry, sids, func))
        if out is not None:
            name = "autosched" if optimize else \
                "codegen_prep" if declared_legalization(backend) else \
                STANDARD_LOWERING[-1]
            if times is not None:
                times[name] = times.get(name, 0.0) + \
                    time.perf_counter() - t0
            return out
    if optimize:
        from ..autosched import auto_schedule

        out = auto_schedule(func, target=target, backend=backend,
                            times=times)
    else:
        out = build_pipeline(backend=backend).run(func, times=times)
    if disk is not None:
        disk.store("compile", key, lambda: encode_entry(out, sids, func))
    return out


__all__ = [
    "Pass", "Pipeline", "STANDARD_LOWERING", "build_pipeline",
    "clear_pass_cache", "compile_ir", "declared_legalization",
    "legalization_passes", "legalize", "lowering_passes",
    "lowering_pipeline", "named_pass", "pass_cache_stats",
]
