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
    <backend legalization>                              (repro.pipeline.legalize)
      ▼
    codegen_prep                                        (final normalization)
      ▼
    code generator

See docs/ARCHITECTURE.md for the full diagram, the pass inventory per
target, and the instrumentation environment variables
(``REPRO_DUMP_IR``, ``REPRO_VERIFY_EACH_PASS``, ``REPRO_NO_MEMO``).
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Dict, List, Optional

from ..ir import Func
from .legalize import (LEGALIZATION_PASSES, declared_legalization,
                       legalization_passes, legalize, simd_body_ok,
                       suppress_illegal_simd)
from .manager import (Pass, Pipeline, clear_pass_cache, pass_cache_stats)

#: the standard lowering sequence (no scheduling decisions): flatten
#: statement sequences, canonicalise self-updates into reductions,
#: fold/simplify expressions and control flow, and drop dead writes.
STANDARD_LOWERING = ("flatten", "make_reduction", "simplify", "cleanup")


#: standard pass name -> (module, function), imported per name on first
#: use. "codegen_prep" is "flatten" under a distinct name — the final
#: normalization after legalization rewrites, right before the code
#: generator; "cost_model" is an identity analysis pass that estimates
#: the static cost of the tree at its point in the pipeline.
_PASS_FNS = {
    "flatten": ("..passes.flatten", "flatten_stmt_seq"),
    "make_reduction": ("..passes.make_reduction", "make_reduction"),
    "simplify": ("..passes.simplify_pass", "simplify"),
    "cleanup": ("..passes.cleanup", "remove_dead_writes"),
    "prune": ("..passes.prune", "prune_branches"),
    "codegen_prep": ("..passes.flatten", "flatten_stmt_seq"),
    "cost_model": ("..analysis.cost", "cost_model_pass"),
}


def _pass_fn(name: str):
    module, attr = _PASS_FNS[name]
    return getattr(import_module(module, __name__), attr)


def named_pass(name: str) -> Pass:
    """Construct a standard pass by name (``flatten``, ``make_reduction``,
    ``simplify``, ``cleanup``, ``prune``, ``codegen_prep``,
    ``cost_model``, or any registered legalization pass)."""
    if name in _PASS_FNS:
        # cost_model is wanted for its side effect (the recorded
        # estimate); a pass-cache hit would skip the analysis entirely
        return Pass(name, _pass_fn(name), cacheable=(name != "cost_model"))
    if name in LEGALIZATION_PASSES:
        return Pass(name, LEGALIZATION_PASSES[name])
    raise ValueError(
        f"unknown pass {name!r}; known: "
        f"{sorted(set(_PASS_FNS) | set(LEGALIZATION_PASSES))}")


def lowering_passes() -> List[Pass]:
    """The standard lowering sequence as fresh Pass objects."""
    return [Pass(n, _pass_fn(n)) for n in STANDARD_LOWERING]


#: shared stateless pipeline instances, keyed by name
_PIPELINES: Dict[str, Pipeline] = {}


def lowering_pipeline(name: str = "lower") -> Pipeline:
    """The standard lowering pipeline (what ``repro.passes.lower`` runs).

    Pipelines are stateless between runs, so instances are shared by
    ``name``; the per-pass cache is shared across all of them regardless.
    """
    pipe = _PIPELINES.get(name)
    if pipe is None:
        pipe = Pipeline(lowering_passes(), name=name)
        _PIPELINES[name] = pipe
    return pipe


def build_pipeline(backend: str = "pycode", target=None,
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
    CLI-verified IR is bit-identical (same ``struct_hash``) to what a
    build compiles.

    The output is deterministic in (input tree, backend, target,
    ``optimize``): one ``"compile"`` record in the persistent store (an
    identity marker when compiling gave the tree back), looked up before
    the scheduler or any pass is imported. A hit's time goes under the
    name a pass-cache hit would use.
    """
    from ..autosched.target import default_target
    from ..backend import backend_cache_tag
    from .manager import product_store

    if target is None:
        target = default_target(backend)
    disk = product_store()
    if disk is not None:
        from ..cache.serial import canonical_key, decode_entry, encode_entry
        from ..runtime import metrics

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
            dt = time.perf_counter() - t0
            metrics.record_pass_run(name, dt, True)
            if times is not None:
                times[name] = times.get(name, 0.0) + dt
            return out
    if optimize:
        from ..autosched import auto_schedule

        out = auto_schedule(func, target=target, backend=backend,
                            times=times)
    else:
        out = build_pipeline(backend=backend, target=target).run(
            func, times=times)
    if disk is not None:
        disk.store("compile", key, lambda: encode_entry(out, sids, func))
    return out


__all__ = [
    "LEGALIZATION_PASSES", "Pass", "Pipeline", "STANDARD_LOWERING",
    "build_pipeline", "clear_pass_cache", "compile_ir",
    "declared_legalization", "legalization_passes", "legalize",
    "lowering_passes", "lowering_pipeline", "named_pass",
    "pass_cache_stats", "simd_body_ok", "suppress_illegal_simd",
]
