"""Target-aware legalization passes.

Each backend *declares* the passes its code generator requires before it
can emit the IR, and the pipeline builders in ``repro.pipeline`` append
those passes after the standard lowering sequence. Code generators
therefore see pre-legalized IR and emit it directly, instead of
special-casing shapes they cannot handle — e.g. the OpenMP
simd-suppression logic that used to live inside ``codegen/ccode.py`` is
now the ``simd_suppress`` pass below.

Declarations live on the :class:`~repro.backend.Backend` objects in the
unified registry (``repro.backend``): ``Backend.legalization`` names the
ordered passes, and backends may contribute implementations of their own
via ``Backend.legalization_impls`` (the ``npblock`` backend's
auto-vectorize pass arrives that way).
"""

from __future__ import annotations

from typing import List, Tuple

from ..ir import For, Func, Mutator, ReduceTo, Stmt, collect_stmts
from .manager import Pass


# ---------------------------------------------------------------------------
# simd_suppress: drop `vectorize` markings gcc's `omp simd` cannot honour
# ---------------------------------------------------------------------------


def simd_body_ok(body: Stmt) -> bool:
    """Whether a vectorized loop body stays legal under ``omp simd``.

    gcc only allows ``ordered simd``/``simd``/``loop``/``atomic``
    constructs inside a simd region; a nested ``parallel for`` or the
    ``critical`` a min/max atomic lowers to must instead drop the simd
    marking (it is an optimization hint — a plain loop is always correct).
    """
    for x in collect_stmts(body, lambda _x: True):
        if isinstance(x, For) and x.property.parallel:
            return False
        if isinstance(x, ReduceTo) and x.atomic and x.op in ("min", "max"):
            return False
    return True


class _SuppressIllegalSimd(Mutator):

    def mutate_For(self, s: For) -> Stmt:
        out = self.generic_mutate_stmt(s)
        if out.property.vectorize and not simd_body_ok(out.body):
            return out.with_property(vectorize=False)
        return out


def suppress_illegal_simd(func: Func) -> Func:
    """Clear ``vectorize`` on loops whose bodies are illegal inside an
    ``omp simd`` region (nested parallel loops, atomic min/max)."""
    return _SuppressIllegalSimd()(func)


# ---------------------------------------------------------------------------
# registry views (declarations live on repro.backend Backend objects)
# ---------------------------------------------------------------------------

#: built-in legalization pass implementations by name (backends add
#: their own via ``Backend.legalization_impls``)
LEGALIZATION_PASSES = {
    "simd_suppress": suppress_illegal_simd,
}

def known_legalization_passes() -> List[str]:
    """Names of the built-in legalization passes (the table a
    ``Backend.legalization`` declaration may reference without bringing
    an implementation along)."""
    return sorted(LEGALIZATION_PASSES)


def _pass_impl(name: str):
    fn = LEGALIZATION_PASSES.get(name)
    if fn is None:
        from ..backend import legalization_impl

        fn = legalization_impl(name)
    if fn is None:
        raise ValueError(
            f"no implementation for legalization pass {name!r}; known: "
            f"{known_legalization_passes()}")
    return fn


def declared_legalization(backend: str) -> Tuple[str, ...]:
    """The pass names ``backend`` declared on its registered
    :class:`~repro.backend.Backend` (empty for unknown backends)."""
    from ..backend import find_backend

    b = find_backend(backend)
    return b.legalization if b is not None else ()


def legalization_passes(backend: str) -> List[Pass]:
    """Pass objects for ``backend``'s declared legalization sequence.

    Each Pass carries the backend's ``caps_version`` in its cache
    ``key`` (``name@version``), so bumping the version on a Backend
    invalidates cached pipeline chains that ran its legalization while
    leaving the shared standard-lowering prefix untouched.
    """
    from ..backend import find_backend

    b = find_backend(backend)
    version = b.caps_version if b is not None else None
    out = []
    for n in declared_legalization(backend):
        key = f"{n}@{version}" if version is not None else n
        out.append(Pass(n, _pass_impl(n), key=key))
    return out


def legalize(func: Func, backend: str) -> Func:
    """Apply ``backend``'s declared legalization directly (for code
    generators invoked outside a Pipeline; idempotent)."""
    from .manager import Pipeline

    passes = legalization_passes(backend)
    if not passes:
        return func
    return Pipeline(passes, name=f"legalize-{backend}").run(func)
