"""The unified backend registry: one capability-declaring object per
backend, one ``register_backend`` call to make it real.

Before this module existed, backend knowledge lived in four parallel
registries that had to be updated in lockstep: the ``_BACKENDS`` builder
map in ``runtime/driver.py``, the legalization-declaration table in
``pipeline/legalize.py``, the if/elif capability ladder in
``autosched/target.py`` and stray string dispatch in the searcher. A
:class:`Backend` object now declares everything at once, and every
consumer — codegen dispatch, legalization, the cost model, the verifier,
the structured searcher, the measurement pool and the CLIs — *queries*
the registry instead of special-casing names (the MLIR/TensorIR
retargetability recipe; see PAPERS.md and docs/ARCHITECTURE.md).

Registering a new target is one call against this public API::

    from repro.backend import Backend, BackendCaps, register_backend

    register_backend(Backend(
        name="mytarget",
        build=my_builder,              # (func, **opts) -> run(env)
        caps=my_caps,                  # (target) -> BackendCaps
        legalization=("my_pass",),     # pass names codegen requires
        legalization_impls={"my_pass": my_pass_fn},
        target_kind="cpu",
        caps_version="1",
    ))

and the tuner, cost model, verifier, CLIs and measurement pool all pick
it up with zero further edits — proven in-tree by the blocked-NumPy
``npblock`` backend (``repro.backend.npblock``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import BackendError


class ScopeRule:
    """One declared memory-scope privacy rule: tensors of ``mtype`` are
    private to each instance of parallel kind ``kind_prefix`` (so a
    cross-thread dependence on such a tensor is impossible — the FT203
    verifier check).

    ``mtype`` is a :class:`~repro.ir.MemType` (or its string value);
    ``kind_prefix`` matches a parallel kind exactly or as a dotted
    prefix (``cuda`` matches ``cuda.blockIdx.x``).
    """

    __slots__ = ("mtype", "kind_prefix", "reason")

    def __init__(self, mtype, kind_prefix: str, reason: str):
        self.mtype = getattr(mtype, "value", str(mtype))
        self.kind_prefix = kind_prefix
        self.reason = reason

    def matches(self, kind: str, mtype) -> bool:
        mval = getattr(mtype, "value", str(mtype))
        if mval != self.mtype:
            return False
        return (kind == self.kind_prefix
                or kind.startswith(self.kind_prefix + "."))

    def __repr__(self):  # pragma: no cover
        return f"ScopeRule({self.mtype} private to {self.kind_prefix})"


class Backend:
    """A first-class backend: the single declaration every stage queries.

    - ``name`` — the registry key (what ``build(backend=...)`` takes);
    - ``build`` — the codegen entry: ``build(func, **opts) -> run(env)``
      (None for codegen-only backends such as ``cuda``, whose IR is
      executed by the simulator instead). **Input contract:** ``func``
      is legalized IR — the output of ``repro.pipeline.compile_ir`` for
      this backend, i.e. standard lowering plus every pass named in
      ``legalization`` has already run. The driver is the only caller
      and always goes through ``compile_ir``; a builder must not
      legalize again (it would re-probe and re-decode a tree the
      pipeline just produced), and whoever calls ``build`` directly owes
      it the same input;
    - ``caps`` — ``caps(target) -> BackendCaps``, the capability table
      the cost model / searcher / verifier consult;
    - ``legalization`` — ordered names of the IR-legalization passes the
      code generator requires (appended to standard lowering by
      ``repro.pipeline``);
    - ``legalization_impls`` — implementations for legalization passes
      this backend brings along (merged into the global pass table at
      registration; built-in pass names may be referenced without one);
    - ``target_kind`` — ``"cpu"`` / ``"gpu"``: which default
      :class:`~repro.autosched.target.Target` to schedule for;
    - ``scope_rules`` — declared :class:`ScopeRule` memory-scope privacy
      facts (drives the verifier's FT203 check);
    - ``caps_version`` — bump when any declaration above changes
      meaning: it is folded into the build cache key and the persistent
      disk-cache discriminators, so stale artifacts self-invalidate.
    """

    __slots__ = ("name", "build", "caps", "legalization",
                 "legalization_impls", "target_kind", "scope_rules",
                 "caps_version", "description")

    def __init__(self, name: str,
                 build: Optional[Callable] = None,
                 caps: Optional[Callable] = None,
                 legalization: Tuple[str, ...] = (),
                 legalization_impls: Optional[Dict[str, Callable]] = None,
                 target_kind: str = "cpu",
                 scope_rules: Tuple[ScopeRule, ...] = (),
                 caps_version: str = "1",
                 description: str = ""):
        if not name or not isinstance(name, str):
            raise ValueError("Backend.name must be a non-empty string")
        if target_kind not in ("cpu", "gpu"):
            raise ValueError(
                f"Backend.target_kind must be 'cpu' or 'gpu', "
                f"got {target_kind!r}")
        self.name = name
        self.build = build
        self.caps = caps
        self.legalization = tuple(legalization)
        self.legalization_impls = dict(legalization_impls or {})
        self.target_kind = target_kind
        self.scope_rules = tuple(scope_rules)
        self.caps_version = str(caps_version)
        self.description = description

    # -- queries -----------------------------------------------------------
    @property
    def runnable(self) -> bool:
        """Whether ``build()`` can execute this backend (codegen-only
        backends emit source but cannot run it here)."""
        return self.build is not None

    def capabilities(self, target=None):
        """The :class:`~repro.backend.caps.BackendCaps` for ``target``
        (default: this backend's default target)."""
        from .caps import BackendCaps

        if target is None:
            target = self.default_target()
        if self.caps is not None:
            return self.caps(target)
        # sequential scalar fallback: every annotation is a no-op
        return BackendCaps(self.name, {}, vector_width=1,
                           stride_matters=False)

    def default_target(self):
        """The default scheduling :class:`~repro.autosched.target.Target`
        for this backend (by declared ``target_kind``)."""
        from ..autosched.target import CPU, GPU

        return GPU if self.target_kind == "gpu" else CPU

    def cache_tag(self) -> str:
        """The content-key discriminator caches fold in for this
        backend: name plus ``caps_version``, so bumping the version
        invalidates every cached artifact built under the old
        declarations."""
        return f"{self.name}@{self.caps_version}"

    def format_failure(self, exc: BaseException) -> str:
        """One consistent rendering of a compile/run failure on this
        backend — used by the driver, the serial measurement path and
        the pool workers alike, so fault-injection logs and metrics
        agree on the backend name."""
        return f"{self.name}: {type(exc).__name__}: {exc}"

    def __repr__(self):  # pragma: no cover
        run = "" if self.runnable else ", codegen-only"
        return f"Backend({self.name}@{self.caps_version}{run})"


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}
_BUILTINS_LOADED = False


def _ensure_builtins():
    """Import the built-in backend declarations exactly once (lazily, so
    ``repro.backend`` never drags codegen modules in at import time)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from . import builtin  # noqa: F401  (registers interp/pycode/c/...)
    from . import npblock  # noqa: F401  (registers the npblock target)


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register ``backend`` as the single source of truth for its name.

    This is the whole public registration API: codegen dispatch
    (``build()``), legalization (``repro.pipeline``), capability queries
    (cost model, searcher, verifier), the measurement pool and the CLIs
    all resolve the object registered here. Re-registering a name raises
    unless ``replace=True`` (tests use replace to stub backends).
    """
    if not isinstance(backend, Backend):
        raise TypeError(
            f"register_backend takes a Backend object, "
            f"got {type(backend).__name__}")
    _ensure_builtins()
    if backend.name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {backend.name!r} is already registered; pass "
            f"replace=True to override")
    # validate declared legalization names against the combined table
    # (built-in passes + the impls this backend brings along)
    from ..pipeline.legalize import known_legalization_passes

    known = set(known_legalization_passes()) | set(
        backend.legalization_impls)
    for n in backend.legalization:
        if n not in known:
            raise ValueError(
                f"backend {backend.name!r} declares unknown legalization "
                f"pass {n!r}; known: {sorted(known)} (pass an "
                f"implementation via legalization_impls)")
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _ensure_builtins()
    _REGISTRY.pop(name, None)


def find_backend(name: str) -> Optional[Backend]:
    """The registered Backend for ``name``, or None."""
    _ensure_builtins()
    return _REGISTRY.get(name)


def get_backend(name: str) -> Backend:
    """The registered Backend for ``name``; raises
    :class:`~repro.errors.BackendError` naming the available ones."""
    b = find_backend(name)
    if b is None:
        raise BackendError(
            f"unknown backend {name!r}; available: "
            f"{available_backends(runnable_only=False)}")
    return b


def available_backends(runnable_only: bool = True) -> List[str]:
    """Sorted names of registered backends (by default only the ones
    ``build()`` can execute — what CLI ``--backend`` choices offer)."""
    _ensure_builtins()
    return sorted(n for n, b in _REGISTRY.items()
                  if b.runnable or not runnable_only)


def backend_caps(name: str, target=None):
    """Capability table for ``name`` on ``target`` — the query behind
    ``Target.capabilities``. Unknown names get the sequential-scalar
    fallback (every annotation a no-op), preserving the cost model's
    historical behaviour for ad-hoc backend strings."""
    from .caps import BackendCaps

    b = find_backend(name)
    if b is None:
        return BackendCaps(name, {}, vector_width=1, stride_matters=False)
    return b.capabilities(target)


def backend_cache_tag(name: str) -> str:
    """``name@caps_version`` for cache keys (plain ``name`` when the
    backend is not registered — nothing declared, nothing to version)."""
    b = find_backend(name)
    return b.cache_tag() if b is not None else name


def scope_violation(kind: str, mtype) -> str:
    """Why a dependence on a tensor of ``mtype`` cannot cross iterations
    of a loop parallelized as ``kind`` — per the scope rules registered
    backends declare — or '' when no declared rule applies (the FT203
    verifier query)."""
    _ensure_builtins()
    for b in _REGISTRY.values():
        for rule in b.scope_rules:
            if rule.matches(kind, mtype):
                return rule.reason
    return ""


def legalization_impl(name: str) -> Optional[Callable]:
    """A legalization pass implementation contributed by a registered
    backend (``legalization_impls``), or None."""
    _ensure_builtins()
    for b in _REGISTRY.values():
        fn = b.legalization_impls.get(name)
        if fn is not None:
            return fn
    return None
