"""The unified backend registry: one capability-declaring object per
backend, one ``register_backend`` call to make it real.

A :class:`Backend` object declares everything backend-specific at once,
and every consumer — codegen dispatch, legalization, the cost model, the
verifier, the structured searcher, the measurement pool and the CLIs —
asks the registry, by one :func:`get_backend` lookup that raises
:class:`~repro.errors.BackendError` on an unknown name, instead of
special-casing names (the MLIR/TensorIR retargetability recipe; see
PAPERS.md and docs/ARCHITECTURE.md).

Registering a new target is one call against this public API::

    from repro.backend import Backend, BackendCaps, register_backend
    from repro.pipeline import Pass

    register_backend(Backend(
        name="mytarget",
        build=my_builder,                         # (func, **opts) -> run(env)
        caps=my_caps,                             # (target) -> BackendCaps
        legalization=(Pass("my_pass", my_fn),),   # passes codegen requires
        target_kind="cpu",
        caps_version="1",
    ))

and the tuner, cost model, verifier, CLIs and measurement pool all pick
it up with zero further edits — proven in-tree by the blocked-NumPy
``npblock`` backend (``repro.backend.npblock``).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import BackendError
from .caps import BackendCaps


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
      this backend, i.e. standard lowering plus every pass in
      ``legalization`` has already run. The driver is the only caller
      and always goes through ``compile_ir``; a builder must not
      legalize again (it would re-probe and re-decode a tree the
      pipeline just produced), and whoever calls ``build`` directly owes
      it the same input;
    - ``caps`` — ``caps(target) -> BackendCaps``, the capability table
      the cost model / searcher / verifier consult (None: sequential
      scalar evaluation, every annotation a no-op);
    - ``legalization`` — the ordered :class:`~repro.pipeline.Pass`
      objects the code generator requires (appended to standard
      lowering by ``repro.pipeline``);
    - ``target_kind`` — ``"cpu"`` / ``"gpu"``: which default
      :class:`~repro.autosched.target.Target` to schedule for;
    - ``scope_rules`` — declared :class:`ScopeRule` memory-scope privacy
      facts (drives the verifier's FT203 check);
    - ``caps_version`` — bump when any declaration above changes
      meaning: it is folded into the build cache key and the persistent
      disk-cache discriminators (``backend_cache_tag``), so stale
      artifacts self-invalidate. The schema tag's source digest covers
      the package's own backends; for one registered from outside the
      package this is the only invalidation.
    """

    __slots__ = ("name", "build", "caps", "legalization", "target_kind",
                 "scope_rules", "caps_version")

    def __init__(self, name: str,
                 build: Optional[Callable] = None,
                 caps: Optional[Callable] = None,
                 legalization: Tuple = (),
                 target_kind: str = "cpu",
                 scope_rules: Tuple[ScopeRule, ...] = (),
                 caps_version: str = "1"):
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
        self.target_kind = target_kind
        self.scope_rules = tuple(scope_rules)
        self.caps_version = str(caps_version)

    @property
    def runnable(self) -> bool:
        """Whether ``build()`` can execute this backend (codegen-only
        backends emit source but cannot run it here)."""
        return self.build is not None

    def __repr__(self):  # pragma: no cover
        run = "" if self.runnable else ", codegen-only"
        return f"Backend({self.name}@{self.caps_version}{run})"


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}
_BUILTINS_LOCK = threading.RLock()
_builtins = "unloaded"  # -> "loading" (one thread) -> "loaded"


def _ensure_builtins():
    """Import the built-in backend declarations exactly once (lazily, so
    ``repro.backend`` never drags codegen modules in at import time).

    A thread that arrives while another is importing them (a thread-mode
    server's dispatchers make their first builds at once) waits for the
    whole set instead of reading a half-filled registry; the importing
    thread's own registrations re-enter the lock and pass."""
    global _builtins
    if _builtins == "loaded":
        return
    with _BUILTINS_LOCK:
        if _builtins != "unloaded":
            return
        _builtins = "loading"
        from . import builtin  # noqa: F401  (registers interp/pycode/c/...)
        from . import npblock  # noqa: F401  (registers the npblock target)
        _builtins = "loaded"


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
    """The :class:`~repro.backend.caps.BackendCaps` of backend ``name``
    on ``target`` (default: the backend's default target) — the one
    capability query the cost model, the searcher and the verifier
    make."""
    b = get_backend(name)
    if b.caps is None:
        # sequential scalar evaluation: every annotation is a no-op
        return BackendCaps(b.name, {}, vector_width=1, stride_matters=False)
    if target is None:
        from ..autosched.target import default_target

        target = default_target(name)
    return b.caps(target)


def backend_cache_tag(name: str) -> str:
    """The content-key discriminator caches fold in for backend
    ``name``: the name plus ``caps_version``, so bumping the version
    invalidates every cached artifact built under the old
    declarations."""
    b = get_backend(name)
    return f"{b.name}@{b.caps_version}"


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
