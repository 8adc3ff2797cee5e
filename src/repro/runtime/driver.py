"""Driver: binds NumPy arrays to IR parameters and runs a backend.

``build(program_or_func, target=..., backend=...)`` returns an
:class:`Executable`. Calling it:

1. binds positional NumPy arrays to the function's tensor parameters that
   require caller data (``input`` / ``inout``);
2. infers by-value scalar parameters (symbolic shape variables) by unifying
   declared shapes with the actual array shapes — explicit keyword arguments
   override / supplement inference;
3. allocates ``output`` parameters and returned tensors;
4. runs the backend and returns the outputs (a single array or a tuple).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import (available_backends, backend_cache_tag, get_backend,
                       register_backend)
from ..errors import BackendError, InvalidProgram
from ..ir import (AccessType, Const, Expr, Func, IntConst, Var, VarDef,
                  defined_tensors, struct_hash, substitute)
from ..frontend.staging import Program
from ..state import BoundedMemo, Counters

__all__ = ["Executable", "bind_cache_stats", "build", "build_cache_stats",
           "clear_build_cache", "register_backend",
           "reset_bind_cache_stats"]

#: content-addressed build cache: (IR hash, backend, optimize, target,
#: opts) -> Executable. Executables are stateless between calls, so a
#: cached one can be handed to any number of callers.
_BUILD_CACHE = BoundedMemo("build", 1024)

#: hit/miss counters of the content-addressed build cache
_BUILD_STATS = Counters("build", hits=0, misses=0, uncacheable=0)

clear_build_cache = _BUILD_CACHE.clear
build_cache_stats = _BUILD_STATS.snapshot

#: process-wide counters of the per-shape-signature binding-plan memos
#: (every Executable's plans folded together, see
#: :meth:`Executable._bind`); surfaced as compile_cache_stats()["bind"]
_BIND_STATS = Counters("bind", plan_hits=0, plan_misses=0,
                       plan_uncacheable=0)

bind_cache_stats = _BIND_STATS.snapshot
reset_bind_cache_stats = _BIND_STATS.reset


class _BindPlan:
    """A validated binding recipe for one exact call signature.

    Everything ``_bind`` derives from the *shapes* of a call — inferred
    shape scalars, per-parameter target dtypes, output allocation shapes
    — is a pure function of the signature key, so repeat calls with the
    same key replay the recipe and skip re-validation and dim inference
    entirely. Only genuinely per-call properties (contiguity, the need
    to cast this particular array) are still checked on the hit path.
    """

    __slots__ = ("params", "scalars", "outs")

    def __init__(self, params, scalars, outs):
        #: [(name, target numpy dtype)] in data_params order
        self.params = params
        #: name -> int for every scalar/shape variable, fully inferred
        self.scalars = scalars
        #: [(name, shape tuple, numpy dtype)] the driver must allocate
        self.outs = outs


def _target_key(target):
    if target is None:
        return None
    key = getattr(target, "cache_key", None)
    if callable(key):
        return key()
    return repr(target)


def _build_cache_key(func, backend, optimize, target, opts):
    """The cache key, or None when some option defies content hashing.

    The backend component is its registry ``cache_tag``
    (``name@caps_version``), so bumping a Backend's declared version
    invalidates cached Executables built under the old declarations.
    """
    items = []
    for k in sorted(opts):
        v = opts[k]
        if not isinstance(v, (str, int, float, bool, type(None))):
            return None  # stateful opts (metrics sinks, devices): no cache
        items.append((k, v))
    return (struct_hash(func), backend_cache_tag(backend), bool(optimize),
            _target_key(target), tuple(items))


class Executable:
    """A compiled DSL function, callable on NumPy arrays.

    **Concurrency contract.** ``__call__`` is safe to invoke from many
    threads at once on the same Executable: every call binds a fresh
    environment (freshly-allocated outputs, per-call converted inputs)
    and the built-in runnable backends (``pycode``, ``npblock``, ``c``,
    ``interp``, ``gpusim``) keep no per-call mutable state in their run
    functions — the ``c`` backend additionally releases the GIL for the
    duration of the native call. Two caveats:

    - an Executable built with a stateful option (e.g. a ``metrics``
      sink for ``interp``/``gpusim``) shares that sink across calls;
      concurrent callers race on its counters unless they synchronize
      or build one Executable per thread;
    - input arrays are read (and ``inout`` parameters written) without
      locking — callers must not mutate an array another thread is
      concurrently passing to the same call.

    The per-signature binding-plan memo below is guarded by a lock on
    the store side and relies on GIL-atomic dict reads on the hit path,
    so concurrent first calls at a new signature are safe (both compute
    the plan; one wins the store).
    """

    #: distinct call signatures memoized per Executable; past it the
    #: oldest plan is evicted (a served batched program sees every batch
    #: size as its own signature, so wholesale clearing would thrash)
    _PLAN_LIMIT = 64

    def __init__(self, func: Func, run_fn, backend: str,
                 compile_times: Optional[Dict[str, float]] = None):
        self.func = func
        self.backend = backend
        self._run = run_fn
        #: per-phase compile wall-clock seconds: one entry per pipeline
        #: pass (flatten/simplify/auto_parallelize/...), plus codegen
        #: and, when gated, verify
        self.compile_times: Dict[str, float] = dict(compile_times or {})
        self._defs = defined_tensors(func.body)
        # Parameters the caller must provide data for, in order.
        self.data_params: List[str] = [
            p for p in func.params
            if self._defs[p].atype in (AccessType.INPUT, AccessType.INOUT)
        ]
        # Parameters the driver allocates (output) or hands back (inout).
        self.out_params: List[str] = [
            p for p in func.params
            if self._defs[p].atype in (AccessType.OUTPUT, AccessType.INOUT)
        ]
        self.returns: List[str] = list(
            dict.fromkeys(self.out_params + list(func.returns)))
        #: signature key -> _BindPlan (see _bind)
        self._plans: Dict[tuple, _BindPlan] = {}
        self._plans_lock = threading.Lock()

    # -- shape/scalars inference ------------------------------------------
    @staticmethod
    def _plan_key(converted: List[np.ndarray], scalars
                  ) -> Optional[tuple]:
        """The signature a binding plan is memoized under, or None for
        calls whose scalars defy hashing (then every call re-validates).
        """
        try:
            # dtype objects, as in StackStrategy.bucket_key: equal dtypes
            # hash equal and .str builds a new string on every call
            return (tuple((a.shape, a.dtype) for a in converted),
                    tuple(sorted((k, int(v)) for k, v in scalars.items())))
        except (TypeError, ValueError):
            return None

    def _bind_from_plan(self, plan: _BindPlan,
                        converted: List[np.ndarray]) -> Dict[str, object]:
        env: Dict[str, object] = {}
        for (name, np_dt), arr in zip(plan.params, converted):
            if arr.dtype != np_dt:
                arr = arr.astype(np_dt)
            if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)
            env[name] = arr
        env.update(plan.scalars)
        for name, shape, np_dt in plan.outs:
            env[name] = np.zeros(shape, dtype=np_dt)
        return env

    def _bind(self, arrays, scalars) -> Dict[str, object]:
        """Bind a call to an environment, via the per-signature plan memo.

        The first call at a given (shapes, dtypes, scalars) signature
        runs the full validation/inference path and records a
        :class:`_BindPlan`; repeat calls replay it.
        """
        converted = [np.asarray(a) for a in arrays]
        key = None
        if len(converted) == len(self.data_params):
            key = self._plan_key(converted, scalars)
            if key is not None:
                plan = self._plans.get(key)
                if plan is not None:
                    _BIND_STATS.add("plan_hits")
                    return self._bind_from_plan(plan, converted)
                _BIND_STATS.add("plan_misses")
            else:
                _BIND_STATS.add("plan_uncacheable")
        env, plan = self._bind_slow(converted, scalars)
        if key is not None:
            with self._plans_lock:
                if key not in self._plans and \
                        len(self._plans) >= self._PLAN_LIMIT:
                    del self._plans[next(iter(self._plans))]
                self._plans[key] = plan
        return env

    def _bind_slow(self, converted: List[np.ndarray], scalars
                   ) -> Tuple[Dict[str, object], _BindPlan]:
        arrays = converted
        if len(arrays) != len(self.data_params):
            raise InvalidProgram(
                f"{self.func.name} expects {len(self.data_params)} arrays "
                f"({', '.join(self.data_params)}), got {len(arrays)}")
        env: Dict[str, object] = {}
        sc: Dict[str, int] = {
            k: int(v)
            for k, v in scalars.items() if k in self.func.scalar_params
        }
        extra = set(scalars) - set(sc)
        if extra:
            raise InvalidProgram(f"unknown scalar parameters: {sorted(extra)}")
        # Unify declared shapes against actual shapes (arrays were
        # converted to ndarrays exactly once, in _bind).
        for name, arr in zip(self.data_params, arrays):
            vd = self._defs[name]
            if arr.ndim != vd.ndim:
                raise InvalidProgram(
                    f"parameter {name!r} expects {vd.ndim}-D {vd.dtype} "
                    f"data of shape ({self._shape_str(vd)}), got "
                    f"{arr.ndim}-D {arr.dtype} of shape "
                    f"{tuple(arr.shape)}")
            for dim, (dim_expr, actual) in enumerate(zip(vd.shape,
                                                         arr.shape)):
                self._unify(dim_expr, int(actual), sc, name, dim)
        # Verify every dim and scalar is now known.
        for p in self.func.scalar_params:
            if p not in sc:
                raise InvalidProgram(
                    f"scalar parameter {p!r} cannot be inferred from input "
                    f"shapes; pass it as a keyword argument")
        # Check dims and convert dtypes. (np.ascontiguousarray promotes
        # 0-D arrays to 1-D, so contiguity is handled separately.)
        plan_params = []
        for name, arr in zip(self.data_params, arrays):
            vd = self._defs[name]
            plan_params.append((name, vd.dtype.to_numpy()))
            if arr.dtype != vd.dtype.to_numpy():
                arr = arr.astype(vd.dtype.to_numpy())
            if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)
            expect = tuple(self._eval_dim(d, sc) for d in vd.shape)
            if tuple(arr.shape) != expect:
                raise InvalidProgram(
                    f"parameter {name!r} expects {vd.dtype} data of shape "
                    f"{expect} (declared ({self._shape_str(vd)})), got "
                    f"{arr.dtype} of shape {tuple(arr.shape)}")
            env[name] = arr
        env.update(sc)
        # Allocate outputs.
        plan_outs = []
        for name in self.returns:
            if name in env:
                continue
            vd = self._defs[name]
            shape = tuple(self._eval_dim(d, sc) for d in vd.shape)
            plan_outs.append((name, shape, vd.dtype.to_numpy()))
            env[name] = np.zeros(shape, dtype=vd.dtype.to_numpy())
        return env, _BindPlan(plan_params, dict(sc), plan_outs)

    @staticmethod
    def _shape_str(vd: VarDef) -> str:
        from ..ir.printer import print_expr

        return ", ".join(print_expr(d) for d in vd.shape)

    @staticmethod
    def _unify(dim_expr: Expr, actual: int, sc: Dict[str, int], pname: str,
               dim: int):
        if isinstance(dim_expr, Var):
            prev = sc.setdefault(dim_expr.name, actual)
            if prev != actual:
                raise InvalidProgram(
                    f"conflicting sizes for shape variable "
                    f"{dim_expr.name!r}: dimension {dim} of parameter "
                    f"{pname!r} is {actual}, but an earlier parameter "
                    f"implies {prev}")
        elif isinstance(dim_expr, IntConst):
            if dim_expr.val != actual:
                raise InvalidProgram(
                    f"parameter {pname!r}: dimension {dim} expects extent "
                    f"{dim_expr.val}, got {actual}")
        # Composite dimension expressions are checked after inference.

    @staticmethod
    def _eval_dim(d: Expr, sc: Dict[str, int]) -> int:
        if not isinstance(d, Const):
            # integer arithmetic over the shape scalars, all known by
            # now: substituting them folds it
            d = substitute(d, {k: IntConst(v) for k, v in sc.items()})
            if not isinstance(d, Const):
                raise InvalidProgram(f"cannot evaluate dimension {d}")
        return int(d.val)

    # -- running ----------------------------------------------------------
    def run_env(self, env: Dict[str, object]):
        """Run on a pre-built environment (advanced use, e.g. metrics)."""
        self._run(env)
        return env

    def __call__(self, *arrays, **scalars):
        env = self._bind(arrays, scalars)
        self._run(env)
        outs = [env[n] for n in self.returns]
        if not outs:
            return None
        if len(outs) == 1:
            return outs[0]
        return tuple(outs)

    @property
    def source(self) -> Optional[str]:
        """Generated backend source, if the backend produces source code
        (resolved on first use when a stored kernel was loaded)."""
        src = getattr(self._run, "__ft_source__", None)
        if callable(src):
            src = self._run.__ft_source__ = src()
        return src

    @property
    def compile_time_total(self) -> float:
        """Total compile wall-clock (0.0 for a cache-served Executable's
        second caller — compilation happened once, earlier)."""
        return sum(self.compile_times.values())


def _as_func(program_or_func) -> Func:
    if isinstance(program_or_func, Program):
        return program_or_func.func
    if isinstance(program_or_func, Func):
        return program_or_func
    raise TypeError(
        f"expected a Program or Func, got {type(program_or_func).__name__}")


def build(program_or_func,
          backend: str = "pycode",
          optimize: bool = False,
          target=None,
          verify: bool = False,
          **opts) -> Executable:
    """Compile a staged program (or a raw Func) into an Executable.

    ``optimize=True`` runs the standard lowering pipeline and the rule-based
    auto-schedule for ``target`` before code generation (see
    ``repro.autosched``).

    ``verify=True`` runs the whole-program verifier (``repro.verify``) on
    the scheduled/lowered IR before code generation and raises
    :class:`~repro.errors.VerificationError` on any error-severity finding.
    """
    func = _as_func(program_or_func)
    want_verify = bool(verify)
    key = _build_cache_key(func, backend, optimize, target, opts)
    if key is not None:
        # want_verify is part of the key: a cached unverified Executable
        # must not satisfy a verifying build (or vice versa).
        key = key + (want_verify,)
        hit = _BUILD_CACHE.get(key)
        if hit is not None:
            _BUILD_STATS.add("hits")
            return hit
        _BUILD_STATS.add("misses")
    else:
        _BUILD_STATS.add("uncacheable")
    times: Dict[str, float] = {}
    # The one authoritative compile path (shared with the verify CLI and
    # the auto-scheduler): a pass-manager Pipeline of standard lowering,
    # backend-declared legalization and codegen prep — with the schedule
    # rule passes in front when optimizing. Per-pass wall-clock lands in
    # ``times`` under each pass's name.
    from ..pipeline import compile_ir

    func = compile_ir(func, backend=backend, target=target,
                      optimize=optimize, times=times)
    if want_verify:
        from ..analysis.verify import verify as run_verifier

        t0 = time.perf_counter()
        run_verifier(func).raise_if_errors()
        times["verify"] = time.perf_counter() - t0
    b = get_backend(backend)
    if not b.runnable:
        raise BackendError(
            f"backend {b.name!r} is codegen-only (emits source but "
            f"cannot execute it here); runnable backends: "
            f"{available_backends()}")
    t0 = time.perf_counter()
    run_fn = b.build(func, target=target, **opts)
    times["codegen"] = time.perf_counter() - t0
    exe = Executable(func, run_fn, b.name, compile_times=times)
    if key is not None:
        _BUILD_CACHE.put(key, exe)
    return exe
