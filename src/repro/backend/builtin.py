"""Built-in backend declarations.

Each block below is the *entire* statement of one backend: builder
(codegen entry), capability table, legalization passes, default target
kind and memory-scope rules, behind one ``register_backend`` call per
backend.
"""

from __future__ import annotations

from ..ir import For, Func, Mutator, ReduceTo, Stmt, collect_stmts
from ..pipeline import Pass
from .caps import BackendCaps
from .registry import Backend, ScopeRule, register_backend

# ---------------------------------------------------------------------------
# interp: the reference interpreter
# ---------------------------------------------------------------------------


def _build_interp(func, metrics=None, **_opts):
    from ..runtime.interpreter import Interpreter

    interp = Interpreter(metrics=metrics)

    def run(env):
        interp.run(func, env)

    return run


INTERP = register_backend(Backend(
    name="interp",
    build=_build_interp,
    caps=None,  # sequential scalar evaluation: every annotation a no-op
    target_kind="cpu",
    caps_version="1",
))


# ---------------------------------------------------------------------------
# pycode: generated Python/NumPy source
# ---------------------------------------------------------------------------


def _build_pycode(func, **_opts):
    from ..codegen.pycode import compile_func

    kernel = compile_func(func)
    interface = func.interface_tensors()

    def run(env):
        args = [env[p] for p in interface]
        args += [env[p] for p in func.scalar_params]
        kernel(*args)

    run.__ft_source__ = kernel.__ft_source__
    return run


def _caps_pycode(target):
    from ..codegen.pycode import loop_vectorizes

    # sequential in one Python process: openmp/cuda markings are
    # ignored, but `vectorize` lowers the whole loop to one NumPy kernel
    return BackendCaps("pycode", {}, vector_width=None,
                       stride_matters=False,
                       vec_feasible=loop_vectorizes)


PYCODE = register_backend(Backend(
    name="pycode",
    build=_build_pycode,
    caps=_caps_pycode,
    legalization=(),  # interprets vectorize markings itself
    target_kind="cpu",
    caps_version="1",
))


# ---------------------------------------------------------------------------
# c: native code via gcc (OpenMP + simd)
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
    ``omp simd`` region (nested parallel loops, atomic min/max), so the
    code generators emit every remaining marking as-is."""
    return _SuppressIllegalSimd()(func)


SIMD_SUPPRESS = Pass("simd_suppress", suppress_illegal_simd)


def _build_c(func, **opts):
    from ..codegen.ccode import compile_func_native

    return compile_func_native(func, **opts)


def _caps_c(target):
    from ..autosched.target import VECTOR_WIDTH

    return BackendCaps(
        "c",
        {"openmp": target.num_threads},
        vector_width=VECTOR_WIDTH,
        stride_matters=True,
        vec_feasible=lambda s: simd_body_ok(s.body),
        parallel_ann_kind="openmp")


C = register_backend(Backend(
    name="c",
    build=_build_c,
    caps=_caps_c,
    legalization=(SIMD_SUPPRESS,),
    target_kind="cpu",
    caps_version="1",
))


# ---------------------------------------------------------------------------
# gpusim: the simulated CUDA device
# ---------------------------------------------------------------------------

_GPU_SCOPE_RULES = (
    ScopeRule("gpu/local", "cuda",
              "gpu/local memory is private to each thread"),
    ScopeRule("gpu/shared", "cuda.blockIdx",
              "gpu/shared memory is private to each thread block"),
)


def _build_gpusim(func, device=None, metrics=None, **_opts):
    from ..runtime.gpusim import GPUSimulator

    sim = GPUSimulator(device=device, metrics=metrics)

    def run(env):
        sim.run(func, env)

    return run


def _caps_gpusim(target, _name="gpusim"):
    from ..autosched.target import BLOCK_SIZE

    return BackendCaps(
        _name,
        {"cuda.blockIdx": None,
         "cuda.threadIdx": BLOCK_SIZE,
         "openmp": target.num_threads},
        vector_width=32,
        stride_matters=True,
        parallel_ann_kind="cuda.blockIdx.x",
        memory_scopes=("cpu", "gpu/global", "gpu/shared", "gpu/local"))


GPUSIM = register_backend(Backend(
    name="gpusim",
    build=_build_gpusim,
    caps=_caps_gpusim,
    target_kind="gpu",
    scope_rules=_GPU_SCOPE_RULES,
    caps_version="1",
))


# ---------------------------------------------------------------------------
# cuda: codegen-only (emits CUDA C++ source; executed by gpusim)
# ---------------------------------------------------------------------------

CUDA = register_backend(Backend(
    name="cuda",
    build=None,  # no GPU/nvcc here: source is golden-tested, not run
    caps=lambda t: _caps_gpusim(t, "cuda"),
    legalization=(SIMD_SUPPRESS,),
    target_kind="gpu",
    scope_rules=_GPU_SCOPE_RULES,
    caps_version="1",
))
