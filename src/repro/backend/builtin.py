"""Built-in backend declarations.

Each block below is the *entire* statement of one backend: builder
(codegen entry), capability table, legalization requirements, default
target kind and memory-scope rules. The declarations that used to be
scattered across ``runtime/driver.py`` (builders), ``pipeline/
legalize.py`` (legalization table) and ``autosched/target.py`` (the
capability if/elif ladder) all live here now, behind one
``register_backend`` call per backend.
"""

from __future__ import annotations

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


def _caps_interp(target, _name="interp"):
    # sequential scalar evaluation; every annotation is a no-op
    return BackendCaps(_name, {}, vector_width=1, stride_matters=False)


INTERP = register_backend(Backend(
    name="interp",
    build=_build_interp,
    caps=_caps_interp,
    target_kind="cpu",
    caps_version="1",
    description="reference interpreter (scalar, sequential)",
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
    description="generated Python with NumPy vector kernels",
))


# ---------------------------------------------------------------------------
# c: native code via gcc (OpenMP + simd)
# ---------------------------------------------------------------------------


def _build_c(func, **opts):
    from ..codegen.ccode import compile_func_native

    return compile_func_native(func, **opts)


def _caps_c(target):
    from ..pipeline import simd_body_ok

    return BackendCaps(
        "c",
        {"openmp": target.num_threads},
        vector_width=target.vector_width,
        stride_matters=True,
        vec_feasible=lambda s: simd_body_ok(s.body),
        parallel_ann_kind="openmp")


C = register_backend(Backend(
    name="c",
    build=_build_c,
    caps=_caps_c,
    legalization=("simd_suppress",),
    target_kind="cpu",
    caps_version="1",
    description="native C via gcc (OpenMP parallel, omp simd)",
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
    return BackendCaps(
        _name,
        {"cuda.blockIdx": None,
         "cuda.threadIdx": target.block_size,
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
    description="simulated CUDA device (interprets cuda.* annotations)",
))


# ---------------------------------------------------------------------------
# cuda: codegen-only (emits CUDA C++ source; executed by gpusim)
# ---------------------------------------------------------------------------

CUDA = register_backend(Backend(
    name="cuda",
    build=None,  # no GPU/nvcc here: source is golden-tested, not run
    caps=lambda t: _caps_gpusim(t, "cuda"),
    legalization=("simd_suppress",),
    target_kind="gpu",
    scope_rules=_GPU_SCOPE_RULES,
    caps_version="1",
    description="CUDA C++ source generator (codegen-only)",
))
