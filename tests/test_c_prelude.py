"""A C unit declares only what its code calls.

``CCodegen`` emits ``<stdint.h>`` / ``<stddef.h>`` plus the prototypes and
helpers the unit uses, and spells the special float constants as the gcc
builtins ``<math.h>`` expands them to. The prelude every unit used to carry
(``<stdlib.h>``, ``<math.h>``, ``<omp.h>`` and five helpers) is kept below
as the reference: each unit compiled with either gives the same assembly,
up to the numbers of gcc's function-boundary labels (the unused helpers of
the old prelude still consume some).
"""

import inspect
import re
import shutil
import subprocess

import pytest

import repro as ft
from repro.ad import grad
from repro.codegen.ccode import _INTRIN_C, CCodegen, compile_func_native
from repro.ir import DataType, For, Func, Load, Store, Var, VarDef
from repro.ir import expr as E
from repro.pipeline import compile_ir
from repro.schedule import Schedule
from repro.workloads import ALL

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None,
                                reason="needs gcc")

OLD_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#endif

static inline int64_t ft_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int64_t ft_mod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline double ft_sigmoid(double x) { return 1.0/(1.0+exp(-x)); }
static inline float ft_sigmoidf(float x) { return 1.0f/(1.0f+expf(-x)); }

static void ft_matmul(double alpha_unused, const float* A, const float* B,
                      float* C, int64_t M, int64_t N, int64_t K,
                      int ta, int tb, int accumulate) {
    (void)alpha_unused;
    for (int64_t i = 0; i < M; i++) {
        for (int64_t j = 0; j < N; j++) {
            float acc = accumulate ? C[i*N + j] : 0.0f;
            for (int64_t k = 0; k < K; k++) {
                float a = ta ? A[k*M + i] : A[i*K + k];
                float b = tb ? B[j*K + k] : B[k*N + j];
                acc += a * b;
            }
            C[i*N + j] = acc;
        }
    }
}
"""

#: the flags the C backend compiles with, as assembly
FLAGS = inspect.signature(compile_func_native).parameters["opt"].default \
    .split() + ["-fopenmp", "-fPIC", "-S"]
GRAD_REQUIRES = {"subdivnet": ["e", "w"], "longformer": ["q", "k", "v"],
                 "softras": ["verts"]}


def _assembly(src, path):
    path.write_text(src)
    out = subprocess.run(["gcc", *FLAGS, "-Werror=implicit-function-"
                          "declaration", "-o", "-", str(path)], check=True,
                         capture_output=True, text=True).stdout
    out = re.sub(r"\.LF[BE]\d+", ".LF", out)
    return [l for l in out.splitlines() if not l.lstrip().startswith(".file")]


class _MathH(CCodegen):
    """The code generator as it spelled the special float constants."""

    INF, NAN = "INFINITY", "NAN"


def _check_unit(func, tmp_path):
    """``func``'s unit compiles as it did under the old prelude, and it
    declares nothing its code does not call."""
    gen = CCodegen(func)
    src = gen.generate()
    ref = _MathH(func)
    old = OLD_PRELUDE + ref.generate()[len(ref.prelude()):]
    for header in ("stdlib.h", "math.h", "omp.h"):
        assert header not in src
    for fn in gen.used:  # declared once, called at least once
        assert len(re.findall(rf"\b{fn}\(", src)) >= 2, fn
    assert _assembly(src, tmp_path / "new.c") == \
        _assembly(old, tmp_path / "old.c")


def _cold_units():
    """The units a cold compile of the benchmark's program set builds."""
    for name in sorted(ALL):
        yield name, None
        if name in GRAD_REQUIRES:
            yield name, "fwd"
            yield name, "bwd"


@pytest.mark.parametrize("name, part", list(_cold_units()))
def test_a_cold_unit(name, part, tmp_path):
    prog = ALL[name].make_program()
    if part is None:
        func = compile_ir(prog.func, backend="c", optimize=True)
    else:
        gp = grad(prog, requires=GRAD_REQUIRES[name])
        func = compile_ir(getattr(gp, part), backend="c")
    _check_unit(func, tmp_path)


def _elementwise(value, dtype):
    i = Var("i")
    x = Load("x", [i], dtype)
    body = For("i", 0, 8, Store("y", [i], value(x, i)))
    body = VarDef("y", [8], dtype, "output", "cpu", body)
    body = VarDef("x", [8], dtype, "input", "cpu", body)
    return compile_ir(Func("f", ["x"], ["y"], body), backend="c")


@pytest.mark.parametrize("dtype", [DataType.FLOAT32, DataType.FLOAT64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("name", sorted(_INTRIN_C))
def test_an_intrinsic(name, dtype, tmp_path):
    func = _elementwise(lambda x, i: E.Intrinsic(name, [x], dtype), dtype)
    _check_unit(func, tmp_path)


def test_pow_quotients_and_special_floats(tmp_path):
    def value(x, i):
        inf, nan = E.FloatConst(float("inf")), E.FloatConst(float("nan"))
        pick = E.IfExpr(i // 3 < i % 3, inf, E.FloatConst(float("-inf")))
        return E.Intrinsic("pow", [x, x], DataType.FLOAT32) + pick + nan

    _check_unit(_elementwise(value, DataType.FLOAT32), tmp_path)


def test_a_library_call(tmp_path):
    @ft.transform
    def f(a: ft.Tensor[(5, 7), "f32", "input"],
          b: ft.Tensor[(7, 3), "f32", "input"]):
        c = ft.zeros((5, 3), "f32")
        ft.label("Li")
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    c[i, j] += a[i, k] * b[k, j]
        return c

    s = Schedule(f)
    s.as_lib("Li")
    func = compile_ir(s.func, backend="c")
    assert "ft_matmul" in CCodegen(func).generate()
    _check_unit(func, tmp_path)
