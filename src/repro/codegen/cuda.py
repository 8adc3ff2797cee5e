"""CUDA backend: IR -> CUDA C++ source (text).

There is no GPU (or nvcc) in this environment, so this backend emits the
source a GPU build would compile — outermost loops bound to
``cuda.blockIdx.*`` / ``cuda.threadIdx.*`` become ``__global__`` kernels
with grid/block launches, ``gpu/shared`` tensors become ``__shared__``
arrays, and atomic reductions use ``atomicAdd``. Output is validated by
golden tests; *execution* of CUDA-scheduled programs happens on the
simulated device (``repro.runtime.gpusim``), which interprets the same IR.
"""

from __future__ import annotations

from typing import List, Tuple

from ..ir import For, Func, MemType, Stmt, VarDef
from ..ir import stmt as S
from ..pipeline import legalize
from .ccode import CCodegen, _CTYPE

# nvcc shares gcc's restrictions on what may appear inside a simd
# region; simd_suppress is declared on the "cuda" Backend object in
# repro.backend.builtin

_AXES = {"x": 0, "y": 1, "z": 2}


def _parallel_kind(loop: For) -> Tuple[str, str]:
    """("block"| "thread", axis) for a CUDA-annotated loop."""
    p = loop.property.parallel or ""
    if p.startswith("cuda.blockIdx."):
        return "block", p[-1]
    if p.startswith("cuda.threadIdx."):
        return "thread", p[-1]
    return "", ""


class CUDACodegen(CCodegen):
    """Generates one translation unit: kernels plus a host entry."""

    INF, NAN = "INFINITY", "NAN"  # the unit includes <math.h>

    def __init__(self, func: Func):
        super().__init__(func)
        self.kernels: List[str] = []
        self._kernel_id = 0

    # -- statement overrides --------------------------------------------------
    def pstmt(self, s: Stmt, indent: int):
        if isinstance(s, S.ReduceTo) and s.atomic:
            if s.op == "+":
                self.line(indent,
                          f"atomicAdd(&{self._index(s.var, s.indices)}, "
                          f"{self.pexpr(s.expr)});")
                return
            if s.op in ("min", "max"):
                fn = "atomicMin" if s.op == "min" else "atomicMax"
                self.line(indent,
                          f"{fn}(&{self._index(s.var, s.indices)}, "
                          f"{self.pexpr(s.expr)});")
                return
        super().pstmt(s, indent)

    def _gen_vardef(self, s: VarDef, indent: int):
        if s.name in self.param_set:
            self.pstmt(s.body, indent)
            return
        name = self.mangle(s.name)
        ct = _CTYPE[s.dtype]
        if s.mtype is MemType.GPU_SHARED:
            size = " * ".join(f"({self.pexpr(d)})"
                              for d in s.shape) or "1"
            self.line(indent, f"__shared__ {ct} {name}[{size}];")
            self.pstmt(s.body, indent)
            return
        if s.ndim == 0 or s.mtype is MemType.GPU_LOCAL:
            if s.ndim == 0:
                self.scalar_vars.add(s.name)
                self.line(indent, f"{ct} {name} = 0;")
            else:
                size = " * ".join(f"({self.pexpr(d)})"
                                  for d in s.shape) or "1"
                self.line(indent, f"{ct} {name}[{size}];")
            self.pstmt(s.body, indent)
            return
        # global-memory temporaries inside kernels are not supported; a
        # schedule should set_mtype them or hoist them out
        super()._gen_vardef(s, indent)

    def _gen_for(self, s: For, indent: int):
        kind, axis = _parallel_kind(s)
        it = self.mangle(s.iter_var)
        if kind:
            src = f"blockIdx.{axis}" if kind == "block" \
                else f"threadIdx.{axis}"
            self.line(indent,
                      f"int64_t {it} = {self.pexpr(s.begin)} + "
                      f"(int64_t){src};")
            self.line(indent, f"if ({it} < {self.pexpr(s.end)}) {{")
            self.pstmt(s.body, indent + 1)
            self.line(indent, "}")
            return
        super()._gen_for(s, indent)

    # -- kernel extraction ------------------------------------------------------
    def _collect_parallel_dims(self, s: Stmt, grid, block):
        if isinstance(s, For):
            kind, axis = _parallel_kind(s)
            if kind == "block":
                grid[_AXES[axis]] = self.pexpr(s.len)
            elif kind == "thread":
                block[_AXES[axis]] = self.pexpr(s.len)
        for c in s.children_stmts():
            self._collect_parallel_dims(c, grid, block)

    def _emit_kernel(self, root: Stmt, host_indent: int):
        kid = self._kernel_id
        self._kernel_id += 1
        grid = ["1", "1", "1"]
        block = ["1", "1", "1"]
        self._collect_parallel_dims(root, grid, block)
        args = []
        for p in self.interface:
            args.append(f"{_CTYPE[self.defs[p].dtype]}* "
                        f"{self.mangle(p)}")
        for p in self.func.scalar_params:
            args.append(f"int64_t {self.mangle(p)}")
        saved = self.lines
        self.lines = []
        self.line(0, f"__global__ void kernel{kid}("
                     f"{', '.join(args)}) {{")
        self.pstmt(root, 1)
        self.line(0, "}")
        self.kernels.append("\n".join(self.lines))
        self.lines = saved
        call_args = [self.mangle(p) for p in self.interface]
        call_args += [self.mangle(p) for p in self.func.scalar_params]
        self.line(host_indent,
                  f"kernel{kid}<<<dim3({', '.join(grid)}), "
                  f"dim3({', '.join(block)})>>>("
                  f"{', '.join(call_args)});")

    def _gen_host(self, s: Stmt, indent: int):
        if isinstance(s, S.StmtSeq):
            for c in s.stmts:
                self._gen_host(c, indent)
            return
        if isinstance(s, VarDef):
            if s.name in self.param_set:
                self._gen_host(s.body, indent)
                return
            name = self.mangle(s.name)
            ct = _CTYPE[s.dtype]
            size = " * ".join(f"(size_t)({self.pexpr(d)})"
                              for d in s.shape) or "1"
            self.line(indent, f"{ct}* {name};")
            self.line(indent, f"cudaMalloc(&{name}, ({size}) * "
                              f"sizeof({ct}));")
            self._gen_host(s.body, indent)
            self.line(indent, f"cudaFree({name});")
            return
        if isinstance(s, For):
            kind, _axis = _parallel_kind(s)
            if kind:
                self._emit_kernel(s, indent)
                return
            it = self.mangle(s.iter_var)
            self.line(indent,
                      f"for (int64_t {it} = {self.pexpr(s.begin)}; "
                      f"{it} < {self.pexpr(s.end)}; {it}++) {{")
            self._gen_host(s.body, indent + 1)
            self.line(indent, "}")
            return
        if isinstance(s, S.LibCall):
            if s.kind == "matmul":
                c = s.outs[0]
                self.line(indent, f"// cublasSgemm -> {self.mangle(c)}")
                return
            self._emit_kernel(s, indent)
            return
        # any other statement at host level runs as a tiny kernel
        self._emit_kernel(s, indent)

    def generate(self) -> str:
        self.lines = []
        args = []
        for p in self.interface:
            args.append(f"{_CTYPE[self.defs[p].dtype]}* "
                        f"{self.mangle(p)}")
        for p in self.func.scalar_params:
            args.append(f"int64_t {self.mangle(p)}")
        self.line(0, f"extern \"C\" void entry({', '.join(args)}) {{")
        self._gen_host(self.func.body, 1)
        self.line(1, "cudaDeviceSynchronize();")
        self.line(0, "}")
        host = "\n".join(self.lines)
        header = ("#include <cstdint>\n#include <cuda_runtime.h>\n"
                  "#include <math.h>\n\n"
                  "static __device__ __host__ inline int64_t "
                  "ft_floordiv(int64_t a, int64_t b) {\n"
                  "    int64_t q = a / b, r = a % b;\n"
                  "    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : "
                  "q;\n}\n"
                  "static __device__ __host__ inline int64_t "
                  "ft_mod(int64_t a, int64_t b) {\n"
                  "    int64_t r = a % b;\n"
                  "    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : "
                  "r;\n}\n"
                  "static __device__ inline double ft_sigmoid(double x) "
                  "{ return 1.0/(1.0+exp(-x)); }\n")
        return header + "\n" + "\n\n".join(self.kernels) + "\n\n" + host \
            + "\n"


def generate_cuda(func: Func) -> str:
    """CUDA C++ source for a (CUDA-scheduled) Func."""
    # idempotent when the build pipeline already legalized; keeps direct
    # generate_cuda() callers correct
    func = legalize(func, "cuda")
    return CUDACodegen(func).generate()
