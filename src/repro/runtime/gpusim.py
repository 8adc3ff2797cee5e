"""A simulated GPU device.

The environment has no GPU (see DESIGN.md), so CUDA-targeted programs run
here, and the operator baseline (:mod:`repro.baselines.optensor`) charges
the same accounting class. This module holds:

- :class:`Device`, the one accounting class: kernel launches, L2/DRAM
  traffic, FLOPs and the live/peak footprint against an optional
  capacity, refused with :class:`~repro.errors.SimulatedOOM` as the paper
  reports for Longformer baselines in Figures 16(b) and 18. It is the
  measurement substrate of Figure 17 (kernel invocations, DRAM bytes, L2
  bytes, FLOP count);
- :class:`GPUSimulator`, the reference interpreter plus one **launch
  rule**: at host level, a ``StmtSeq``, a ``VarDef`` and a loop not
  bound to ``cuda.*`` run on the host; every other host statement (a
  ``cuda.blockIdx.*`` / ``cuda.threadIdx.*`` loop, a library call, or
  any other statement as an implicit kernel) is one kernel launch, and
  everything inside it, library calls included, is that kernel's body.
  The rule is the only code that charges a launch for the IR;
- :func:`static_peak_bytes`, the footprint of a program computed without
  running it, and :class:`DeviceModel` (``V100``, ``XEON``), which turns
  a Device's counters into modelled time.

The memory-hierarchy model is deliberately simple and documented:

- every scalar access to a *global-memory* tensor costs one 32-byte sector
  at the L2 (adjacent repeated accesses to the same sector by the same
  access site are merged — a one-entry coalescing buffer);
- DRAM traffic is 64-byte lines missing in an LRU cache of configurable
  capacity;
- a whole-tensor access (a library call, an operator of the baseline)
  streams its bytes through both L2 and DRAM;
- accesses to registers / scratchpad (``byvalue``, ``gpu/local``,
  ``gpu/shared``) are free.

Absolute byte counts are approximations; the paper-level comparisons
(FreeTensor touching a few percent of the baseline's DRAM traffic) are
driven by *which* tensors get materialised, which this model captures
exactly. Numerical results are exact (it is the same interpreter); only
timing is modelled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulatedOOM
from ..ir import (AccessType, Expr, For, Func, LibCall, MemType, Stmt,
                  StmtSeq, VarDef)
from .interpreter import Interpreter

SECTOR = 32
LINE = 64


class Device:
    """Counts what a run costs on a simulated device: kernel launches,
    L2/DRAM traffic, FLOPs, and the live/peak footprint against
    ``capacity_bytes`` (``None``: unlimited)."""

    def __init__(self, name: str, capacity_bytes: Optional[int] = None,
                 l2_capacity: int = 4 * 1024 * 1024):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.current_bytes = 0
        self._l2_lines = max(1, l2_capacity // LINE)
        self._l2: "OrderedDict[tuple, bool]" = OrderedDict()
        self._last_sector: Dict[int, tuple] = {}
        self._local = set()  # ids of live buffers in registers/scratchpad
        self.reset()

    def reset(self):
        """Zero the event counters and empty the cache. Live tensors stay
        live: the peak restarts from the current footprint."""
        self.kernels = 0
        self.kernel_names: List[str] = []
        self.l2_bytes = 0
        self.dram_bytes = 0
        self.flops = 0
        self.peak_bytes = self.current_bytes
        self._l2.clear()
        self._last_sector.clear()

    # -- events ---------------------------------------------------------------
    def on_kernel(self, name: str):
        self.kernels += 1
        self.kernel_names.append(name)

    def on_traffic(self, nbytes: int):
        """Whole tensors streamed through L2 and DRAM."""
        self.l2_bytes += nbytes
        self.dram_bytes += nbytes

    def on_flop(self, n: int = 1):
        self.flops += n

    def charges(self, buf) -> bool:
        """Whether accesses to ``buf`` cost traffic (global memory)."""
        return id(buf) not in self._local

    def on_access(self, buf: np.ndarray, idx: tuple):
        """One scalar read or write of ``buf[idx]``."""
        if id(buf) in self._local:
            return
        off = sum(int(i) * s for i, s in zip(idx, buf.strides))
        sector = (id(buf), off // SECTOR)
        if self._last_sector.get(id(buf)) != sector:
            self._last_sector[id(buf)] = sector
            self.l2_bytes += SECTOR
            line = (id(buf), off // LINE)
            hit = self._l2.pop(line, None)
            if hit is None:
                self.dram_bytes += LINE
                if len(self._l2) >= self._l2_lines:
                    self._l2.popitem(last=False)
            self._l2[line] = True

    # -- footprint ------------------------------------------------------------
    def alloc(self, nbytes: int):
        """Make ``nbytes`` live; past the capacity, refuse with
        SimulatedOOM and keep nothing."""
        live = self.current_bytes + nbytes
        if self.capacity_bytes is not None and live > self.capacity_bytes:
            raise SimulatedOOM(
                f"{self.name}: {live} bytes live exceed the capacity of "
                f"{self.capacity_bytes} bytes",
                requested=live, capacity=self.capacity_bytes)
        self.current_bytes = live
        if live > self.peak_bytes:
            self.peak_bytes = live

    def free(self, nbytes: int):
        self.current_bytes -= nbytes

    def on_alloc(self, buf: np.ndarray, mtype: MemType):
        """An interpreted tensor comes into scope in ``mtype``."""
        if mtype.is_global:
            self.alloc(buf.nbytes)
        else:
            self._local.add(id(buf))

    def on_free(self, buf: np.ndarray, mtype: MemType):
        if mtype.is_global:
            self.free(buf.nbytes)
        else:
            self._local.discard(id(buf))

    # -- reporting ------------------------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        return {
            "kernels": self.kernels,
            "l2_bytes": self.l2_bytes,
            "dram_bytes": self.dram_bytes,
            "flops": self.flops,
            "peak_bytes": self.peak_bytes,
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Device({self.name!r}, " + ", ".join(
            f"{k}={v}" for k, v in self.as_dict().items()) + ")"


# ---------------------------------------------------------------------------
# Static peak-footprint analysis (fast OOM checks for Fig. 16(b) / 18)
# ---------------------------------------------------------------------------


def static_peak_bytes(func: Func, scalar_env: Dict[str, int],
                      param_bytes: int = 0) -> int:
    """Peak bytes of stack-scoped tensor storage, computed without running
    the program.

    Stack scoping makes this exact: the live set at any program point is
    the chain of enclosing VarDefs, so ``peak = max over tree paths of the
    sum of VarDef sizes``. Shapes that depend on loop iterators are
    evaluated at their upper bound. ``param_bytes`` adds caller-allocated
    input/output storage.
    """
    from ..analysis import BoundsCtx, tightest_bounds

    interp = Interpreter()

    def eval_dim(e: Expr, ctx: BoundsCtx) -> int:
        try:
            return int(interp.eval_expr(e, dict(scalar_env)))
        except Exception:
            pass
        _lo, up = tightest_bounds(e, ctx, allowed_vars=set(scalar_env))
        if up is None:
            raise ValueError(
                f"cannot bound tensor extent {e!r} statically")
        return int(interp.eval_expr(up, dict(scalar_env)))

    def walk(s: Stmt, ctx: BoundsCtx) -> int:
        if isinstance(s, VarDef):
            size = s.dtype.size_bytes
            for d in s.shape:
                size *= max(0, eval_dim(d, ctx))
            if s.atype is not AccessType.CACHE:
                size = 0  # parameters are accounted via param_bytes
            return size + walk(s.body, ctx)
        if isinstance(s, For):
            inner_ctx = ctx.with_loop(s.iter_var, s.begin, s.end)
            return walk(s.body, inner_ctx)
        peak = 0
        for c in s.children_stmts():
            peak = max(peak, walk(c, ctx))
        return peak

    return param_bytes + walk(func.body, BoundsCtx())


# ---------------------------------------------------------------------------
# Modeled execution time
# ---------------------------------------------------------------------------


class DeviceModel:
    """An analytical device: launch overhead + bandwidth + throughput.

    ``time = kernels * launch_overhead
             + max(dram_bytes / dram_bw, l2_bytes / l2_bw,
                   flops / flops_per_s)``

    The defaults below approximate the paper's testbed (V100-PCIE 32GB and
    a dual Xeon E5-2670v3); see EXPERIMENTS.md for how modeled time is
    used next to measured wall-clock.
    """

    def __init__(self, name: str, launch_overhead_s: float,
                 dram_bw: float, l2_bw: float, flops_per_s: float,
                 capacity_bytes: int):
        self.name = name
        self.launch_overhead_s = launch_overhead_s
        self.dram_bw = dram_bw
        self.l2_bw = l2_bw
        self.flops_per_s = flops_per_s
        self.capacity_bytes = capacity_bytes

    def time(self, device: Device) -> float:
        stream = max(device.dram_bytes / self.dram_bw,
                     device.l2_bytes / self.l2_bw,
                     device.flops / self.flops_per_s)
        return device.kernels * self.launch_overhead_s + stream


V100 = DeviceModel("V100-PCIE-32GB",
                   launch_overhead_s=5e-6,
                   dram_bw=900e9,
                   l2_bw=2500e9,
                   flops_per_s=14e12,
                   capacity_bytes=32 * 2**30)

XEON = DeviceModel("Xeon-E5-2670v3-x2",
                   launch_overhead_s=2e-7,
                   dram_bw=68e9,
                   l2_bw=400e9,
                   flops_per_s=1.7e12,
                   capacity_bytes=256 * 2**30)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


class GPUSimulator(Interpreter):
    """Executes a Func as a sequence of simulated kernel launches on
    ``device`` (a :class:`DeviceModel`), charging ``metrics`` (a
    :class:`Device`; one is made if none is given). A ``metrics`` without
    a capacity takes the model's.

    It is the interpreter with one override, the launch rule of
    :meth:`exec_stmt`; a kernel's body runs on one plain kernel-body
    :class:`Interpreter` sharing ``metrics``, so nested statements and
    library calls are device code, never launches of their own."""

    def __init__(self, device: Optional[DeviceModel] = None,
                 metrics: Optional[Device] = None):
        self.device = device if device is not None else V100
        if metrics is None:
            metrics = Device(self.device.name)
        if metrics.capacity_bytes is None:
            metrics.capacity_bytes = self.device.capacity_bytes
        super().__init__(metrics=metrics)
        self._kernel = Interpreter(metrics=metrics)

    def run(self, func: Func, env: Dict[str, object]):
        """Execute ``func`` over NumPy buffers bound in ``env``."""
        params = [v for v in env.values() if isinstance(v, np.ndarray)]
        scalar_env = {k: v for k, v in env.items()
                      if not isinstance(v, np.ndarray)}
        try:
            peak = static_peak_bytes(func, scalar_env,
                                     sum(v.nbytes for v in params))
        except ValueError:
            pass  # data-dependent extents: each allocation is checked
        else:
            self.metrics.alloc(peak)
            self.metrics.free(peak)
        for v in params:
            self.metrics.on_alloc(v, MemType.GPU_GLOBAL)
        try:
            self.exec_stmt(func.body, env)
        finally:
            for v in params:
                self.metrics.on_free(v, MemType.GPU_GLOBAL)
        return env

    def exec_stmt(self, s: Stmt, env: Dict[str, object]):
        """Host level: sequences, definitions and sequential loops recurse
        here; any other statement is one kernel launch."""
        if isinstance(s, (StmtSeq, VarDef)) or (
                isinstance(s, For)
                and not (s.property.parallel or "").startswith("cuda")):
            super().exec_stmt(s, env)
            return
        self.metrics.on_kernel(f"lib.{s.kind}" if isinstance(s, LibCall)
                               else f"kernel@{s.sid}")
        self._kernel.exec_stmt(s, env)
