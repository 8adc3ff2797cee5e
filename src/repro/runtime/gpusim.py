"""A simulated GPU device.

The environment has no GPU (see DESIGN.md), so CUDA-targeted programs run
here: the device executes the IR with the reference interpreter while

- counting one **kernel launch** per outermost parallel region (a loop
  bound to ``cuda.blockIdx.*`` / ``cuda.threadIdx.*``, or a library call);
- modelling DRAM/L2 traffic and FLOPs through
  :class:`~repro.runtime.metrics.MetricsCollector`;
- enforcing the configured **memory capacity** (32 GB by default, the
  paper's V100), raising :class:`~repro.errors.SimulatedOOM` as the paper
  reports for Longformer baselines in Figures 16(b) and 18.

Numerical results are exact (it is the same interpreter); only timing is
modelled, via :class:`~repro.runtime.metrics.DeviceModel`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import SimulatedOOM
from ..ir import (For, Func, LibCall, MemType, Stmt, StmtSeq, VarDef)
from .interpreter import Interpreter
from .metrics import MetricsCollector, V100, static_peak_bytes


class _SuppressKernels:
    """Metrics proxy that drops kernel-launch events (in-kernel work)."""

    def __init__(self, inner):
        self._inner = inner

    def on_kernel(self, name: str):
        pass

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _is_kernel_root(s: Stmt) -> bool:
    if isinstance(s, LibCall):
        return True
    return isinstance(s, For) and (s.property.parallel or "").startswith(
        "cuda")


class GPUSimulator:
    """Executes a Func as a sequence of simulated kernel launches."""

    def __init__(self, device=None, metrics: Optional[MetricsCollector] =
                 None, enforce_capacity: bool = True):
        self.device = device if device is not None else V100
        self.metrics = metrics if metrics is not None else \
            MetricsCollector()
        self.enforce_capacity = enforce_capacity
        self._interp = Interpreter(metrics=self.metrics)

    def run(self, func: Func, env: Dict[str, object]):
        """Execute ``func`` over NumPy buffers bound in ``env``."""
        if self.enforce_capacity:
            scalar_env = {k: v for k, v in env.items()
                          if not isinstance(v, np.ndarray)}
            param_bytes = sum(v.nbytes for v in env.values()
                              if isinstance(v, np.ndarray))
            try:
                peak = static_peak_bytes(func, scalar_env, param_bytes)
            except ValueError:
                # data-dependent extents: fall back to enforcing the
                # capacity allocation-by-allocation while running
                self.metrics.capacity_bytes = self.device.capacity_bytes
            else:
                self.device.check_capacity(peak)
                self.metrics.peak_bytes = max(self.metrics.peak_bytes,
                                              peak)
        for v in env.values():
            if isinstance(v, np.ndarray):
                self.metrics.register_param(v, MemType.GPU_GLOBAL)
        self._exec(func.body, env, in_kernel=False)
        return env

    def _exec(self, s: Stmt, env, in_kernel: bool):
        if not in_kernel and _is_kernel_root(s):
            self.metrics.on_kernel(self._kernel_name(s))
            if isinstance(s, LibCall):
                self._interp.exec_stmt(s, env)
                return
            # library calls nested inside this kernel are fused device
            # code, not separate launches: suppress their kernel events
            suppressed = _SuppressKernels(self.metrics)
            inner = Interpreter(metrics=suppressed)
            inner.exec_stmt(s, env)
            return
        if isinstance(s, StmtSeq):
            for c in s.stmts:
                self._exec(c, env, in_kernel)
            return
        if isinstance(s, VarDef):
            if s.name in env:
                self._exec(s.body, env, in_kernel)
                return
            shape = tuple(int(self._interp.eval_expr(d, env))
                          for d in s.shape)
            buf = np.empty(shape, dtype=s.dtype.to_numpy())
            if s.init_data is not None:
                buf[...] = s.init_data
            self.metrics.on_alloc(s.name, buf, MemType.GPU_GLOBAL
                                  if s.mtype.is_global else s.mtype)
            env[s.name] = buf
            try:
                self._exec(s.body, env, in_kernel)
            finally:
                self.metrics.on_free(s.name, buf, MemType.GPU_GLOBAL
                                     if s.mtype.is_global else s.mtype)
                del env[s.name]
            return
        if isinstance(s, For) and not in_kernel:
            # a sequential host-side loop around kernels
            begin = int(self._interp.eval_expr(s.begin, env))
            end = int(self._interp.eval_expr(s.end, env))
            for i in range(begin, end):
                env[s.iter_var] = i
                self._exec(s.body, env, in_kernel)
            env.pop(s.iter_var, None)
            return
        # anything else at host level: treat as one implicit kernel
        if not in_kernel:
            self.metrics.on_kernel(self._kernel_name(s))
        self._interp.exec_stmt(s, env)

    @staticmethod
    def _kernel_name(s: Stmt) -> str:
        if isinstance(s, LibCall):
            return f"lib.{s.kind}"
        if isinstance(s, For):
            return f"kernel@{s.sid}"
        return f"kernel@{s.sid}"
