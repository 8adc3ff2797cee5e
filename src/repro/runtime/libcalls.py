"""Implementations of vendor-library calls (the ``as_lib`` schedule).

On this reproduction's substrate the "vendor library" is NumPy's BLAS: a
:class:`~repro.ir.stmt.LibCall` executes as a single whole-tensor kernel.
It streams its operands once through the device, which is exactly how
the paper's baselines behave per operator; whether it is a kernel launch
of its own is the simulator's launch rule, not the call's.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidProgram


def run_libcall(stmt, env, metrics=None):
    """Execute a LibCall against an environment of NumPy buffers."""
    outs = [env[n] for n in stmt.outs]
    args = [env[n] for n in stmt.args]
    apply_libcall(stmt.kind, stmt.attrs, outs, args, metrics=metrics)


def apply_libcall(kind: str, attrs: dict, outs, args, metrics=None):
    """Execute a library routine on concrete buffers.

    Supported kinds:

    - ``matmul``: ``outs[0][...] (+)= op(args[0]) @ op(args[1])``;
      ``attrs`` may set ``accumulate``, ``trans_a``, ``trans_b`` (bools).
    - ``copy``: ``outs[0][...] = args[0]``.
    - ``fill``: ``outs[0][...] = attrs["value"]``.
    """
    if metrics is not None:
        metrics.on_traffic(sum(buf.nbytes for buf in (*args, *outs)
                               if metrics.charges(buf)))
    if kind == "matmul":
        a, b = args[0], args[1]
        if attrs.get("trans_a"):
            a = a.T
        if attrs.get("trans_b"):
            b = b.T
        c = outs[0]
        if metrics is not None:
            k = a.shape[-1]
            metrics.on_flop(2 * c.size * k)
        if attrs.get("accumulate"):
            c += a @ b
        else:
            c[...] = a @ b
        return
    if kind == "copy":
        outs[0][...] = args[0]
        return
    if kind == "fill":
        outs[0][...] = attrs["value"]
        return
    raise InvalidProgram(f"unknown library call {kind!r}")
