"""SubdivNet mesh convolution: manual scheduling walk-through + training.

Shows the full life of one irregular kernel (paper section 2):
stage -> inspect IR -> schedule by hand (with the dependence analyser
rejecting an illegal move) -> compile -> differentiate -> a tiny
gradient-descent fit.

Run:  python examples/mesh_convolution.py
"""

import numpy as np

from repro.ad import GradExecutable, grad
from repro.errors import InvalidSchedule
from repro.runtime import build
from repro.schedule import Schedule
from repro.workloads import subdivnet


def main():
    data = subdivnet.make_data(n_faces=96, in_feats=8, out_feats=8)
    prog = subdivnet.make_program()
    ref = subdivnet.reference(data)

    # -- manual scheduling ------------------------------------------------
    s = Schedule(prog)
    loops = s.loops()
    face_loop = loops[0]  # the outer loop over faces
    outer, inner = s.split(face_loop.sid, factor=16)
    s.parallelize(outer, "openmp")
    print("applied:")
    print(s.trace.summary())

    # dependence analysis refuses illegal moves: the inner-product loop
    # accumulates into y[i, oo], so it cannot be fused backwards etc.
    try:
        # reordering the face tile loops after parallelisation is fine...
        s2 = s.fork()
        s2.reorder([inner, outer])
        print("reorder of independent tiles: allowed")
    except InvalidSchedule as e:
        print("reorder rejected:", e)

    exe = build(s.func, backend="c")
    out = exe(data["adj"], data["e"], data["w"])
    assert np.allclose(out, ref, rtol=1e-3, atol=1e-4)
    print("scheduled kernel verified against NumPy reference")

    # -- a tiny training loop over the weight matrix ------------------------
    target = ref + 0.1  # pretend labels
    gp = grad(prog, requires=["w"])
    gexe = GradExecutable(gp)
    w = data["w"].copy()
    lr = 1e-5
    for step in range(30):
        out = gexe(data["adj"], data["e"], w)
        err = out - target
        gw = gexe.backward(out_grads={"y": 2 * err})
        w -= lr * gw
        if step % 10 == 0:
            print(f"step {step:2d}  loss {float((err**2).sum()):10.4f}")
    final = float(((gexe(data["adj"], data["e"], w) - target)**2).sum())
    print(f"final loss {final:10.4f} (decreasing => gradients flow "
          f"through the irregular gather)")


if __name__ == "__main__":
    main()
