"""Cross-backend differential correctness: every registered runnable
backend must produce the reference answer on all four paper workloads,
both on raw (unscheduled) IR and on the auto-scheduled IR the tuner
would ship. New backends registered through ``repro.backend`` are picked
up automatically — this suite is the executable contract behind the
registry's retargetability claim."""

import numpy as np
import pytest

from repro.autosched import auto_schedule, default_target
from repro.backend import available_backends
from repro.runtime import build
from repro.workloads import gat, longformer, softras, subdivnet

_MODULES = {
    "subdivnet": subdivnet,
    "longformer": longformer,
    "softras": softras,
    "gat": gat,
}

_SMALL = {
    "subdivnet": dict(n_faces=24, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=24, feat_len=6, w=3),
    "softras": dict(n_faces=6, image_size=8),
    "gat": dict(n_nodes=24, avg_degree=3, feats=4, out_feats=4),
}


def _ft_args(name, data):
    if name == "subdivnet":
        return (data["adj"], data["e"], data["w"]), {}
    if name == "longformer":
        return (data["q"], data["k"], data["v"]), {"w": data["w"]}
    if name == "softras":
        return (data["verts"], data["px"]), {}
    return (data["indptr"], data["indices"], data["h"], data["wmat"],
            data["att_s"], data["att_d"]), {}


def _check(name, backend, optimize):
    mod = _MODULES[name]
    data = mod.make_data(**_SMALL[name])
    ref = mod.reference(data)
    args, kwargs = _ft_args(name, data)
    prog = mod.make_program()
    if optimize:
        func = auto_schedule(prog, target=default_target(backend),
                             backend=backend)
    else:
        func = prog
    out = build(func, backend=backend)(*args, **kwargs)
    np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", sorted(_MODULES))
class TestDifferential:

    def test_raw(self, name, backend):
        _check(name, backend, optimize=False)

    def test_autoscheduled(self, name, backend):
        _check(name, backend, optimize=True)
