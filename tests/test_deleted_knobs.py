"""Deleted environment knobs stay deleted: with each of them set to ``1``
the default behaviour holds.

``build(verify=True)``, ``Interpreter(op_counts=...)`` and a spy on
``CandidateScreen.screen`` are the explicit switches; source spans are
always captured, only tests disable the memos
(``repro.state.memos_on``), and a worker fault takes a registered
faulty backend (the ``faulty_backend`` fixture).
"""

import numpy as np
import pytest

import repro as ft
from repro.autosched.search.screen import CandidateScreen
from repro.autosched.target import default_target
from repro.ir import Store, collect_stmts
from repro.runtime.driver import build
from repro.runtime.interpreter import Interpreter

DELETED = ("REPRO_VERIFY", "REPRO_COUNT_OPS", "REPRO_NO_SPANS",
           "REPRO_NO_COST_PRUNE", "REPRO_NO_MEMO", "REPRO_TUNE_FAULT",
           "REPRO_SERVE_FAULT")


@pytest.fixture(autouse=True)
def _deleted_knobs_set(monkeypatch):
    for var in DELETED:
        monkeypatch.setenv(var, "1")


def test_build_does_not_verify():
    @ft.transform
    def f(x: ft.Tensor[("n",), "f32", "input"]):
        y = ft.empty((x.shape(0),), "f32")
        for i in range(x.shape(0)):
            y[i] = x[i + 1]  # out of bounds: the verifier's FT101
        return y

    assert build(f) is not None


def test_memos_stay_on():
    @ft.transform
    def f(x: ft.Tensor[(4,), "f32", "input"]):
        y = ft.empty((4,), "f32")
        for i in range(4):
            y[i] = x[i] * 2.0
        return y

    assert build(f, backend="pycode") is build(f, backend="pycode")


def test_environment_injects_no_fault(monkeypatch):
    from repro.autosched import StructuredTuner
    from repro.serving import Server, default_endpoints
    from repro.workloads import gat

    monkeypatch.setenv("REPRO_SERVE_FAULT", "crash:*")
    monkeypatch.setenv("REPRO_TUNE_FAULT", "crash:*")
    monkeypatch.setenv("REPRO_TUNE_FAKE_MEASURE", "1")
    eps = default_endpoints(backend="pycode", names=["gat"])
    with Server(eps, mode="process", workers=1) as srv:
        (arrays, scalars), = eps["gat"].gen_requests(1, seed=0)
        assert srv.submit("gat", arrays, scalars).result(timeout=120).ok
    data = gat.make_data(n_nodes=24, avg_degree=3, feats=4, out_feats=4)
    args = (data["indptr"], data["indices"], data["h"], data["wmat"],
            data["att_s"], data["att_d"])
    res = StructuredTuner(gat.make_program(), make_inputs=lambda: args,
                          rounds=4, workers=2, timeout_s=20).tune()
    assert res.measured >= 1


def test_interpreter_counts_nothing():
    assert Interpreter().ops is None


def test_staged_statements_carry_spans():
    @ft.transform
    def f(x: ft.Tensor[(4,), "f32", "input"]):
        y = ft.empty((4,), "f32")
        for i in range(4):
            y[i] = x[i]
        return y

    stores = collect_stmts(f.func.body, lambda s: isinstance(s, Store))
    assert stores and all(s.span is not None for s in stores)


def test_screen_prunes_a_dominated_candidate():
    @ft.transform
    def cheap(x: ft.Tensor[(8,), "f32", "input"]):
        y = ft.empty((8,), "f32")
        for i in range(8):
            y[i] = x[i] * 2.0
        return y

    @ft.transform
    def costly(x: ft.Tensor[(8,), "f32", "input"]):
        y = ft.empty((8,), "f32")
        for i in range(8):
            y[i] = x[i] * 2.0 + x[i] * 3.0
        return y

    x = np.zeros(8, np.float32)
    screen = CandidateScreen(cheap.func, lambda: (x,), "pycode",
                             default_target("pycode"), {})
    verdict, est = screen.screen(cheap.func)
    assert verdict == "measure"
    screen.accept(est)
    assert screen.screen(costly.func)[0] == "cost_pruned"
