"""Deleted environment knobs stay deleted: with each of them set to ``1``
the default behaviour holds.

``build(verify=True)``, ``Interpreter(op_counts=...)`` and a spy on
``CandidateScreen.screen`` are the explicit switches; source spans are
always captured.
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
           "REPRO_NO_COST_PRUNE")


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
