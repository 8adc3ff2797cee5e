"""Tests for Python source spans threaded from staging into the IR."""

import os

import numpy as np

import repro as ft
from repro.ir import For, If, Store, VarDef, collect_stmts, dump
from repro.passes import lower
from repro.schedule import Schedule

HERE = os.path.abspath(__file__)


def _prog():
    @ft.transform
    def f(x: ft.Tensor[("n",), "f32", "input"]):
        y = ft.empty((x.shape(0),), "f32")          # VarDef line
        for i in range(x.shape(0)):                 # For line
            if i > 0:                               # If line
                y[i] = x[i] + 1.0                   # Store line
            else:
                y[i] = x[i]
        return y

    return f


def _line_of(text):
    with open(HERE) as f:
        for no, line in enumerate(f, 1):
            if text in line and "_line_of" not in line:
                return no
    raise AssertionError(f"marker {text!r} not found")


class TestCapture:

    def test_spans_point_into_this_file(self):
        func = _prog().func
        stmts = collect_stmts(
            func.body,
            lambda s: isinstance(s, (For, If, Store, VarDef)))
        spanned = [s for s in stmts if s.span is not None]
        assert spanned, "no spans captured at all"
        for s in spanned:
            fname, line = s.span
            assert os.path.abspath(fname) == HERE
            assert line > 0

    def test_exact_lines(self):
        func = _prog().func
        loop = collect_stmts(func.body,
                             lambda s: isinstance(s, For))[0]
        assert loop.span[1] == _line_of("# For line")
        branch = collect_stmts(func.body,
                               lambda s: isinstance(s, If))[0]
        assert branch.span[1] == _line_of("# If line")
        stores = collect_stmts(func.body,
                               lambda s: isinstance(s, Store))
        assert _line_of("# Store line") in [s.span[1] for s in stores]

    def test_vardef_line(self):
        func = _prog().func
        y_def = [
            s for s in collect_stmts(func.body,
                                     lambda s: isinstance(s, VarDef))
            if s.name == "y"
        ][0]
        assert y_def.span[1] == _line_of("# VarDef line")


class TestSurvival:

    def test_spans_survive_lowering(self):
        func = lower(_prog().func)
        stores = collect_stmts(func.body,
                               lambda s: isinstance(s, Store))
        assert any(s.span is not None and
                   os.path.abspath(s.span[0]) == HERE for s in stores)

    def test_spans_survive_schedules(self, rng):
        @ft.transform
        def f(x: ft.Tensor[(8,), "f32", "input"]):
            y = ft.empty((8,), "f32")
            ft.label("L")
            for i in range(8):
                y[i] = x[i] * 2.0                   # survives split
            return y

        marker = _line_of("# survives split")
        s = Schedule(f)
        s.split("L", factor=4)
        stores = collect_stmts(s.func.body,
                               lambda st: isinstance(st, Store))
        assert marker in [st.span[1] for st in stores
                          if st.span is not None]
        from repro.runtime import build

        out = build(s.func)(rng.standard_normal(8).astype(np.float32))
        assert out.shape == (8,)

    def test_spans_survive_unroll_fresh_copies(self):
        @ft.transform
        def f(x: ft.Tensor[(3,), "f32", "input"]):
            y = ft.empty((3,), "f32")
            ft.label("U")
            for i in range(3):
                y[i] = x[i] + 1.0                   # survives unroll
            return y

        marker = _line_of("# survives unroll")
        s = Schedule(f)
        s.unroll("U")
        stores = collect_stmts(s.func.body,
                               lambda st: isinstance(st, Store))
        assert len(stores) == 3
        for st in stores:
            assert st.span is not None and st.span[1] == marker


class TestPrinter:

    def test_dump_show_spans(self):
        func = _prog().func
        text = dump(func, show_spans=True)
        base = os.path.basename(HERE)
        assert f"/* {base}:" in text
        assert dump(func).count(base) == 0  # off by default

