"""Differential tests: dependence caching must be invisible.

Every scenario runs the same scripted schedule session twice — once with
the compile-path caches enabled (the default) and once with every cache
disabled (``repro.state.memos_on``) — and asserts that the
legality verdicts and the transformed IR are identical. A warm-cache
re-run of each scenario must also agree, proving that memoized verdicts
never leak between structurally different queries.
"""

import numpy as np
import pytest

import repro as ft
from repro.analysis import analysis_cache_stats
from repro.autosched import CPU, auto_schedule
from repro.errors import DependenceViolation, InvalidSchedule
from repro.ir import dump
from repro.schedule import Schedule

def make_elementwise():
    @ft.transform
    def f(b: ft.Tensor[("n", "m"), "f32", "input"],
          a: ft.Tensor[("n", "m"), "f32", "output"]):
        ft.label("Li")
        for i in range(b.shape(0)):
            ft.label("Lj")
            for j in range(b.shape(1)):
                a[i, j] = b[i, j] * 2.0 + 1.0

    return f


def make_carried():
    # loop-carried flow dependence: iteration i+1 reads what i wrote
    @ft.transform
    def f(a: ft.Tensor[(16,), "f32", "inout"]):
        ft.label("L")
        for i in range(15):
            a[i + 1] = a[i] + 1.0

    return f


def make_reduction():
    @ft.transform
    def f(x: ft.Tensor[("n", "m"), "f32", "input"],
          y: ft.Tensor[("n",), "f32", "output"]):
        ft.label("Li")
        for i in range(x.shape(0)):
            ft.label("Lj")
            for j in range(x.shape(1)):
                y[i] = y[i] + x[i, j]

    return f


def make_two_stage():
    @ft.transform
    def f(x: ft.Tensor[(8, 8), "f32", "input"],
          y: ft.Tensor[(8, 8), "f32", "output"]):
        t = ft.empty((8, 8), "f32")
        ft.label("La")
        for i in range(8):
            ft.label("Lb")
            for j in range(8):
                t[i, j] = x[i, j] * 3.0
        ft.label("Lc")
        for i in range(8):
            ft.label("Ld")
            for j in range(8):
                y[i, j] = t[i, j] + 1.0

    return f


def _elementwise_steps(s):
    s.reorder(["Lj", "Li"])
    outer, inner = s.split("Li", factor=4)
    s.parallelize("Lj")
    s.vectorize(inner)


def _carried_steps(s):
    s.parallelize("L")  # must raise: loop-carried dependence
    s.vectorize("L")


def _reduction_steps(s):
    s.reorder(["Lj", "Li"])
    s.parallelize("Lj")
    s.vectorize("Li")


def _two_stage_steps(s):
    fused = s.fuse("La", "Lc")
    s.parallelize(fused)
    inner = [l.sid for l in s.loops() if l.sid != fused]
    s.fission(fused, after=inner[0])


SCENARIOS = {
    "elementwise": (make_elementwise, _elementwise_steps),
    "carried": (make_carried, _carried_steps),
    "reduction": (make_reduction, _reduction_steps),
    "two_stage": (make_two_stage, _two_stage_steps),
}


class _Abort(Exception):
    """A primitive raised; end the scenario (deterministically)."""


class _Recorder:
    """Proxies a Schedule, recording each primitive's legality verdict."""

    def __init__(self, sched, verdicts):
        self._sched = sched
        self._verdicts = verdicts

    def __getattr__(self, attr):
        real = getattr(self._sched, attr)
        if not callable(real):
            return real

        def wrapped(*a, **kw):
            try:
                out = real(*a, **kw)
            except (InvalidSchedule, DependenceViolation) as e:
                self._verdicts.append((attr, type(e).__name__))
                raise _Abort from e
            self._verdicts.append((attr, "ok"))
            return out

        return wrapped


def run_scenario(name):
    """One verdict per primitive — "ok" or the exception type — plus the
    final IR, dumped without sids (sids are allocation-order dependent)."""
    make, steps = SCENARIOS[name]
    s = Schedule(make())
    verdicts = []
    try:
        steps(_Recorder(s, verdicts))
    except _Abort:
        pass
    return verdicts, dump(s.func)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cached_equals_uncached(name, memos_off):
    ft.clear_compile_caches()
    cached_verdicts, cached_ir = run_scenario(name)
    memos_off()  # every memo at once: no layer masks another's bug
    plain_verdicts, plain_ir = run_scenario(name)
    assert cached_verdicts == plain_verdicts
    assert cached_ir == plain_ir


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warm_cache_agrees_with_cold(name):
    ft.clear_compile_caches()
    cold = run_scenario(name)
    before = analysis_cache_stats()
    warm = run_scenario(name)
    after = analysis_cache_stats()
    assert warm == cold
    # the warm run must actually exercise the memo, or this test proves
    # nothing (every scenario issues dependence queries via reorder/
    # fission/fuse/parallelize/vectorize)
    assert after["hits"] > before["hits"]


@pytest.mark.parametrize("make", [make_elementwise, make_reduction,
                                  make_two_stage],
                         ids=["elementwise", "reduction", "two_stage"])
def test_auto_schedule_ir_identical(make, memos_off):
    ft.clear_compile_caches()
    cached = dump(auto_schedule(make(), target=CPU))
    memos_off()  # every memo at once: no layer masks another's bug
    plain = dump(auto_schedule(make(), target=CPU))
    assert cached == plain


def test_transformed_code_still_correct(rng):
    """End-to-end: a cached session's transformed program computes the
    same values as the untransformed one."""
    from repro.runtime import build

    ft.clear_compile_caches()
    x = rng.standard_normal((8, 12)).astype(np.float32)
    for _ in range(2):  # second pass runs against a warm memo
        p = make_elementwise()
        s = Schedule(p)
        s.reorder(["Lj", "Li"])
        outer, inner = s.split("Li", factor=4)
        s.parallelize("Lj")
        ref = build(p)(x)
        out = build(s.func)(x)
        np.testing.assert_allclose(out, ref, rtol=1e-5)
