"""Tests for the memoized ``Executable._bind`` fast path and the
``Executable.__call__`` concurrency contract (PR 10 satellites).

The binding plan — parameter dtypes, inferred symbolic-shape scalars,
output allocation specs — is a pure function of the argument shape
signature, so repeat calls with same-shaped arrays skip unification and
validation entirely. These tests pin the counters, the correctness of
the fast path, and that error behaviour is unchanged.
"""

import threading

import numpy as np
import pytest

import repro as ft
from repro.runtime import build
from repro.runtime.driver import (bind_cache_stats,
                                  reset_bind_cache_stats)


def make_program():
    @ft.transform
    def scale(x: ft.Tensor[("n", "m"), "f32", "input"]):
        y = ft.zeros((x.shape(0), x.shape(1)), "f32")
        for i in range(x.shape(0)):
            for j in range(x.shape(1)):
                y[i, j] = x[i, j] * 2.0 + 1.0
        return y

    return scale


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_bind_cache_stats()
    yield
    reset_bind_cache_stats()


def test_plan_hit_after_first_call_and_correct_results():
    exe = build(make_program(), backend="pycode")
    x = np.random.default_rng(0).standard_normal((5, 4)) \
        .astype(np.float32)
    first = exe(x)
    assert bind_cache_stats()["plan_misses"] == 1
    assert bind_cache_stats()["plan_hits"] == 0
    second = exe(x + 1.0)
    st = bind_cache_stats()
    assert st["plan_hits"] == 1 and st["plan_misses"] == 1
    np.testing.assert_allclose(first, x * 2.0 + 1.0, rtol=1e-6)
    np.testing.assert_allclose(second, (x + 1.0) * 2.0 + 1.0, rtol=1e-6)


def test_new_shape_takes_the_slow_path_once():
    exe = build(make_program(), backend="pycode")
    exe(np.ones((3, 2), np.float32))
    exe(np.ones((4, 6), np.float32))   # different signature: miss
    exe(np.ones((4, 6), np.float32))   # now memoized: hit
    st = bind_cache_stats()
    assert st["plan_misses"] == 2
    assert st["plan_hits"] == 1


def test_dtype_cast_on_the_fast_path():
    exe = build(make_program(), backend="pycode")
    x64 = np.ones((3, 3), np.float64)
    exe(x64)
    out = exe(x64 * 2)  # fast path must still cast f64 -> f32
    assert bind_cache_stats()["plan_hits"] == 1
    np.testing.assert_allclose(out, np.full((3, 3), 5.0, np.float32))


def test_binding_errors_unchanged_by_memo():
    exe = build(make_program(), backend="pycode")
    exe(np.ones((3, 2), np.float32))
    with pytest.raises(Exception):
        exe(np.ones((3, 2), np.float32), np.ones(3, np.float32))
    with pytest.raises(Exception):
        exe(np.ones(7, np.float32))  # rank mismatch
    # the failed signatures must not have poisoned the memo
    np.testing.assert_allclose(exe(np.ones((3, 2), np.float32)),
                               np.full((3, 2), 3.0, np.float32))


def test_compile_cache_stats_exposes_bind_counters():
    exe = build(make_program(), backend="pycode")
    exe(np.ones((2, 2), np.float32))
    exe(np.ones((2, 2), np.float32))
    stats = ft.compile_cache_stats()
    assert stats["bind"]["plan_hits"] >= 1
    assert stats["bind"]["plan_misses"] >= 1


@pytest.mark.parametrize("backend", ["pycode", "c"])
def test_concurrent_calls_are_thread_safe(backend):
    """The documented contract: concurrent ``__call__`` on one
    Executable from many threads, mixed shapes, correct results."""
    exe = build(make_program(), backend=backend)
    rng = np.random.default_rng(1)
    inputs = [rng.standard_normal((3 + i % 3, 4)).astype(np.float32)
              for i in range(24)]
    results = [None] * len(inputs)
    errors = []

    def worker(tid):
        try:
            for i in range(tid, len(inputs), 4):
                results[i] = exe(inputs[i])
        except Exception as e:  # noqa: BLE001 - fail the test below
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    for x, out in zip(inputs, results):
        np.testing.assert_allclose(out, x * 2.0 + 1.0, rtol=1e-5)


# ---------------------------------------------------------------------------
# plan memo eviction
# ---------------------------------------------------------------------------

def test_plan_memo_evicts_oldest_instead_of_clearing():
    """Overflowing the memo drops the oldest signature only: the most
    recent ``_PLAN_LIMIT`` signatures still hit (a served batched
    program sees every batch size as its own signature)."""
    exe = build(make_program(), backend="pycode")
    limit = exe._PLAN_LIMIT
    shapes = [(n, 2) for n in range(1, limit + 7)]
    for shape in shapes:                      # first cycle overflows
        exe(np.ones(shape, np.float32))
    assert len(exe._plans) == limit
    before = bind_cache_stats()["plan_hits"]
    for shape in reversed(shapes):            # second cycle
        exe(np.ones(shape, np.float32))
    assert bind_cache_stats()["plan_hits"] - before >= limit // 2
    assert len(exe._plans) <= limit


# ---------------------------------------------------------------------------
# the pointer contract of the c backend: the binder establishes dtype
# and contiguity, the run function re-checks a hand-built environment
# ---------------------------------------------------------------------------

def make_inout_program():
    @ft.transform
    def bump(x: ft.Tensor[("n", "m"), "f32", "input"],
             acc: ft.Tensor[("n", "m"), "f32", "inout"]):
        for i in range(x.shape(0)):
            for j in range(x.shape(1)):
                acc[i, j] = acc[i, j] + x[i, j] * 2.0

    return bump


def test_c_call_normalizes_layout_and_dtype():
    exe = build(make_program(), backend="c")
    base = np.random.default_rng(2).standard_normal((8, 6))
    variants = {
        "sliced": base.astype(np.float32)[::2, 1:5],
        "fortran": np.asfortranarray(base.astype(np.float32)),
        "float64": base,
        "int": (base * 10).astype(np.int64),
        "readonly": base.astype(np.float32),
    }
    variants["readonly"].setflags(write=False)
    for label, x in variants.items():
        np.testing.assert_allclose(
            exe(x), x.astype(np.float32) * 2.0 + 1.0, rtol=1e-6,
            err_msg=label)


def test_c_run_env_rejects_wrong_dtype_before_the_kernel():
    exe = build(make_inout_program(), backend="c")
    acc = np.full((3, 4), 7.0, np.float32)
    env = {"x": np.ones((3, 4), np.float64),   # declared f32
           "acc": acc, "n": 3, "m": 4}
    with pytest.raises(TypeError, match="'x'"):
        exe.run_env(env)
    np.testing.assert_array_equal(acc, 7.0)    # kernel never ran


def test_c_run_env_writes_back_noncontiguous_inout():
    exe = build(make_inout_program(), backend="c")
    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    backing = np.zeros((3, 8), np.float32)
    acc = backing[:, ::2]                      # non-contiguous view
    assert not acc.flags.c_contiguous
    exe.run_env({"x": x, "acc": acc, "n": 3, "m": 4})
    np.testing.assert_allclose(acc, x * 2.0)
    np.testing.assert_array_equal(backing[:, 1::2], 0.0)
