"""Shared fixtures and helpers for the test suite."""

import os

import numpy as np
import pytest

# The persistent cross-process cache (repro.cache) would make "cold"
# compiles in the suite warm on the second pytest run, breaking every
# test that asserts miss counts or pass executions. Tests run with the
# disk cache off; tests that exercise it opt in by re-pointing
# REPRO_CACHE_DIR at a tmp_path and clearing the opt-out in a subprocess
# or monkeypatched environment.
os.environ.setdefault("REPRO_NO_DISK_CACHE", "1")


@pytest.fixture
def memos_off(monkeypatch):
    """Call it to disable every in-process memo (``repro.state``) for the
    rest of the test."""
    from repro import state

    return lambda: monkeypatch.setattr(state, "memos_on", False)


@pytest.fixture
def faults(monkeypatch):
    """Call it with ``crash:<pattern>`` or ``hang:<pattern>`` to inject
    that fault into pool workers (``repro.runtime.pool.fault``) for the
    rest of the test; workers forked later inherit it."""
    from repro.runtime import pool

    return lambda spec: monkeypatch.setattr(pool, "fault", spec)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_allclose(a, b, rtol=1e-4, atol=1e-5):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
