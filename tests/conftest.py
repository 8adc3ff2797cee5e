"""Shared fixtures and helpers for the test suite."""

import itertools
import os
import time

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


_FAULTY = itertools.count()


@pytest.fixture
def faulty_backend():
    """Call it as ``faulty_backend(fault, matches, at="build")`` to
    register a backend that builds like ``pycode`` but misbehaves on each
    func ``matches(func)`` accepts (the legalized IR, so match its name
    or its ``struct_hash``). In a forked pool worker ``"crash"`` exits
    without cleanup, as a segfaulting kernel does, and ``"hang"`` sleeps
    until the parent kills it; in the registering process both raise.
    ``at="run"`` misbehaves in the kernel call after a successful build.
    Returns the backend's name (a fresh one per call, so no memo holds
    an earlier registration's build); unregistered on teardown."""
    from repro.backend import (Backend, get_backend, register_backend,
                               unregister_backend)

    names = []

    def register(fault, matches, at="build"):
        pycode = get_backend("pycode")
        home = os.getpid()

        def misbehave(func):
            if not matches(func):
                return
            if os.getpid() == home:
                raise RuntimeError(f"{fault} in {func.name}")
            if fault == "crash":
                os._exit(17)
            time.sleep(3600)

        def build(func, **opts):
            if at == "build":
                misbehave(func)
                return pycode.build(func, **opts)
            run = pycode.build(func, **opts)

            def faulty_run(env):
                misbehave(func)
                run(env)

            return faulty_run

        name = f"faulty{next(_FAULTY)}"
        register_backend(Backend(name, build=build, caps=pycode.caps,
                                 legalization=pycode.legalization,
                                 target_kind=pycode.target_kind))
        names.append(name)
        return name

    yield register
    for name in names:
        unregister_backend(name)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_allclose(a, b, rtol=1e-4, atol=1e-5):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
