"""Tests for the one fork-worker pool (``repro.runtime.pool``).

The tuner-side and serving-side isolation tests (test_search_tuner.py,
test_serving.py) prove the two task definitions kept their behaviour;
these pin the protocol itself: one task per death, private channels,
submission order, exactly-once resolution under concurrent callers.
"""

import multiprocessing
import os
import threading
import time

from repro.runtime.pool import FAILED, OK, TIMEOUT, WorkerPool


def _handle(task):
    """One handler for every test; the task says what to do."""
    op, arg = task
    if op == "pid":
        return os.getpid()
    if op == "echo":
        return arg
    if op == "exit":
        os._exit(arg)
    if op == "sleep":
        time.sleep(arg)
        return arg
    if op == "late":
        # outlives its deadline by a little, then still replies
        time.sleep(arg)
        return "stale"
    if op == "raise":
        raise ValueError(arg)
    raise AssertionError(op)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_crash_fails_only_its_task_and_respawns_once():
    respawns = []
    with WorkerPool(_handle, 1, 2.0,
                    on_respawn=lambda: respawns.append(1)) as pool:
        assert pool.run(("echo", 1)) == (OK, 1)
        first = pool.run(("pid", None))[1]
        assert pool.run(("exit", 17)) == (FAILED, "worker crashed")
        assert respawns == [1]
        # the next task runs, on the replacement
        outcome, second = pool.run(("pid", None))
        assert outcome == OK and second != first
        assert pool.run(("echo", 2)) == (OK, 2)
        assert respawns == [1]


def test_crash_in_map_spares_the_rest():
    with WorkerPool(_handle, 2, 2.0) as pool:
        tasks = [("echo", 0), ("exit", 3), ("echo", 2), ("echo", 3)]
        out = pool.map(tasks)
    assert out == [(OK, 0), (FAILED, "worker crashed"), (OK, 2), (OK, 3)]


def test_timeout_kills_worker_and_its_late_reply_is_never_seen():
    respawns = []
    with WorkerPool(_handle, 1, 2.0,
                    on_respawn=lambda: respawns.append(1)) as pool:
        hung = pool.run(("pid", None))[1]
        t0 = time.monotonic()
        # would reply "stale" 0.2 s after its 0.3 s deadline
        assert pool.run(("late", 0.5), timeout_s=0.3) == (TIMEOUT, None)
        assert time.monotonic() - t0 < 2.0
        assert respawns == [1]
        assert _gone(hung)
        time.sleep(0.4)  # past the moment the reply would have landed
        for i in range(3):
            assert pool.run(("echo", i)) == (OK, i)


def test_map_returns_submission_order():
    n = 6
    tasks = [("sleep", 0.05 * (n - i)) for i in range(n)]
    with WorkerPool(_handle, 3, 2.0) as pool:
        out = pool.map(tasks)
        assert pool.map([]) == []
    assert out == [(OK, t[1]) for t in tasks]


def test_concurrent_callers_resolve_each_task_exactly_once():
    results = {}
    errors = []

    def caller(tid):
        try:
            for i in range(20):
                key = (tid, i)
                out = pool.run(("echo", key))
                assert key not in results
                results[key] = out
        except BaseException as e:  # noqa: BLE001 - reported below
            errors.append(e)

    with WorkerPool(_handle, 2, 2.0) as pool:
        threads = [threading.Thread(target=caller, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 8 * 20
    assert all(out == (OK, key) for key, out in results.items())


def test_raised_error_is_a_failed_outcome_with_its_message():
    with WorkerPool(_handle, 1, 2.0) as pool:
        assert pool.run(("raise", "x")) == (FAILED, "ValueError: x")
        # the worker survived its handler's exception
        assert pool.run(("echo", 1)) == (OK, 1)


def test_unpicklable_task_fails_without_costing_a_worker():
    respawns = []
    with WorkerPool(_handle, 1, 2.0,
                    on_respawn=lambda: respawns.append(1)) as pool:
        outcome, message = pool.run(("echo", threading.Lock()))
        assert outcome == FAILED and "pickle" in message
        assert pool.run(("echo", 1)) == (OK, 1)
    assert respawns == []


def test_close_twice_leaves_no_children():
    pool = WorkerPool(_handle, 2, 2.0)
    assert pool.run(("echo", 1)) == (OK, 1)
    pool.close()
    pool.close()
    assert multiprocessing.active_children() == []
