"""A Schedule records its own replayable trace: every primitive that
succeeds appends one step, statement arguments become ``{"$stmt": k}``
positions on the tree before the step, and replaying the JSON of a trace
on a fresh Schedule of the same program gives the same tree and records
the same trace again."""

import pytest

import repro as ft
from repro.autosched import (auto_fuse, auto_mem_type, auto_parallelize,
                             auto_schedule, auto_unroll, auto_use_lib,
                             auto_vectorize, default_target)
from repro.autosched.search.space import ScheduleSpace
from repro.errors import InvalidSchedule
from repro.ir.hashing import struct_hash
from repro.schedule import Schedule, ScheduleTrace
from repro.workloads import ALL

from .test_dep_rows import tune_search_sweep
from .test_ir_sharing import PRIMITIVES, _layered


def assert_replays(base, sched):
    """The JSON of ``sched``'s trace, replayed on ``Schedule(base)``,
    gives ``sched``'s tree (sids aside) and records the same trace."""
    back = ScheduleTrace.from_json(sched.trace.dumps())
    replay = back.apply(Schedule(base))
    assert struct_hash(replay.func) == struct_hash(sched.func)
    assert replay.trace.as_json() == sched.trace.as_json()
    return replay


def test_every_realized_candidate_of_a_sweep_replays(monkeypatch):
    realized = []
    realize = ScheduleSpace.realize

    def spy(space, assignment):
        func, trace = realize(space, assignment)
        realized.append((space.base, func, trace))
        return func, trace

    monkeypatch.setattr(ScheduleSpace, "realize", spy)
    tune_search_sweep(monkeypatch)
    assert len(realized) > 16
    assert any(len(trace) for _b, _f, trace in realized)
    for base, func, trace in realized:
        back = ScheduleTrace.from_json(trace.dumps())
        replay = back.apply(Schedule(base))
        assert struct_hash(replay.func) == struct_hash(func)
        assert replay.trace.as_json() == trace.as_json()


RULES = (auto_fuse, auto_vectorize, auto_parallelize, auto_mem_type,
         auto_use_lib, auto_unroll)


@pytest.mark.parametrize("backend", ["c", "gpusim"])
@pytest.mark.parametrize("name", sorted(ALL))
def test_auto_schedule_rules_record_a_replayable_trace(name, backend):
    prog = ALL[name].make_program()
    target = default_target(backend)
    s = Schedule(prog)
    for rule in RULES:
        if rule in (auto_parallelize, auto_mem_type):
            rule(s, target)
        else:
            rule(s)
    assert len(s.trace) > 0
    assert_replays(prog, s)


def test_statement_arguments_that_are_not_loops_round_trip():
    s = Schedule(_layered())
    s.swap(["S2", "S1"])
    front, _back = s.fission("L3", after="S2")
    s.cache(front, "b", "cpu")
    s.parallelize("L1", "openmp")
    steps = s.trace.as_json()
    assert [st["prim"] for st in steps] == ["swap", "fission", "cache",
                                            "parallelize"]
    # labels, sids and statements alike are recorded as positions
    assert all("$stmt" in ref for ref in steps[0]["args"]["stmts"])
    assert set(steps[1]["args"]) == {"loop", "after"}
    assert "$stmt" in steps[2]["args"]["stmt"]
    assert steps[2]["args"]["tensor"] == "b"
    assert steps[3]["args"]["kind"] == "openmp"
    assert_replays(_layered(), s)


@pytest.mark.parametrize("prim", sorted(PRIMITIVES))
def test_each_primitive_round_trips(prim):
    s = Schedule(_layered())
    PRIMITIVES[prim](s)
    assert len(s.trace) >= 1
    assert_replays(_layered(), s)


def test_a_primitive_that_raises_records_nothing():
    s = Schedule(_layered())
    s.split("L1", factor=2)
    before = s.trace.as_json()
    with pytest.raises(InvalidSchedule):
        s.split("no_such_loop", factor=2)
    with pytest.raises(InvalidSchedule):
        s.merge("L1", "L3")  # not nested
    assert s.trace.as_json() == before


def test_a_replay_out_of_range_raises():
    trace = ScheduleTrace([{"prim": "split",
                            "args": {"loop": {"$stmt": 999},
                                     "factor": 2}}])
    with pytest.raises(InvalidSchedule):
        trace.apply(Schedule(_layered()))


# ---------------------------------------------------------------------------
# fork() copies the session; it does not lower the tree again
# ---------------------------------------------------------------------------


def test_fork_is_a_copy_after_a_split():
    prog = ALL["subdivnet"].make_program()
    s = Schedule(prog)
    s.split(s.loops()[5].sid, factor=3)
    probe = s.fork()
    assert struct_hash(probe.func, include_sids=True) == \
        struct_hash(s.func, include_sids=True)
    assert_replays(prog, probe)
    # ... and an independent one
    probe.split(probe.loops()[0].sid, factor=2)
    assert len(probe.trace) == len(s.trace) + 1
    assert struct_hash(probe.func) != struct_hash(s.func)


def test_auto_schedule_probes_the_tree_it_schedules(monkeypatch):
    forks = []
    fork = Schedule.fork

    def spy(self):
        out = fork(self)
        forks.append((struct_hash(self.func, include_sids=True),
                      struct_hash(out.func, include_sids=True)))
        return out

    monkeypatch.setattr(Schedule, "fork", spy)
    ft.clear_compile_caches()  # a memoized run forks nothing
    auto_schedule(ALL["softras"].make_program(), backend="gpusim")
    assert forks and all(a == b for a, b in forks)
