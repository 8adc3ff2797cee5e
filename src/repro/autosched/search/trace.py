"""Recorded schedule traces: a serializable, replayable list of schedule
primitives.

A tuned schedule used to be only a ``Func`` — reproducing it meant
re-running the whole search. A :class:`ScheduleTrace` records the
primitives (name + arguments) a tuner applied, in order, with two kinds
of *symbolic references* instead of raw statement ids (sids are minted
per process and would not survive serialization):

- ``{"$loop": k}`` — the k-th loop (pre-order) of the schedule's tree
  **at the moment the step is applied**. Replaying the steps in order on
  a structurally identical base resolves each index to the same loop.
- ``{"$res": [i, j]}`` — the j-th element of step *i*'s result (e.g. the
  inner sid returned by an earlier ``split``).

``apply()`` replays the trace on a fresh :class:`~repro.schedule.Schedule`
of the same base program; ``as_json()`` / ``from_json()`` round-trip the
trace through plain JSON. Winner traces are carried on
``TuneResult.best_trace`` and (for the last finished session) in
``runtime.metrics.tuner_stats()["best_trace"]``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ...errors import InvalidSchedule


def loop_ref(schedule, sid: str) -> Dict[str, int]:
    """A symbolic reference to the loop with ``sid`` in ``schedule``'s
    current tree (its pre-order index among all loops)."""
    sids = [l.sid for l in schedule.loops()]
    try:
        return {"$loop": sids.index(sid)}
    except ValueError:
        raise InvalidSchedule(f"loop {sid!r} not in the current tree")


def res_ref(step: int, item: int) -> Dict[str, List[int]]:
    """A symbolic reference to element ``item`` of step ``step``'s
    result."""
    return {"$res": [step, item]}


class ScheduleTrace:
    """An ordered, replayable record of applied schedule primitives."""

    __slots__ = ("steps",)

    def __init__(self, steps: Optional[List[dict]] = None):
        #: each step: ``{"prim": name, "args": {...}}`` with JSON-able
        #: argument values (scalars, lists, or symbolic references)
        self.steps: List[dict] = list(steps or [])

    def __len__(self):
        return len(self.steps)

    def __bool__(self):
        # an empty trace is still a real trace (the base schedule)
        return True

    def add(self, prim: str, **args) -> int:
        """Record one applied primitive; returns the step index (for
        :func:`res_ref` references from later steps)."""
        self.steps.append({"prim": prim, "args": dict(args)})
        return len(self.steps) - 1

    # -- replay ------------------------------------------------------------
    def _resolve(self, v, schedule, results):
        if isinstance(v, dict) and "$loop" in v:
            loops = schedule.loops()
            idx = v["$loop"]
            if not 0 <= idx < len(loops):
                raise InvalidSchedule(
                    f"trace references loop #{idx} but the tree has "
                    f"{len(loops)} loops")
            return loops[idx].sid
        if isinstance(v, dict) and "$res" in v:
            step, item = v["$res"]
            res = results[step]
            if not isinstance(res, (tuple, list)):
                res = (res,)
            return res[item]
        if isinstance(v, list):
            return [self._resolve(x, schedule, results) for x in v]
        return v

    def apply(self, schedule):
        """Replay every step, in order, on ``schedule`` (a
        :class:`~repro.schedule.Schedule` over the same base program).
        Returns the schedule. Raises the primitive's own error if a step
        no longer applies."""
        results: List[Any] = []
        for step in self.steps:
            fn = getattr(schedule, step["prim"], None)
            if fn is None:
                raise InvalidSchedule(
                    f"trace step {step['prim']!r} is not a schedule "
                    f"primitive")
            args = {k: self._resolve(v, schedule, results)
                    for k, v in step["args"].items()}
            results.append(fn(**args))
        return schedule

    # -- serialization -----------------------------------------------------
    def as_json(self) -> List[dict]:
        """The trace as a plain JSON-able list (also what
        ``json.dumps``-ing the trace produces)."""
        return [{"prim": s["prim"], "args": s["args"]} for s in self.steps]

    def dumps(self) -> str:
        return json.dumps(self.as_json())

    @classmethod
    def from_json(cls, data) -> "ScheduleTrace":
        """Rebuild a trace from :meth:`as_json` output (or its
        ``json.loads``-ed string)."""
        if isinstance(data, str):
            data = json.loads(data)
        steps = []
        for s in data:
            steps.append({"prim": str(s["prim"]), "args": dict(s["args"])})
        return cls(steps)

    def summary(self) -> str:
        """Human-readable one-line-per-step rendering."""

        def show(v):
            if isinstance(v, dict) and "$loop" in v:
                return f"loop[{v['$loop']}]"
            if isinstance(v, dict) and "$res" in v:
                return f"step{v['$res'][0]}[{v['$res'][1]}]"
            if isinstance(v, list):
                return "[" + ", ".join(show(x) for x in v) + "]"
            return repr(v)

        lines = []
        for i, s in enumerate(self.steps):
            args = ", ".join(f"{k}={show(v)}" for k, v in s["args"].items())
            lines.append(f"{i}: {s['prim']}({args})")
        return "\n".join(lines)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ScheduleTrace {len(self.steps)} steps>"
