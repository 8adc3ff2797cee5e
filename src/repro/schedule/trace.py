"""Schedule traces: the serializable, replayable record of the primitives
a :class:`~repro.schedule.Schedule` applied.

Every primitive, once it succeeds, appends one step to ``Schedule.trace``:
its name and the arguments it was called with. A statement argument (a
sid, a label or a statement) is recorded as ``{"$stmt": k}``, the
statement's pre-order index in the tree *before* the step; sids are
minted per process and would not survive serialization. Replaying the
steps in order on a schedule of the same base program resolves each
index to the same statement. Every other argument is recorded as given.

``apply()`` replays a trace on a fresh ``Schedule`` of the base;
``as_json()`` / ``from_json()`` round-trip it through plain JSON. Winner
traces are carried on ``TuneResult.best_trace`` and (for the last
finished session) in ``runtime.metrics.tuner_stats()["best_trace"]``.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..errors import InvalidSchedule


def _resolve(v, schedule):
    """A recorded argument as the primitive takes it on ``schedule``'s
    current tree."""
    if isinstance(v, list):
        return [_resolve(x, schedule) for x in v]
    if isinstance(v, dict) and "$stmt" in v:
        sids = schedule._preorder(schedule.func)
        k = v["$stmt"]
        if not 0 <= k < len(sids):
            raise InvalidSchedule(
                f"trace references statement #{k} but the tree has "
                f"{len(sids)} statements")
        return sids[k]
    return v


class ScheduleTrace:
    """An ordered, replayable record of applied schedule primitives."""

    __slots__ = ("steps",)

    def __init__(self, steps: Optional[List[dict]] = None):
        #: each step: ``{"prim": name, "args": {...}}`` with JSON-able
        #: argument values (literals, lists, or ``{"$stmt": k}``)
        self.steps: List[dict] = list(steps or [])

    def __len__(self):
        return len(self.steps)

    def __bool__(self):
        # an empty trace is still a real trace (the base schedule)
        return True

    def apply(self, schedule):
        """Replay every step, in order, on ``schedule`` (a
        :class:`~repro.schedule.Schedule` over the same base program),
        which records them again. Returns the schedule. Raises the
        primitive's own error if a step no longer applies."""
        for step in self.steps:
            fn = getattr(schedule, step["prim"], None)
            if fn is None:
                raise InvalidSchedule(
                    f"trace step {step['prim']!r} is not a schedule "
                    f"primitive")
            fn(**{k: _resolve(v, schedule)
                  for k, v in step["args"].items()})
        return schedule

    # -- serialization -----------------------------------------------------
    def as_json(self) -> List[dict]:
        """The trace as a plain JSON-able list."""
        return [{"prim": s["prim"], "args": s["args"]} for s in self.steps]

    def dumps(self) -> str:
        return json.dumps(self.as_json())

    @classmethod
    def from_json(cls, data) -> "ScheduleTrace":
        """Rebuild a trace from :meth:`as_json` output (or its
        ``json.dumps``-ed string)."""
        if isinstance(data, str):
            data = json.loads(data)
        return cls([{"prim": str(s["prim"]), "args": dict(s["args"])}
                    for s in data])

    def summary(self) -> str:
        """Human-readable one-line-per-step rendering."""

        def show(v):
            if isinstance(v, dict) and "$stmt" in v:
                return f"stmt[{v['$stmt']}]"
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
