"""The whole-program verifier driver: run every analysis, filter, sort.

``verify(func)`` works on any IR ``Func`` — freshly staged, mid-schedule,
or post-lowering — and on a frontend ``Program``. It returns a
:class:`~repro.analysis.verify.diagnostics.Diagnostics` report; it never
raises on findings (call ``report.raise_if_errors()`` for that, or build
with ``verify=True`` to gate compilation).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ...ir import stmt as S
from .bounds_check import check_bounds
from .defuse import check_defuse
from .diagnostics import SEVERITY_ORDER, Diagnostic, Diagnostics
from .lint import check_lint
from .races import check_races


def _check_perf(func):
    # lazy: the perf lint rides on the cost model, which must not load
    # (and must not import the scheduler) just because verify() ran
    from ..cost.lint import check_perf

    return check_perf(func)


#: analysis registry, in report order
ANALYSES = (
    ("bounds", check_bounds),
    ("races", check_races),
    ("defuse", check_defuse),
    ("lint", check_lint),
    ("perf", _check_perf),
)


def _as_func(func_or_program) -> S.Func:
    if isinstance(func_or_program, S.Func):
        return func_or_program
    # Lazy: the frontend imports analysis pieces at staging time.
    from ...frontend.staging import Program

    if isinstance(func_or_program, Program):
        return func_or_program.func
    raise TypeError(
        f"verify() needs a Func or Program, got "
        f"{type(func_or_program).__name__}")


def _sort_key(d: Diagnostic):
    span = d.span if d.span is not None else ("￿", 1 << 30)
    return (SEVERITY_ORDER[d.severity], span[0], span[1], d.code,
            d.sid or "")


def verify(func_or_program,
           level: str = "warning",
           analyses: Optional[Iterable[str]] = None) -> Diagnostics:
    """Statically verify one function; return the findings.

    ``level`` is the least severe finding to keep (``"error"`` silences
    warnings). ``analyses`` restricts to a subset of
    ``("bounds", "races", "defuse", "lint", "perf")``; by default all of
    them run except that ``perf`` (whose findings are all info severity)
    is skipped unless ``level="info"`` asks for info findings.
    """
    func = _as_func(func_or_program)
    if level not in SEVERITY_ORDER:
        raise ValueError(
            f"unknown level {level!r}; choose from "
            f"{tuple(SEVERITY_ORDER)}")
    if analyses is not None:
        analyses = tuple(analyses)
        known = {name for name, _ in ANALYSES}
        bad = set(analyses) - known
        if bad:
            raise ValueError(
                f"unknown analyses {sorted(bad)}; choose from "
                f"{sorted(known)}")
    max_rank = SEVERITY_ORDER[level]
    diags: List[Diagnostic] = []
    for name, check in ANALYSES:
        if analyses is not None and name not in analyses:
            continue
        if analyses is None and name == "perf" \
                and max_rank < SEVERITY_ORDER["info"]:
            # every perf finding is info severity: skip the (cost-model
            # + dependence) work when the report would drop them anyway
            continue
        diags.extend(check(func))
    diags = [d for d in diags if SEVERITY_ORDER[d.severity] <= max_rank]
    diags.sort(key=_sort_key)
    report = Diagnostics(diags, func_name=func.name)
    from ...runtime import metrics

    metrics.record_verifier_run(len(report.errors), len(report.warnings))
    return report
