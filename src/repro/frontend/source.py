"""Source-location capture for staged DSL programs.

``@transform`` compiles the rewritten AST against the user's real source
file with the original line numbers (see ``staging._rewrite_function``),
and registers the resulting code objects here. While the staged function
executes, :func:`current_span` walks the Python call stack to the nearest
registered frame and reports ``(filename, line)`` — the DSL line whose
execution is emitting IR right now. The builder stamps that span onto
every emitted statement, so diagnostics (``repro.verify``) can point at
user code. Spans are purely informational; nothing in the compile path
depends on them.
"""

from __future__ import annotations

import sys
import types
from typing import Optional, Tuple

#: code objects produced by ``@transform`` / ``@inline`` rewriting
_STAGED_CODE = set()

#: frames to walk before giving up (staging helpers sit just a few frames
#: above the user's code; a large cap only guards against pathological
#: recursion between here and the staged frame)
_MAX_WALK = 256


def register_staged(code) -> None:
    """Register a staged function's code object (and any nested code)."""
    _STAGED_CODE.add(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            register_staged(const)


def current_span() -> Optional[Tuple[str, int]]:
    """The DSL source line currently executing, or None.

    Walks from the caller towards the stack root and returns the first
    frame whose code object was registered by :func:`register_staged` —
    i.e. the innermost staged function (an ``@inline`` helper counts, so
    diagnostics point into the helper rather than at its call site).
    """
    if not _STAGED_CODE:
        return None
    frame = sys._getframe(1)
    for _ in range(_MAX_WALK):
        if frame is None:
            return None
        if frame.f_code in _STAGED_CODE:
            return (frame.f_code.co_filename, frame.f_lineno)
        frame = frame.f_back
    return None
