"""``repro.verify`` — the user-facing door to the whole-program verifier.

Usable three ways:

- as a function: ``repro.verify(func_or_program, level=...)`` returns a
  :class:`~repro.analysis.verify.diagnostics.Diagnostics` report (this
  module is callable);
- as a build gate: ``repro.build(prog, verify=True)`` raises
  :class:`~repro.errors.VerificationError` on errors;
- as a CLI: ``python -m repro.verify <workload|file.py> ...`` pretty-prints
  findings with source carets (see ``__main__.py``).
"""

import sys as _sys
import types as _types

from ..analysis.verify import (ANALYSES, SEVERITIES, Diagnostic,
                               Diagnostics, verify)

__all__ = [
    "ANALYSES", "Diagnostic", "Diagnostics", "SEVERITIES", "verify",
]


class _CallableModule(_types.ModuleType):
    """Lets ``repro.verify(...)`` be called directly while remaining an
    importable package (``python -m repro.verify`` still works)."""

    def __call__(self, *args, **kwargs):
        return verify(*args, **kwargs)


_sys.modules[__name__].__class__ = _CallableModule
