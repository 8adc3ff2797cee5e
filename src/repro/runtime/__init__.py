"""Runtime: the driver, the reference interpreter, the simulated device
(``gpusim``: the one ``Device`` accounting class, shared with the operator
baseline) and the process counter tables (``metrics``)."""

from .._lazy import lazy_exports
from .driver import (Executable, build, build_cache_stats, clear_build_cache,
                     register_backend)

__getattr__ = lazy_exports(__name__, globals(),
                           {"Interpreter": ".interpreter"})

__all__ = ["Executable", "build", "build_cache_stats", "clear_build_cache",
           "register_backend", "Interpreter"]
