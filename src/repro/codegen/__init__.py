"""Code generators: Python/NumPy, C/OpenMP (native), and CUDA (source);
each loads with the backend that uses it (``repro._lazy``)."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "PyCodegen": ".pycode", "compile_func": ".pycode"})

__all__ = ["PyCodegen", "compile_func"]
