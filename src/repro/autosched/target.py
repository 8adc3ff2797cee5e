"""Target descriptions for the auto-scheduler.

What a backend does on a target is the capability table it declares in
the backend registry (``repro.backend.backend_caps``). What ``CPU`` and
``GPU`` share is a module constant below.
"""

from __future__ import annotations

__all__ = ["CPU", "GPU", "Target", "default_target"]

#: threads per block when mapping loops onto a GPU grid
BLOCK_SIZE = 256
#: largest constant-size tensor placed in per-thread registers (elements)
MAX_LOCAL_ELEMS = 64
#: largest constant-size tensor placed in per-block shared memory
MAX_SHARED_ELEMS = 4096
#: constant trip counts up to this are unrolled, not vectorized
UNROLL_LIMIT = 4
#: SIMD lanes per vector op on native backends (8 × f32 = AVX2)
VECTOR_WIDTH = 8


class Target:
    """Hardware the auto-scheduler optimises for."""

    def __init__(self, kind: str, name: str, num_threads: int = 1):
        assert kind in ("cpu", "gpu")
        self.kind = kind
        self.name = name
        self.num_threads = num_threads

    def cache_key(self) -> tuple:
        """Full-content key for the build cache."""
        return ("Target", self.kind, self.name, self.num_threads)

    def __repr__(self):  # pragma: no cover
        return f"Target({self.kind}:{self.name})"


CPU = Target("cpu", "generic-cpu", num_threads=24)
GPU = Target("gpu", "sim-v100", num_threads=0)


def default_target(backend: str = "pycode") -> Target:
    """The default scheduling target for ``backend``, per its registered
    ``target_kind`` declaration."""
    from ..backend import get_backend

    return GPU if get_backend(backend).target_kind == "gpu" else CPU
