"""Target descriptions for the auto-scheduler.

``Target.capabilities`` delegates to the backend registry, where each
backend declares its :class:`~repro.backend.BackendCaps`.
"""

from __future__ import annotations

from ..backend.caps import BackendCaps

__all__ = ["CPU", "GPU", "Target", "default_target"]


class Target:
    """Hardware the auto-scheduler optimises for."""

    def __init__(self, kind: str, name: str, num_threads: int = 1,
                 block_size: int = 256, max_local_elems: int = 64,
                 max_shared_elems: int = 4096, unroll_limit: int = 4,
                 vector_width: int = 8):
        assert kind in ("cpu", "gpu")
        self.kind = kind
        self.name = name
        self.num_threads = num_threads
        #: threads per block when mapping loops onto a GPU grid
        self.block_size = block_size
        self.max_local_elems = max_local_elems
        self.max_shared_elems = max_shared_elems
        self.unroll_limit = unroll_limit
        #: SIMD lanes per vector op on native backends (8 × f32 = AVX2)
        self.vector_width = vector_width

    def cache_key(self) -> tuple:
        """Full-content key for the build cache (repr omits tunables)."""
        return ("Target", self.kind, self.name, self.num_threads,
                self.block_size, self.max_local_elems,
                self.max_shared_elems, self.unroll_limit,
                self.vector_width)

    def capabilities(self, backend: str = "pycode") -> BackendCaps:
        """The cost model's view of what ``backend`` does with schedule
        annotations when compiling for this target — the capability
        table the backend's registered :class:`~repro.backend.Backend`
        declares (``repro.backend.backend_caps``); unknown backend names
        get the sequential-scalar fallback where every annotation is a
        no-op."""
        from ..backend import backend_caps

        return backend_caps(backend, self)

    def __repr__(self):  # pragma: no cover
        return f"Target({self.kind}:{self.name})"


CPU = Target("cpu", "generic-cpu", num_threads=24)
GPU = Target("gpu", "sim-v100", num_threads=0, block_size=256)


def default_target(backend: str = "pycode") -> Target:
    """The default scheduling target for ``backend``, per its registered
    ``target_kind`` declaration (CPU for unknown names)."""
    from ..backend import find_backend

    b = find_backend(backend)
    return b.default_target() if b is not None else CPU
