"""Scalar data types, memory types and access types of the IR.

These mirror FreeTensor's tensor meta-data (paper section 3.1): every tensor
has an element data type (``DataType``), lives in some level of the memory
hierarchy (``MemType``), and plays a role in its defining function
(``AccessType``).
"""

from __future__ import annotations

import enum

import numpy as np


class DataType(enum.Enum):
    """Element type of a tensor (scalars are 0-D tensors)."""

    BOOL = "bool"
    INT32 = "i32"
    INT64 = "i64"
    FLOAT32 = "f32"
    FLOAT64 = "f64"

    # ------------------------------------------------------------------
    @staticmethod
    def parse(spec: "DataType | str") -> "DataType":
        """Parse a dtype from its string spelling (``"f32"``, ``"i64"``...)."""
        if isinstance(spec, DataType):
            return spec
        try:
            return _DTYPE_BY_NAME[str(spec)]
        except KeyError:
            raise ValueError(f"unknown data type: {spec!r}") from None

    # ------------------------------------------------------------------
    @property
    def is_float(self) -> bool:
        return self in (DataType.FLOAT32, DataType.FLOAT64)

    @property
    def is_int(self) -> bool:
        return self in (DataType.INT32, DataType.INT64)

    @property
    def is_bool(self) -> bool:
        return self is DataType.BOOL

    @property
    def size_bytes(self) -> int:
        """Size of one element in bytes."""
        return _SIZES[self]

    def to_numpy(self) -> np.dtype:
        """The equivalent NumPy dtype."""
        return _NUMPY[self]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_DTYPE_BY_NAME = {d.value: d for d in DataType}
_DTYPE_BY_NAME.update({
    "float32": DataType.FLOAT32,
    "float64": DataType.FLOAT64,
    "int32": DataType.INT32,
    "int64": DataType.INT64,
})

_SIZES = {
    DataType.BOOL: 1,
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.FLOAT32: 4,
    DataType.FLOAT64: 8,
}

_NUMPY = {
    DataType.BOOL: np.dtype(np.bool_),
    DataType.INT32: np.dtype(np.int32),
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT32: np.dtype(np.float32),
    DataType.FLOAT64: np.dtype(np.float64),
}

# Rank used when joining dtypes of binary expressions: the result takes the
# higher-ranked operand's type (bool < i32 < i64 < f32 < f64).
_RANK = {
    DataType.BOOL: 0,
    DataType.INT32: 1,
    DataType.INT64: 2,
    DataType.FLOAT32: 3,
    DataType.FLOAT64: 4,
}


def join_dtype(a: DataType, b: DataType) -> DataType:
    """Common dtype of a binary expression over operands of types a and b."""
    return a if _RANK[a] >= _RANK[b] else b


def from_numpy_dtype(np_dtype) -> DataType:
    """Map a NumPy dtype back to a :class:`DataType`."""
    np_dtype = np.dtype(np_dtype)
    for ours, theirs in _NUMPY.items():
        if theirs == np_dtype:
            return ours
    raise ValueError(f"unsupported numpy dtype: {np_dtype}")


class MemType(enum.Enum):
    """Where a tensor is stored (paper: ``mtype``).

    ``BYVALUE`` is used for scalars passed by value (e.g. shape variables).
    GPU memory levels exist so schedules like ``set_mtype`` and the simulated
    GPU backend can model the paper's memory-hierarchy optimizations.
    """

    BYVALUE = "byvalue"
    CPU = "cpu"
    CPU_HEAP = "cpu/heap"
    GPU_GLOBAL = "gpu/global"
    GPU_SHARED = "gpu/shared"
    GPU_LOCAL = "gpu/local"

    @staticmethod
    def parse(spec: "MemType | str") -> "MemType":
        if isinstance(spec, MemType):
            return spec
        spec = str(spec)
        if spec == "gpu":  # convenience alias used throughout the paper
            return MemType.GPU_GLOBAL
        for m in MemType:
            if m.value == spec:
                return m
        raise ValueError(f"unknown memory type: {spec!r}")

    @property
    def is_global(self) -> bool:
        """Whether the memory is visible to all threads of its device."""
        return self in (MemType.CPU, MemType.CPU_HEAP, MemType.GPU_GLOBAL)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AccessType(enum.Enum):
    """Role of a tensor in its defining function."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    CACHE = "cache"  # a local/intermediate tensor

    @staticmethod
    def parse(spec: "AccessType | str") -> "AccessType":
        if isinstance(spec, AccessType):
            return spec
        for a in AccessType:
            if a.value == str(spec):
                return a
        raise ValueError(f"unknown access type: {spec!r}")

    @property
    def is_written(self) -> bool:
        return self in (AccessType.OUTPUT, AccessType.INOUT, AccessType.CACHE)

    @property
    def is_input(self) -> bool:
        return self in (AccessType.INPUT, AccessType.INOUT)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
