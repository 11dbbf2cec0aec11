"""NumPy dtype mapping and two's-complement helpers for the VM.

Runtime representation conventions:

* scalar integers — Python ``int`` in canonical unsigned (masked) form;
* scalar floats — Python ``float`` (f32 values are rounded through
  ``numpy.float32`` at producer sites);
* pointers — Python ``int`` byte addresses into the flat memory;
* vectors — 1-D ``numpy`` arrays: unsigned dtypes for ints (signedness is
  applied per-operation, as in the sign-less IR), ``bool_`` for i1 lanes,
  native float dtypes for floats.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..ir.types import FloatType, IntType, PointerType, Type, VectorType

__all__ = [
    "elem_dtype",
    "signed_dtype",
    "mask_int",
    "to_signed",
    "from_signed",
    "signed_view",
    "as_unsigned",
    "count_nonzero",
]

#: ``count_nonzero(array)`` without the Python-level dispatcher: the
#: C function behind ``np.count_nonzero`` costs a tenth of ``m.any()`` on
#: a gang-wide mask.  It returns ``numpy.int64`` — wrap it in ``int``
#: before it can reach 64-bit Python-int arithmetic.
try:
    from numpy._core.multiarray import count_nonzero
except ImportError:  # numpy < 2 keeps it in numpy.core
    try:
        from numpy.core.multiarray import count_nonzero
    except ImportError:
        count_nonzero = np.count_nonzero

_UNSIGNED = {1: np.bool_, 8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
_SIGNED = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}
_FLOAT = {32: np.float32, 64: np.float64}


@cache  # types are interned: one entry per type, found by identity
def elem_dtype(type: Type):
    """The numpy dtype used to store lanes (or memory cells) of ``type``."""
    if isinstance(type, IntType):
        return np.dtype(_UNSIGNED[type.bits])
    if isinstance(type, FloatType):
        return np.dtype(_FLOAT[type.bits])
    if isinstance(type, PointerType):
        return np.dtype(np.uint64)
    raise TypeError(f"no dtype for {type}")


def signed_dtype(type: Type):
    """Signed companion dtype for an integer type (i1 treated as i8)."""
    if isinstance(type, IntType):
        return np.dtype(_SIGNED.get(type.bits, np.int8))
    raise TypeError(f"no signed dtype for {type}")


def mask_int(value: int, bits: int) -> int:
    """Canonicalize a Python int to ``bits``-wide two's complement."""
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int) -> int:
    """Reinterpret a canonical unsigned int as signed."""
    if value >= (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def from_signed(value: int, bits: int) -> int:
    """Mask a (possibly negative) int back to canonical unsigned form."""
    return value & ((1 << bits) - 1)


def signed_view(array: np.ndarray) -> np.ndarray:
    """View an unsigned integer array as its signed counterpart."""
    kind = array.dtype.kind
    if kind == "u":
        return array.view(np.dtype(f"i{array.dtype.itemsize}"))
    if kind == "b":
        return array.astype(np.int8)
    return array


def as_unsigned(array: np.ndarray) -> np.ndarray:
    """View a signed integer array back as unsigned."""
    if array.dtype.kind == "i":
        return array.view(np.dtype(f"u{array.dtype.itemsize}"))
    return array
