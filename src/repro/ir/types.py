"""Type system for the repro IR.

The IR is a typed SSA representation closely modelled on LLVM's, which is
what the Parsimony prototype targets (paper §4).  Types are immutable and
interned, so identity comparison (``is``) works for the common scalar types
and ``==`` works everywhere.

Supported kinds:

* ``IntType(bits)`` — sign-less integers (i1, i8, i16, i32, i64).  As in
  LLVM, signedness lives in the *operations* (``sdiv`` vs ``udiv``,
  ``icmp slt`` vs ``icmp ult``), not in the type.
* ``FloatType(bits)`` — IEEE binary32/binary64 (f32, f64).
* ``PointerType(pointee)`` — typed pointers into the VM's flat memory.
  Pointers are 64-bit integers at runtime.
* ``VectorType(elem, count)`` — fixed-length vectors of scalar elements.
  These appear after the Parsimony vectorization pass; ``count`` is the
  gang size, which the back-end later legalizes to machine width.
* ``VoidType``, ``FunctionType`` — the obvious.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "Type",
    "IntType",
    "FloatType",
    "PointerType",
    "VectorType",
    "VoidType",
    "FunctionType",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "F32",
    "F64",
    "VOID",
    "POINTER_BITS",
]

#: Width of a pointer at runtime.  The VM's flat memory is byte addressed
#: with 64-bit addresses, matching the x86-64 target of the paper.
POINTER_BITS = 64


class Type:
    """Base class for all IR types."""

    #: Populated by subclasses; used for interning and hashing.
    _key: tuple = ()

    def __eq__(self, other: object) -> bool:
        # Every type but ``FunctionType`` is interned, so the common
        # "equal" answer is an identity test.
        return self is other or (
            type(self) is type(other) and self._key == other._key  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key))

    def __reduce__(self):
        # Types are interned via __new__/__init__ taking exactly the intern
        # key, so unpickling re-enters the cache and preserves ``is``
        # identity (needed by the on-disk compile cache).
        return (type(self), tuple(self._key))

    # -- convenience predicates -------------------------------------------------

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_scalar(self) -> bool:
        """True for ints, floats, and pointers (anything with one lane)."""
        return self.is_int or self.is_float or self.is_pointer

    def size_bytes(self) -> int:
        """Size of a value of this type in the VM's memory, in bytes."""
        raise TypeError(f"type {self} has no memory size")

    @property
    def scalar_type(self) -> "Type":
        """The element type for vectors; the type itself for scalars."""
        return self.elem if isinstance(self, VectorType) else self


class IntType(Type):
    """A sign-less integer type of a fixed bit width."""

    _cache: dict = {}

    def __new__(cls, bits: int) -> "IntType":
        if bits not in cls._cache:
            if bits not in (1, 8, 16, 32, 64):
                raise ValueError(f"unsupported integer width: {bits}")
            inst = super().__new__(cls)
            inst.bits = bits
            inst._key = (bits,)
            cls._cache[bits] = inst
        return cls._cache[bits]

    bits: int

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    def __repr__(self) -> str:
        return f"i{self.bits}"


class FloatType(Type):
    """An IEEE-754 floating point type (f32 or f64)."""

    _cache: dict = {}

    def __new__(cls, bits: int) -> "FloatType":
        if bits not in cls._cache:
            if bits not in (32, 64):
                raise ValueError(f"unsupported float width: {bits}")
            inst = super().__new__(cls)
            inst.bits = bits
            inst._key = (bits,)
            cls._cache[bits] = inst
        return cls._cache[bits]

    bits: int

    def size_bytes(self) -> int:
        return self.bits // 8

    def __repr__(self) -> str:
        return f"f{self.bits}"


class PointerType(Type):
    """A typed pointer.  ``pointee`` is the scalar type loaded/stored."""

    _cache: dict = {}

    def __new__(cls, pointee: Type) -> "PointerType":
        key = pointee
        if key not in cls._cache:
            if not (pointee.is_scalar or pointee.is_void):
                raise ValueError(f"pointer to non-scalar type: {pointee}")
            inst = super().__new__(cls)
            inst.pointee = pointee
            inst._key = (pointee,)
            cls._cache[key] = inst
        return cls._cache[key]

    pointee: Type

    @property
    def bits(self) -> int:
        return POINTER_BITS

    def size_bytes(self) -> int:
        return POINTER_BITS // 8

    def __repr__(self) -> str:
        return f"{self.pointee}*"


class VectorType(Type):
    """A fixed-length vector ``<count x elem>`` of scalar elements."""

    _cache: dict = {}

    def __new__(cls, elem: Type, count: int) -> "VectorType":
        key = (elem, count)
        if key not in cls._cache:
            if not elem.is_scalar:
                raise ValueError(f"vector of non-scalar type: {elem}")
            if count < 1:
                raise ValueError(f"vector length must be >= 1, got {count}")
            inst = super().__new__(cls)
            inst.elem = elem
            inst.count = count
            inst._key = key
            cls._cache[key] = inst
        return cls._cache[key]

    elem: Type
    count: int

    @property
    def bits(self) -> int:
        return self.elem.bits * self.count  # type: ignore[attr-defined]

    def size_bytes(self) -> int:
        return self.elem.size_bytes() * self.count

    def __repr__(self) -> str:
        return f"<{self.count} x {self.elem}>"


class VoidType(Type):
    """The type of instructions that produce no value."""

    _inst = None

    def __new__(cls) -> "VoidType":
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self) -> str:
        return "void"


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    def __init__(self, ret: Type, params: Tuple[Type, ...]):
        self.ret = ret
        self.params = tuple(params)
        self._key = (ret, self.params)

    def __repr__(self) -> str:
        params = ", ".join(map(repr, self.params))
        return f"{self.ret} ({params})"


# Interned singletons for the common types.
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
VOID = VoidType()
