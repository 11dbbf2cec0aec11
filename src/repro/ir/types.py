"""Type system for the repro IR.

The IR is a typed SSA representation closely modelled on LLVM's, which is
what the Parsimony prototype targets (paper §4).  Types are immutable and
interned — every kind, ``FunctionType`` included — so there is one object
per type and equality is identity: ``==`` and ``hash`` are ``object``'s,
and the kind predicates (``is_int`` …) are class constants, not
``isinstance`` tests.  Unpickling re-enters the intern tables
(``__reduce__``), so a type loaded from the disk cache is the same object.

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

    #: Populated by subclasses: the arguments that intern the type.
    _key: tuple = ()

    #: Kind predicates, fixed per class (``is_scalar``: ints, floats and
    #: pointers — anything with one lane).
    is_int = False
    is_float = False
    is_pointer = False
    is_vector = False
    is_void = False
    is_scalar = False

    def __reduce__(self):
        # Types are interned via __new__ taking exactly the intern key, so
        # unpickling re-enters the cache and preserves ``is`` identity
        # (needed by the on-disk compile cache).
        return (type(self), tuple(self._key))

    def size_bytes(self) -> int:
        """Size of a value of this type in the VM's memory, in bytes."""
        raise TypeError(f"type {self} has no memory size")

    @property
    def scalar_type(self) -> "Type":
        """The element type for vectors; the type itself for scalars."""
        return self.elem if self.is_vector else self


class IntType(Type):
    """A sign-less integer type of a fixed bit width."""

    is_int = True
    is_scalar = True

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

    is_float = True
    is_scalar = True

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

    is_pointer = True
    is_scalar = True

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

    is_vector = True

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

    is_void = True

    _inst = None

    def __new__(cls) -> "VoidType":
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self) -> str:
        return "void"


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    _cache: dict = {}

    def __new__(cls, ret: Type, params: Tuple[Type, ...]) -> "FunctionType":
        key = (ret, tuple(params))
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.ret, inst.params = key
            inst._key = key
            cls._cache[key] = inst
        return inst

    ret: Type
    params: Tuple[Type, ...]

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
