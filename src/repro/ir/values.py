"""SSA values: the base ``Value`` class, constants, undef, and arguments.

Every node in the IR dataflow graph is a ``Value`` with a ``type``.  Values
track their uses (def-use chains) so that passes can rewrite the graph with
``replace_all_uses_with``, mirroring LLVM's RAUW.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Optional, Tuple, Union

from .types import IntType, Type, VectorType

__all__ = ["Value", "Constant", "UndefValue", "Argument", "const_int", "const_bool"]

#: The containers ``Module.freeze`` seals (list -> tuple, dict ->
#: ``MappingProxyType``, set -> frozenset).  Named, not inferred from the
#: value's type: a vector ``Constant.value`` is a tuple by construction.
_SEALED_LISTS = ("uses", "_operands", "instructions", "blocks")


def thawed_state(node) -> dict:
    """``__getstate__`` for IR nodes: the node's ``__dict__`` with sealed
    containers back in their mutable form and identity-scoped caches
    dropped, so a frozen module pickles to exactly what its unfrozen self
    would have (``mappingproxy`` does not pickle at all) and unpickles
    mutable."""
    state = dict(node.__dict__)
    state.pop("_emissions", None)
    state.pop("_unbatched_twin", None)
    for key in _SEALED_LISTS:
        if type(state.get(key)) is tuple:
            state[key] = list(state[key])
    for key, value in state.items():
        if type(value) is MappingProxyType:
            state[key] = dict(value)
        elif type(value) is frozenset:
            state[key] = set(value)
    return state


class Value:
    """Base class for everything that can appear as an instruction operand."""

    def __init__(self, type: Type, name: str = ""):
        self.type = type
        self.name = name
        #: Def-use chain: list of ``(user_instruction, operand_index)`` pairs
        #: (a tuple once the owning module is frozen).
        self.uses: List[Tuple["Value", int]] = []

    __getstate__ = thawed_state

    @property
    def users(self):
        """The distinct instructions that use this value."""
        seen = []
        for user, _ in self.uses:
            if user not in seen:
                seen.append(user)
        return seen

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new`` instead."""
        if new is self:
            return
        for user, idx in list(self.uses):
            user.set_operand(idx, new)

    # Instructions override these; plain values have no operands.
    def set_operand(self, idx: int, value: "Value") -> None:  # pragma: no cover
        raise TypeError(f"{type(self).__name__} has no operands")

    def __repr__(self) -> str:
        return f"{self.type} %{self.name}" if self.name else f"{self.type} <anon>"


class Constant(Value):
    """A compile-time constant.

    For integer types the payload is a Python int stored in two's-complement
    canonical (non-negative) form; for float types a Python float; for vector
    types a tuple of per-lane payloads.
    """

    def __init__(self, type: Type, value):
        super().__init__(type)
        if isinstance(type, VectorType):
            elem = type.elem
            if isinstance(elem, IntType):
                # Per lane what ``_canonical_scalar`` does, minus a call
                # and a type test each: lane tables run to 64 entries.
                mask = (1 << elem.bits) - 1
                value = tuple([int(v) & mask for v in value])
            else:
                value = tuple([_canonical_scalar(elem, v) for v in value])
            if len(value) != type.count:
                raise ValueError(
                    f"vector constant has {len(value)} lanes, type wants {type.count}"
                )
        else:
            value = _canonical_scalar(type, value)
        self.value = value

    @classmethod
    def from_canonical(cls, type: Type, value) -> "Constant":
        """A constant whose payload is already canonical for ``type`` —
        taken, whole or lane by lane, from constants of the same element
        type (cloning one, tiling one) — so nothing is re-normalized."""
        const = cls.__new__(cls)
        Value.__init__(const, type)
        const.value = value
        return const

    def as_signed(self) -> Union[int, float, tuple]:
        """Interpret integer payload(s) as signed two's complement."""
        if isinstance(self.type, VectorType):
            return tuple(_to_signed(self.type.elem, v) for v in self.value)
        return _to_signed(self.type, self.value)

    @property
    def is_zero(self) -> bool:
        if isinstance(self.type, VectorType):
            return all(v == 0 for v in self.value)
        return self.value == 0

    def __repr__(self) -> str:
        return f"{self.type} {self.value}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


def _canonical_scalar(type: Type, value):
    """Canonicalize a scalar constant payload for its type."""
    if isinstance(type, IntType):
        return int(value) & ((1 << type.bits) - 1)
    if type.is_float:
        return float(value)
    if type.is_pointer:
        return int(value) & ((1 << 64) - 1)
    raise TypeError(f"cannot build constant of type {type}")


def _to_signed(type: Type, value: int):
    if isinstance(type, IntType) and value >= (1 << (type.bits - 1)):
        return value - (1 << type.bits)
    return value


def const_int(type: Type, value: int) -> Constant:
    """Shorthand for an integer ``Constant``."""
    return Constant(type, value)


def const_bool(value: bool) -> Constant:
    """Shorthand for an ``i1`` ``Constant``."""
    return Constant(IntType(1), 1 if value else 0)


class UndefValue(Value):
    """An undefined value of a given type (used for placeholder phi inputs)."""

    def __repr__(self) -> str:
        return f"{self.type} undef"


class Argument(Value):
    """A formal parameter of a ``Function``."""

    def __init__(self, type: Type, name: str, index: int, function=None):
        super().__init__(type, name)
        self.index = index
        self.function = function

    def __repr__(self) -> str:
        return f"{self.type} %{self.name}"
