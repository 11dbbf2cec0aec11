"""Constant folding and algebraic simplification.

Folds scalar binops, unary ops, compares and casts over constant
operands through :func:`repro.vm.ops.value_impl` — the one resolver both
execution engines evaluate those opcodes with — so the compiler and the
machine can never disagree about an operation's result, a property the
folding tests assert directly.
"""

from __future__ import annotations

from ..ir.instructions import CAST_OPS, FLOAT_BINOPS, INT_BINOPS, Instruction, UNARY_OPS
from ..ir.module import Function
from ..ir.types import VectorType
from ..ir.values import Constant, Value
from ..vm.ops import VMTrap, value_impl

__all__ = ["constant_fold"]

#: The scalar opcode families folded over all-constant operands (casts
#: too, when their source is scalar).
_FOLDED_OPS = INT_BINOPS | FLOAT_BINOPS | UNARY_OPS | {"icmp", "fcmp"}


def constant_fold(function: Function) -> bool:
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for instr in list(block.instructions):
                folded = _fold(instr)
                if folded is not None:
                    instr.replace_all_uses_with(folded)
                    instr.erase()
                    progress = True
                    changed = True
    return changed


def _fold(instr: Instruction):
    if instr.uses == [] and not instr.type.is_void:
        # Leave pure dead code for DCE; nothing to fold into.
        pass
    op = instr.opcode
    operands = instr.operands
    if isinstance(instr.type, VectorType):
        return None  # vector constants are folded lane-wise only when needed
    consts = [o for o in operands if isinstance(o, Constant)]

    if op == "select" and isinstance(operands[0], Constant):
        return operands[1] if operands[0].value else operands[2]
    if len(consts) == len(operands) and (
        op in _FOLDED_OPS
        or (op in CAST_OPS and not operands[0].type.is_vector)
    ):
        try:
            result = value_impl(instr)(*(c.value for c in consts))
        except (VMTrap, NotImplementedError):
            return None  # a constant division by zero traps at run time
        return Constant(instr.type, result)

    return _algebraic(instr)


def _algebraic(instr: Instruction):
    """Identity simplifications on one constant operand."""
    op = instr.opcode
    operands = instr.operands
    if len(operands) != 2:
        return None
    a, b = operands

    def is_const(v: Value, value) -> bool:
        return isinstance(v, Constant) and not v.type.is_vector and v.value == _canon(v, value)

    def _canon(v: Constant, value):
        if v.type.is_int:
            return value & ((1 << v.type.bits) - 1)
        return value

    if op in ("add", "or", "xor"):
        if is_const(b, 0):
            return a
        if is_const(a, 0):
            return b
    if op == "sub" and is_const(b, 0):
        return a
    if op == "mul":
        if is_const(b, 1):
            return a
        if is_const(a, 1):
            return b
        if is_const(a, 0):
            return a
        if is_const(b, 0):
            return b
    if op == "and":
        if is_const(b, -1):
            return a
        if is_const(a, -1):
            return b
        if is_const(a, 0):
            return a
        if is_const(b, 0):
            return b
    if op in ("shl", "lshr", "ashr") and is_const(b, 0):
        return a
    if op in ("udiv", "sdiv") and is_const(b, 1):
        return a
    if op == "fmul" and is_const(b, 1.0):
        return a
    if op == "fadd" and is_const(b, 0.0):
        return a
    return None
