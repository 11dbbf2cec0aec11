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
    if instr.type.is_vector:
        return None  # vector constants are folded lane-wise only when needed
    operands = instr._operands  # read only: no tuple per visit
    consts = [o for o in operands if isinstance(o, Constant)]
    if not consts:
        return None  # every rule below needs a constant operand
    op = instr.opcode

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

    if len(operands) != 2:
        return None
    return _algebraic(op, *operands)


def _is_const(v: Value, value) -> bool:
    """``v`` is a scalar constant equal to ``value`` (an int read at
    ``v``'s width)."""
    if not isinstance(v, Constant) or v.type.is_vector:
        return False
    if v.type.is_int:
        value &= (1 << v.type.bits) - 1
    return v.value == value


def _algebraic(op: str, a: Value, b: Value):
    """Identity simplifications on one constant operand."""
    if op in ("add", "or", "xor"):
        if _is_const(b, 0):
            return a
        if _is_const(a, 0):
            return b
    if op == "sub" and _is_const(b, 0):
        return a
    if op == "mul":
        if _is_const(b, 1):
            return a
        if _is_const(a, 1):
            return b
        if _is_const(a, 0):
            return a
        if _is_const(b, 0):
            return b
    if op == "and":
        if _is_const(b, -1):
            return a
        if _is_const(a, -1):
            return b
        if _is_const(a, 0):
            return a
        if _is_const(b, 0):
            return b
    if op in ("shl", "lshr", "ashr") and _is_const(b, 0):
        return a
    if op in ("udiv", "sdiv") and _is_const(b, 1):
        return a
    if op == "fmul" and _is_const(b, 1.0):
        return a
    if op == "fadd" and _is_const(b, 0.0):
        return a
    return None
