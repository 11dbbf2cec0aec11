"""Loop-invariant code motion.

Hoists pure instructions whose operands are loop-invariant into the loop
preheader.  After the vectorized SPMD region function is re-inlined into
its gang loop (§4.1), this is what lifts broadcast/splat setup and other
per-gang-constant work out of the per-gang iteration — the same division
of labour as LLVM's inline + LICM cleanup.
"""

from __future__ import annotations

from ..ir.cfg import Loop
from ..ir.instructions import CAST_OPS, FLOAT_BINOPS, INT_BINOPS, Instruction, UNARY_OPS
from ..ir.module import Function
from ..ir.values import Value
from .loop_simplify import simplified_loops

__all__ = ["licm"]

_HOISTABLE = (
    INT_BINOPS | FLOAT_BINOPS | UNARY_OPS | CAST_OPS
    | {"icmp", "fcmp", "select", "gep", "fma", "broadcast", "shuffle",
       "shuffle2", "extractelement", "insertelement", "sad", "mask_any",
       "mask_all", "mask_popcnt"}
) - {"sdiv", "udiv", "srem", "urem", "fdiv", "frem"}  # may trap if loop runs 0 times


def licm(function: Function) -> bool:
    changed, loops = simplified_loops(function)
    # Process outermost loops last so code migrates as far out as possible.
    for loop in sorted(loops, key=lambda l: -l.depth):
        changed |= _hoist_loop(loop)
    return changed


def _hoist_loop(loop: Loop) -> bool:
    preheader = loop.preheader
    if preheader is None:
        return False
    changed = False
    progress = True
    while progress:
        progress = False
        for block in loop.ordered_blocks():
            for instr in list(block.instructions):
                if instr.opcode not in _HOISTABLE or instr.type.is_void:
                    continue
                if not all(_invariant(op, loop) for op in instr.operands):
                    continue
                block.instructions.remove(instr)
                insert_at = len(preheader.instructions) - 1  # before terminator
                preheader.instructions.insert(insert_at, instr)
                instr.parent = preheader
                progress = True
                changed = True
    return changed


def _invariant(value: Value, loop: Loop) -> bool:
    if not isinstance(value, Instruction):
        return True  # constants, arguments, globals
    return value.parent not in loop.blocks
