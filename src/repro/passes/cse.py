"""Common subexpression elimination (dominator-scoped value numbering).

Pure instructions (arithmetic, compares, casts, geps, selects) with
identical opcode/attrs/operands are unified when one dominates the other.
Besides shrinking code, this canonicalization is what lets the
auto-vectorizer's if-converter recognize that both sides of a diamond
store to *the same* address instruction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.cfg import dominator_tree
from ..ir.instructions import CAST_OPS, FLOAT_BINOPS, INT_BINOPS, Instruction, UNARY_OPS
from ..ir.module import BasicBlock, Function

__all__ = ["cse"]

_PURE = (
    INT_BINOPS | FLOAT_BINOPS | UNARY_OPS | CAST_OPS
    | {"icmp", "fcmp", "select", "gep", "fma", "broadcast", "extractelement",
       "insertelement", "shuffle", "shuffle2", "sad",
       "reduce_add", "reduce_min_s", "reduce_min_u", "reduce_max_s",
       "reduce_max_u", "reduce_and", "reduce_or", "mask_any", "mask_all"}
)


def _key(instr: Instruction) -> Tuple:
    operands = tuple(map(id, instr._operands))
    attrs = tuple(sorted(instr.attrs.items())) if instr.attrs else ()
    return (instr.opcode, instr.type, operands, attrs)


def cse(function: Function) -> bool:
    changed = False
    dt = dominator_tree(function)
    # Preorder over the dominator tree, each block starting from a copy
    # of its immediate dominator's scope.  A worklist, not a recursive
    # closure: the closure would hold itself through its own cell, a
    # cycle left for the collector on every run.
    work: List[Tuple[BasicBlock, Dict[Tuple, Instruction]]] = [(function.entry, {})]
    while work:
        block, scope = work.pop()
        scope = dict(scope)
        for instr in list(block.instructions):
            if instr.opcode not in _PURE or instr.type.is_void:
                continue
            key = _key(instr)
            existing = scope.get(key)
            if existing is not None:
                instr.replace_all_uses_with(existing)
                instr.erase()
                changed = True
            else:
                scope[key] = instr
        work.extend((child, scope) for child in reversed(dt.children.get(block, ())))
    return changed
