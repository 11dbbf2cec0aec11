"""Function inlining.

The Parsimony flow relies on inlining in two places (paper §4.1, §4.2.3):
the outlined SPMD region functions are re-inlined into the gang loop after
vectorization to avoid call overhead, and scalar helper functions called
*inside* SPMD regions must be inlined before vectorization or else the
vectorizer will serialize the call per active lane.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import UndefValue, Value
from .clone import clone_blocks

__all__ = ["inline_call", "inline_module_calls", "inline_function_calls"]


def inline_call(call: Instruction) -> bool:
    """Inline one ``call`` instruction whose callee is a ``Function``.

    Returns False (and leaves the IR untouched) for externals, indirect
    calls, or self-recursion.
    """
    callee = call.operands[0]
    caller = call.parent.parent
    if not isinstance(callee, Function) or callee is caller or not callee.blocks:
        return False

    head = call.parent
    at = head.instructions.index(call)

    # Split the block: everything after the call moves to `cont`.
    cont = caller.add_block(head.name + ".cont")
    tail = head.instructions[at + 1 :]
    head.instructions = head.instructions[:at]  # drop call + tail for now
    for instr in tail:
        instr.parent = cont
        cont.instructions.append(instr)
    # Successor phis that named `head` as predecessor now come from `cont`.
    for succ in [i for i in (cont.successors or [])]:
        for phi in succ.phis():
            for idx, op in enumerate(phi.operands):
                if op is head:
                    phi.set_operand(idx, cont)

    # Clone the callee body.
    value_map: Dict[Value, Value] = dict(zip(callee.args, call.operands[1:]))
    block_map = clone_blocks(callee.blocks, caller, value_map, name_suffix=".i")

    # Branch from head into the cloned entry.
    head.append(Instruction("br", _void(), [block_map[callee.entry]]))

    # Rewrite cloned rets into branches to cont, collecting return values.
    returns = []
    for block in block_map.values():
        term = block.terminator
        if term is not None and term.opcode == "ret":
            if term.operands:
                returns.append((term.operands[0], block))
            term.drop_operands()
            term.parent = None
            block.instructions.pop()
            block.append(Instruction("br", _void(), [cont]))

    # Replace the call's value with the (possibly phi-merged) return value.
    call.parent = None
    if not call.type.is_void:
        if len(returns) == 1:
            result = returns[0][0]
        elif returns:
            phi = Instruction("phi", call.type, [], caller.unique_name("retval"))
            for value, block in returns:
                phi.append_operand(value)
                phi.append_operand(block)
            cont.insert(0, phi)
            result = phi
        else:
            result = UndefValue(call.type)
        call.replace_all_uses_with(result)
    call.drop_operands()

    # Hoist cloned allocas to the caller entry so mem2reg can promote them.
    entry = caller.entry
    for block in block_map.values():
        for instr in [i for i in block.instructions if i.opcode == "alloca"]:
            block.instructions.remove(instr)
            instr.parent = entry
            entry.instructions.insert(0, instr)

    # Keep block order roughly topological: move cont after the clones.
    caller.blocks.remove(cont)
    caller.blocks.append(cont)
    return True


def _void():
    from ..ir.types import VOID

    return VOID


def _is_recursive(callee: Function) -> bool:
    return any(
        instr.opcode == "call" and instr.operands[0] is callee
        for instr in callee.instructions()
    )


def inline_function_calls(function: Function, should_inline=None) -> bool:
    """Inline eligible call sites within ``function`` (bottom-up, one sweep).

    Recursive callees are never inlined (unbounded growth), and total
    inlining per caller is capped as a safety valve."""
    should_inline = should_inline or _default_heuristic
    changed = True
    any_change = False
    budget = 200
    while changed and budget > 0:
        changed = False
        for block in list(function.blocks):
            for instr in list(block.instructions):
                if instr.opcode != "call":
                    continue
                callee = instr.operands[0]
                if (
                    isinstance(callee, Function)
                    and should_inline(callee)
                    and not _is_recursive(callee)
                ):
                    if inline_call(instr):
                        changed = True
                        any_change = True
                        budget -= 1
                        break
            if changed:
                break
    return any_change


def inline_module_calls(module: Module, should_inline=None) -> bool:
    changed = False
    for function in module.functions.values():
        changed |= inline_function_calls(function, should_inline)
    return changed


def _default_heuristic(callee: Function) -> bool:
    if callee.attrs.get("always_inline"):
        return True
    size = sum(len(b.instructions) for b in callee.blocks)
    return size <= 80
