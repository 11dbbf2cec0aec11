"""IR cloning utilities, shared by the inliner, the SPMD outliner, and the
vectorizers (which clone a scalar function body before transforming it)."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.values import Constant, UndefValue, Value

__all__ = ["clone_blocks", "clone_function", "clone_module"]


def clone_blocks(
    source_blocks: List[BasicBlock],
    target: Function,
    value_map: Dict[Value, Value],
    name_suffix: str = "",
) -> Dict[BasicBlock, BasicBlock]:
    """Clone ``source_blocks`` into ``target``.

    ``value_map`` maps source values (typically arguments) to target values
    and is extended in place with every cloned instruction and block.
    Returns the source→clone block mapping.

    The source blocks are only read: a forward reference (a phi naming
    an instruction cloned later) is built on a placeholder operand until
    the fix-up pass, never on the source instruction — which would append
    to the *source's* ``uses`` — so a frozen source clones fine.
    """
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in source_blocks:
        clone = target.add_block(block.name + name_suffix)
        block_map[block] = clone
        value_map[block] = clone

    fixups: List[Instruction] = []
    for block in source_blocks:
        clone = block_map[block]
        for instr in block.instructions:
            operands = []
            needs_fixup = False
            for op in instr._operands:
                mapped = value_map.get(op)
                if mapped is None:
                    mapped = op
                    if isinstance(op, Instruction):
                        needs_fixup = True  # forward reference (via phi)
                        mapped = UndefValue(op.type)
                operands.append(mapped)
            new = Instruction.copy_of(
                instr, operands, target.unique_name(instr.name or instr.opcode)
            )
            clone.instructions.append(new)
            new.parent = clone
            value_map[instr] = new
            if needs_fixup:
                fixups.append(instr)

    # Second pass: patch forward references now that everything is mapped.
    for source in fixups:
        clone = value_map[source]
        for idx, op in enumerate(source.operands):
            mapped = value_map.get(op, op)
            if clone.operands[idx] is not mapped:
                clone.set_operand(idx, mapped)
    return block_map


def clone_function(source: Function, new_name: str, module=None) -> Function:
    """Deep-copy a whole function (same signature), optionally adding it to
    ``module``."""
    clone = Function(new_name, source.ftype, [a.name for a in source.args])
    clone.attrs = dict(source.attrs)
    clone.spmd = source.spmd
    value_map: Dict[Value, Value] = dict(zip(source.args, clone.args))
    clone_blocks(source.blocks, clone, value_map)
    if module is not None:
        module.add_function(clone)
    return clone


def clone_module(source: Module, name: Optional[str] = None) -> Module:
    """Deep-copy a whole module into a fresh, fully disjoint, *mutable* one.

    Every ``Value`` with def-use bookkeeping — functions, externals,
    constants, undefs, arguments, instructions, blocks — is freshly
    created, so passes mutating the clone can never corrupt ``source``.
    This is the one way to get a mutable module out of a frozen one (the
    driver's ``compile_*`` results — see ``Module.freeze``): ``source`` is
    only read, and the clone comes back unfrozen.  Immutable payloads
    (types, ``SpmdInfo``, external ``impl`` callables, attr values — the
    recipe for a batched module's unbatched twin among them) are shared;
    a twin the source already compiled is not carried over.
    """
    clone = Module(name if name is not None else source.name)
    value_map: Dict[Value, Value] = {}
    for ext in source.externals.values():
        new_ext = ExternalFunction(ext.name, ext.ftype, ext.impl, ext.cost)
        clone.add_external(new_ext)
        value_map[ext] = new_ext
    # Function shells first so cross-function calls resolve either way.
    shells: List[tuple] = []
    for func in source.functions.values():
        shell = Function(func.name, func.ftype, [a.name for a in func.args])
        shell.attrs = dict(func.attrs)
        shell.spmd = func.spmd
        clone.add_function(shell)
        value_map[func] = shell
        for src_arg, dst_arg in zip(func.args, shell.args):
            value_map[src_arg] = dst_arg
        shells.append((func, shell))
    for func, shell in shells:
        # Fresh constants/undefs per clone: ``clone_blocks`` falls back to
        # sharing unmapped operands, which would thread the clone's uses
        # into the source module's Constant objects.
        for instr in func.instructions():
            for op in instr.operands:
                if op in value_map:
                    continue
                if isinstance(op, Constant):
                    value_map[op] = Constant.from_canonical(op.type, op.value)
                elif isinstance(op, UndefValue):
                    value_map[op] = UndefValue(op.type, op.name)
        clone_blocks(func.blocks, shell, value_map)
    clone.attrs = dict(source.attrs)
    return clone
