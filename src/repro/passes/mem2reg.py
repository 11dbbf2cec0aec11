"""mem2reg: promote stack allocas to SSA registers.

The front-end lowers every local variable to an ``alloca`` plus loads and
stores (the classic Clang strategy); this pass rewrites promotable allocas
into SSA form using the standard Cytron et al. algorithm (phi insertion at
iterated dominance frontiers + renaming along the dominator tree).

Shape analysis in the Parsimony vectorizer runs on SSA values, so this
pass is a prerequisite for good vector code — exactly as in the paper's
LLVM pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.cfg import DominatorTree, dominance_frontiers
from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue, Value

__all__ = ["mem2reg", "promotable_allocas"]


def promotable_allocas(function: Function) -> List[Instruction]:
    """Allocas whose address never escapes: only direct scalar load/store."""
    result = []
    for instr in function.entry.instructions:
        if instr.opcode != "alloca" or instr.attrs.get("count", 1) != 1:
            continue
        ok = True
        for user, idx in instr.uses:
            if user.opcode == "load":
                continue
            if user.opcode == "store" and idx == 1:
                continue  # address operand of a store is fine; stored value is not
            ok = False
            break
        if ok:
            result.append(instr)
    return result


def mem2reg(function: Function) -> bool:
    allocas = promotable_allocas(function)
    if not allocas:
        return False

    dt = DominatorTree(function)
    frontiers = dominance_frontiers(dt)
    reachable = set(dt.rpo)

    # 1. Insert (empty) phis at iterated dominance frontiers of stores.
    phis: Dict[Instruction, Instruction] = {}  # phi -> alloca
    for alloca in allocas:
        def_blocks: Set[BasicBlock] = {
            user.parent
            for user, _ in alloca.uses
            if user.opcode == "store" and user.parent in reachable
        }
        worklist = list(def_blocks)
        placed: Set[BasicBlock] = set()
        while worklist:
            block = worklist.pop()
            for frontier in frontiers.get(block, ()):
                if frontier in placed:
                    continue
                placed.add(frontier)
                if frontier not in def_blocks:
                    worklist.append(frontier)
        # The iterated frontier is a set of blocks (hashed by address);
        # name and insert the phis in RPO so compiled IR is reproducible.
        for frontier in dt.rpo:
            if frontier in placed:
                phi = Instruction(
                    "phi",
                    alloca.type.pointee,
                    [],
                    function.unique_name(alloca.name + ".phi"),
                )
                frontier.insert(0, phi)
                phis[phi] = alloca

    # 2. Rename: walk the dominator tree, tracking the live value per alloca.
    to_erase: List[Instruction] = []

    def rename(block: BasicBlock, incoming: Dict[Instruction, Value]) -> None:
        incoming = dict(incoming)
        for instr in list(block.instructions):
            if instr.opcode == "phi" and instr in phis:
                incoming[phis[instr]] = instr
            elif instr.opcode == "load" and instr.operands[0] in allocas:
                alloca = instr.operands[0]
                value = incoming.get(alloca)
                if value is None:
                    value = UndefValue(alloca.type.pointee)
                instr.replace_all_uses_with(value)
                to_erase.append(instr)
            elif instr.opcode == "store" and instr.operands[1] in allocas:
                incoming[instr.operands[1]] = instr.operands[0]
                to_erase.append(instr)
        for succ in block.successors:
            for phi in succ.phis():
                alloca = phis.get(phi)
                if alloca is None:
                    continue
                value = incoming.get(alloca)
                if value is None:
                    value = UndefValue(alloca.type.pointee)
                phi.append_operand(value)
                phi.append_operand(block)
        for child in dt.children.get(block, ()):
            rename(child, incoming)

    rename(function.entry, {})

    for instr in to_erase:
        instr.erase()
    for alloca in allocas:
        if not alloca.uses:
            alloca.erase()

    # Prune phis that ended up trivial (all-same or only-undef incoming).
    _prune_trivial_phis(function, dt)
    return True


def _prune_trivial_phis(function: Function, dt: DominatorTree) -> None:
    """``dt`` is the tree mem2reg renamed along: promotion and pruning
    rewrite values, never edges, so it stays valid throughout."""
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                values = {v for v, _ in phi.phi_incoming() if v is not phi}
                concrete = {v for v in values if not isinstance(v, UndefValue)}
                if len(concrete) == 1:
                    (only,) = concrete
                    # With undef-mix incoming, the survivor must dominate the
                    # phi or SSA dominance breaks (the undef edges are paths
                    # on which `only` never executes).
                    if len(values) > 1 and isinstance(only, Instruction):
                        if only.parent is None or not dt.strictly_dominates(
                            only.parent, block
                        ):
                            continue
                    phi.replace_all_uses_with(only)
                    phi.erase()
                    changed = True
                elif not concrete and values:
                    undef = next(iter(values))
                    phi.replace_all_uses_with(undef)
                    phi.erase()
                    changed = True
