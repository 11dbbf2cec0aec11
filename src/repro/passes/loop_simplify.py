"""Loop canonicalization (LLVM's loop-simplify).

Ensures every natural loop has a dedicated *preheader* (unique out-of-loop
predecessor of the header), a unique *latch* (single in-loop edge back to
the header), and *dedicated exits* (exit blocks whose predecessors are all
inside the loop).  The Parsimony vectorizer's mask computation (§4.2.1)
assumes this canonical form: the loop entry mask lives in the preheader,
the live mask is recomputed at the single latch, and per-exit masks steer
the dedicated exit blocks.
"""

from __future__ import annotations

from typing import List, Tuple

from ..ir.cfg import Loop, find_loops
from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function
from ..ir.types import VOID

__all__ = ["loop_simplify", "simplified_loops"]


def loop_simplify(function: Function) -> bool:
    return simplified_loops(function)[0]


def simplified_loops(function: Function) -> Tuple[bool, List[Loop]]:
    """Canonicalize, and also return the loops of the canonical CFG — the
    analysis the last (change-free) round ran on — so a caller that goes
    on to transform loops (LICM) need not rebuild dominators for it."""
    changed = False
    # Recompute loops after each structural change batch.
    while True:
        loops = find_loops(function)
        for loop in loops:
            if (
                _ensure_preheader(function, loop)
                or _ensure_single_latch(function, loop)
                or _ensure_dedicated_exits(function, loop)
            ):
                changed = True
                break
        else:
            return changed, loops


def _redirect_edges(
    function: Function, target: BasicBlock, preds: List[BasicBlock], name: str
) -> BasicBlock:
    """Insert a new block between ``preds`` and ``target``; returns it."""
    mid = function.add_block(name, before=target)
    mid.append(Instruction("br", VOID, [target]))

    # Re-point the chosen predecessor edges at `mid`.
    for pred in preds:
        term = pred.terminator
        for idx, op in enumerate(term.operands):
            if op is target and (term.opcode == "br" or idx in (1, 2)):
                term.set_operand(idx, mid)

    # Split phis: `mid` takes the incoming values from `preds` (merged into
    # a new phi in `mid` if they differ), `target` keeps the rest.
    for phi in target.phis():
        moved = [(v, b) for v, b in phi.phi_incoming() if b in preds]
        kept = [(v, b) for v, b in phi.phi_incoming() if b not in preds]
        if not moved:
            continue
        if len({id(v) for v, _ in moved}) == 1:
            merged_value = moved[0][0]
        else:
            merged = Instruction("phi", phi.type, [], function.unique_name(phi.name + ".m"))
            mid.insert(0, merged)
            for v, b in moved:
                merged.append_operand(v)
                merged.append_operand(b)
            merged_value = merged
        phi.drop_operands()
        for v, b in kept:
            phi.append_operand(v)
            phi.append_operand(b)
        phi.append_operand(merged_value)
        phi.append_operand(mid)
    return mid


def _ensure_preheader(function: Function, loop: Loop) -> bool:
    outside = [p for p in loop.header.predecessors if p not in loop.blocks]
    if len(outside) == 1 and outside[0].successors == [loop.header]:
        return False
    _redirect_edges(function, loop.header, outside, loop.header.name + ".pre")
    return True


def _ensure_single_latch(function: Function, loop: Loop) -> bool:
    latches = loop.latches
    if len(latches) == 1 and latches[0].successors == [loop.header]:
        return False
    latch = _redirect_edges(function, loop.header, latches, loop.header.name + ".latch")
    loop.blocks.add(latch)
    return True


def _ensure_dedicated_exits(function: Function, loop: Loop) -> bool:
    changed = False
    for exit_block in loop.exit_blocks():
        preds = exit_block.predecessors
        inside = [p for p in preds if p in loop.blocks]
        if len(inside) == len(preds) and len(inside) == 1:
            continue
        # Either the exit has outside predecessors, or several in-loop ones:
        # give each in-loop edge its own dedicated exit block.
        if len(inside) < len(preds):
            _redirect_edges(
                function, exit_block, inside, exit_block.name + ".dedexit"
            )
            return True
        if len(inside) > 1:
            for pred in inside[1:]:
                _redirect_edges(
                    function, exit_block, [pred], exit_block.name + ".dedexit"
                )
                return True
    return changed
