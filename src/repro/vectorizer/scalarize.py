"""Scalar fallback for SPMD functions the vectorizer cannot handle.

The paper's integration story (§4.2) demands that Parsimony behave like
any other optimization pass: an unsupported construct must *degrade*, not
fail the build.  This module supplies the degradation target: an SPMD
region function is rewritten **in place** into a sequential lane loop —

    for (lane = 0; lane < gang_size; ++lane) { <original body> }

with every ``psim.lane_num()`` call replaced by the loop induction
variable.  Sequential lane order is a legal schedule of the SPMD model as
long as the body performs no cross-lane communication, so the transform
is restricted to bodies free of horizontal ``psim.*`` intrinsics
(reductions, shuffles, broadcasts, ``gang_sync``): those have no correct
one-lane-at-a-time schedule and raise :class:`ScalarizeError` instead —
the caller then surfaces a hard :class:`~repro.diagnostics.CompileError`.

The result is an ordinary scalar function (``spmd`` cleared), so the
driver's ``post_vectorize_cleanup`` re-inlines it into its gang loop just
like a vectorized region, and execution matches ``compile_scalar``
bit-for-bit (same scalar ops, same order per element).

This is the vectorizer's one degraded path.  No valid program reaches it
(only :mod:`repro.faultinject` does); it stays so that a construct the
vectorizer does not handle costs speed, not the build.
"""

from __future__ import annotations

from typing import Optional

from ..diagnostics import CompileError
from ..ir.builder import IRBuilder
from ..ir.module import Function
from ..ir.types import I64
from ..ir.values import Constant
from ..ir.verifier import verify_function

__all__ = [
    "ScalarizeError",
    "scalarization_blocker",
    "scalarize_spmd_function",
]

#: ``psim.*`` intrinsics with a per-lane meaning — safe under a lane loop.
_LANE_LOCAL_PSIM = frozenset(["psim.lane_num"])


class ScalarizeError(CompileError):
    """The SPMD body has no sequential per-lane schedule."""

    default_stage = "scalarize"


def scalarization_blocker(function: Function) -> Optional[str]:
    """The name of the first cross-lane ``psim.*`` intrinsic in ``function``,
    or None when a sequential lane loop is a legal schedule."""
    for instr in function.instructions():
        if instr.opcode != "call":
            continue
        callee = getattr(instr.operands[0], "name", "")
        if callee.startswith("psim.") and callee not in _LANE_LOCAL_PSIM:
            return callee
    return None


def scalarize_spmd_function(function: Function) -> Function:
    """Rewrite ``function`` (in place) into a sequential lane loop.

    Clears the SPMD annotation on success so downstream stages treat the
    result as ordinary scalar code.  Raises :class:`ScalarizeError` when
    the body contains a cross-lane intrinsic.
    """
    spmd = function.spmd
    if spmd is None:
        raise ScalarizeError(
            f"@{function.name} carries no SPMD annotation", function=function.name
        )
    blocker = scalarization_blocker(function)
    if blocker is not None:
        raise ScalarizeError(
            f"cannot scalarize @{function.name}: cross-lane intrinsic "
            f"{blocker} has no sequential per-lane schedule",
            function=function.name,
            detail={"intrinsic": blocker},
        )
    if not function.return_type.is_void:
        raise ScalarizeError(
            f"cannot scalarize @{function.name}: SPMD regions return void",
            function=function.name,
        )

    body_blocks = list(function.blocks)
    body_entry = body_blocks[0]

    # New skeleton around the existing body:  entry -> header -> body...
    # -> latch -> (header | exit).  The body blocks are re-attached as-is;
    # their internal SSA and control flow are untouched.
    function.blocks = []
    b = IRBuilder(function)
    entry = b.new_block("lane.entry")
    header = b.new_block("lane.header")
    function.blocks.extend(body_blocks)
    latch = b.new_block("lane.latch")
    exit_block = b.new_block("lane.exit")

    b.position_at_end(entry)
    b.br(header)

    b.position_at_end(header)
    lane = b.phi(I64, "lane")
    lane.append_operand(Constant(I64, 0))
    lane.append_operand(entry)
    b.br(body_entry)

    b.position_at_end(latch)
    lane_next = b.add(lane, Constant(I64, 1), "lane.next")
    done = b.icmp("eq", lane_next, Constant(I64, spmd.gang_size), "lane.done")
    b.condbr(done, exit_block, header)
    lane.append_operand(lane_next)
    lane.append_operand(latch)

    b.position_at_end(exit_block)
    b.ret()

    # Rewire the body: every return jumps to the latch instead, and every
    # psim.lane_num() becomes the induction variable.
    for block in body_blocks:
        term = block.terminator
        if term is not None and term.opcode == "ret":
            term.erase()
            b.position_at_end(block)
            b.br(latch)
        for instr in list(block.instructions):
            if (
                instr.opcode == "call"
                and getattr(instr.operands[0], "name", "") == "psim.lane_num"
            ):
                instr.replace_all_uses_with(lane)
                instr.erase()

    function.spmd = None
    verify_function(function)
    return function
