"""Region-granular scalar fallback: outline the failing region (§4.2).

PR 2's graceful degradation is whole-function: one unsupported construct
and the entire SPMD body becomes a sequential lane loop, forfeiting every
vectorizable block around it.  This module implements the finer-grained
variant the paper's integration story really wants — when the vectorizer
rejects one block, *only the minimal single-entry region around it* drops
to scalar execution, and the rest of the function still vectorizes.

The mechanism is **scalar outlining**:

1. :func:`compute_fallback_region` picks the smallest dominator subtree
   ``R = subtree(E)`` containing the failing block such that

   * ``R`` has at most one successor block outside itself (so the caller
     can resume at a unique seam exit),
   * ``R`` does not mix ``ret`` terminators with an outside successor
     (a lane that returns inside the region must not also resume), and
   * the region entry ``E`` has no predecessors inside ``R`` (no back
     edge re-enters the region except through the call below).

   Growing to the function entry means no *partial* region exists and the
   caller falls back whole-function, exactly as before.

2. :func:`outline_region` moves ``R`` into a fresh scalar helper function
   and replaces it in the caller with a single ``call``:

   * live-ins become scalar parameters (SSA dominance guarantees every
     value used inside ``R`` but defined outside it dominates ``E``);
   * ``psim.lane_num()`` inside the region becomes an explicit ``lane``
     parameter — the caller passes a fresh ``psim.lane_num()`` call whose
     *indexed* shape hands each serialized lane its own index;
   * live-outs — exactly the incoming values of the seam exit's phis that
     flow from region predecessors (SSA dominance: a value defined inside
     a single-entry dominator subtree cannot have non-phi uses outside
     it) — travel through per-call out-slot allocas: the helper stores
     them in dedicated exit stubs, the caller reloads after the call.

The **seam mask contract** then falls out of machinery the vectorizer
already has: a call to a scalar ``Function`` inside an SPMD body is
serialized one *active* lane at a time (``_serialize_call``), with uniform
arguments staying scalar and indexed/varying arguments extracted per lane.
A lane executes the region iff it is active at ``E`` — which is the only
way into a single-entry region — and the out-slot allocas are gang-private
(their address shape is *indexed*), so inactive lanes neither run region
code nor touch region state.  Cross-lane ``psim.*`` intrinsics inside the
region have no one-lane-at-a-time schedule, so they raise
:class:`RegionError` and force whole-function fallback, as today.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..diagnostics import CompileError
from ..ir.cfg import DominatorTree, dominator_tree
from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import I64, VOID, FunctionType, PointerType
from ..ir.values import Argument, Value
from ..ir.verifier import verify_function
from ..passes.clone import clone_blocks
from .scalarize import cross_lane_blocker

__all__ = [
    "RegionError",
    "FallbackRegion",
    "OutlineResult",
    "compute_fallback_region",
    "outline_region",
]


class RegionError(CompileError):
    """No partial-fallback region exists around the failing block."""

    default_stage = "vectorizer"


@dataclass
class FallbackRegion:
    """A single-entry, single-exit-target block set eligible for outlining."""

    entry: BasicBlock
    #: entry first, remaining blocks in function block order.
    blocks: List[BasicBlock]
    block_set: Set[BasicBlock]
    #: the unique successor outside the region; None for pure tail regions
    #: (every path inside ends in ``ret``).
    exit: Optional[BasicBlock]


@dataclass
class OutlineResult:
    """What :func:`outline_region` did, for telemetry and cleanup."""

    function: Function  # the outlined scalar helper, added to the module
    entry: str
    blocks: List[str]
    blocks_scalarized: int
    instrs_scalarized: int


def _subtree(dt: DominatorTree, root: BasicBlock) -> Set[BasicBlock]:
    blocks = {root}
    stack = [root]
    while stack:
        for child in dt.children[stack.pop()]:
            if child not in blocks:
                blocks.add(child)
                stack.append(child)
    return blocks


def compute_fallback_region(function: Function, block_name: str) -> FallbackRegion:
    """The minimal outlinable single-entry region containing ``block_name``.

    Raises :class:`RegionError` when the region would swallow the whole
    function (the failing block is only separable at the entry) or when it
    contains a cross-lane intrinsic (no sequential per-lane schedule).
    """
    target = next((b for b in function.blocks if b.name == block_name), None)
    if target is None:
        raise RegionError(
            f"@{function.name} has no block named {block_name}",
            function=function.name,
            detail={"block": block_name},
        )
    dt = dominator_tree(function)
    if target not in dt.idom:
        raise RegionError(
            f"block {block_name} is unreachable in @{function.name}",
            function=function.name,
            block=block_name,
        )

    entry = target
    while True:
        if entry is function.entry:
            raise RegionError(
                f"fallback region around block {block_name} grows to the "
                f"whole body of @{function.name}",
                function=function.name,
                block=block_name,
            )
        block_set = _subtree(dt, entry)
        external: Set[BasicBlock] = set()
        has_ret = False
        for block in block_set:
            term = block.terminator
            if term is not None and term.opcode == "ret":
                has_ret = True
            for succ in block.successors:
                if succ not in block_set:
                    external.add(succ)
        entered_from_inside = any(p in block_set for p in entry.predecessors)
        if len(external) <= 1 and not (has_ret and external) and not entered_from_inside:
            break
        entry = dt.idom[entry]

    ordered = [entry] + [b for b in function.blocks if b in block_set and b is not entry]
    blocker = cross_lane_blocker(
        instr for block in ordered for instr in block.instructions
    )
    if blocker is not None:
        raise RegionError(
            f"fallback region around block {block_name} contains cross-lane "
            f"intrinsic {blocker}: no sequential per-lane schedule",
            function=function.name,
            block=block_name,
            detail={"intrinsic": blocker},
        )
    return FallbackRegion(
        entry=entry,
        blocks=ordered,
        block_set=block_set,
        exit=next(iter(external)) if external else None,
    )


def outline_region(
    module: Module, function: Function, region: FallbackRegion, index: int
) -> OutlineResult:
    """Move ``region`` out of ``function`` into a scalar helper function.

    The region blocks are replaced in ``function`` by a single *seam*
    block (the renamed region entry, its phis preserved) that calls the
    helper once and branches to the region's exit target.  The helper is
    added to ``module`` with ``noinline`` (the vectorizer must serialize
    the call, not re-absorb the body) and a ``parsimony_partial_region``
    attribute the verifier checks seam invariants against.  The helper
    name deliberately avoids the ``.psim`` marker so the driver's
    post-vectorize cleanup does not inline it into the gang loop.
    """
    entry, block_set, exit_block = region.entry, region.block_set, region.exit
    ordered = region.blocks
    entry_phis = entry.phis()

    # ---- pre-scan: region defs, live-ins, lane usage --------------------
    region_defs: Set[Value] = set()
    for block in ordered:
        for instr in block.instructions:
            region_defs.add(instr)
    for phi in entry_phis:
        region_defs.discard(phi)  # entry phis stay in the caller seam

    live_ins: List[Value] = []
    seen: Set[Value] = set()

    def note_live_in(value: Value) -> None:
        if not isinstance(value, (Instruction, Argument)):
            return  # constants/undef/blocks/callees need no parameter
        if value in region_defs or value in seen:
            return
        seen.add(value)
        live_ins.append(value)

    lane_external = None
    for block in ordered:
        instrs = block.non_phi_instructions() if block is entry else block.instructions
        for instr in instrs:
            if (
                instr.opcode == "call"
                and getattr(instr.operands[0], "name", "") == "psim.lane_num"
            ):
                lane_external = instr.operands[0]
            for op in instr.operands:
                note_live_in(op)

    exit_phis: List[Instruction] = exit_block.phis() if exit_block is not None else []
    for phi in exit_phis:
        for value, pred in phi.phi_incoming():
            if pred in block_set:
                note_live_in(value)  # exit stubs must be able to store it

    # ---- helper signature ----------------------------------------------
    param_types = [v.type for v in live_ins]
    param_names = [v.name or "v" for v in live_ins]
    if lane_external is not None:
        lane_index = len(param_types)
        param_types.append(I64)
        param_names.append("lane")
    slot_base = len(param_types)
    for phi in exit_phis:
        param_types.append(PointerType(phi.type))
        param_names.append(f"out.{phi.name or 'slot'}")

    base = function.name.replace(".", "_")  # no ".psim": cleanup must not inline
    while f"{base}.region{index}" in module:
        index += 1
    helper = Function(
        f"{base}.region{index}", FunctionType(VOID, tuple(param_types)), param_names
    )
    helper.attrs["noinline"] = True
    helper.attrs["parsimony_partial_region"] = {
        "parent": function.name,
        "entry": entry.name,
        "blocks": [b.name for b in ordered],
    }

    lane_arg = helper.args[lane_index] if lane_external is not None else None
    slot_args = list(helper.args[slot_base:])

    # ---- clone the region body into the helper --------------------------
    value_map: Dict[Value, Value] = dict(zip(live_ins, helper.args))
    # Entry phis stay behind: hide them from the cloner so region uses of
    # them resolve to the matching live-in parameters instead of clones.
    saved_entry_instructions = entry.instructions
    entry.instructions = entry.non_phi_instructions()
    try:
        block_map = clone_blocks(ordered, helper, value_map)
    finally:
        entry.instructions = saved_entry_instructions

    # Region edges into the exit target become stores + ret via fresh exit
    # stubs (one per region predecessor of the exit).
    if exit_block is not None:
        for source, cloned in block_map.items():
            term = cloned.terminator
            if term is None or exit_block not in term.operands:
                continue
            stub = helper.add_block("region.exit")
            for slot_arg, phi in zip(slot_args, exit_phis):
                value = phi.phi_value_for(source)
                stub.append(
                    Instruction("store", VOID, [value_map.get(value, value), slot_arg])
                )
            stub.append(Instruction("ret", VOID, []))
            for idx, op in enumerate(term.operands):
                if op is exit_block:
                    term.set_operand(idx, stub)

    # psim.lane_num() inside the region becomes the explicit lane argument.
    for instr in list(helper.instructions()):
        if (
            instr.opcode == "call"
            and getattr(instr.operands[0], "name", "") == "psim.lane_num"
        ):
            instr.replace_all_uses_with(lane_arg)
            instr.erase()

    instrs_scalarized = sum(len(b.instructions) for b in helper.blocks)
    verify_function(helper)
    # Register only once the helper is complete and verified, so a failure
    # above leaves the module (and the caller, untouched so far) clean.
    module.add_function(helper)

    # ---- rebuild the caller around a single seam call -------------------
    # Out-slots live in the caller entry; the seam call makes them escape,
    # which is exactly what gives them the gang-private blocked layout.
    slot_allocas = []
    for phi in exit_phis:
        slot = Instruction(
            "alloca",
            PointerType(phi.type),
            [],
            function.unique_name("region.slot"),
            {"count": 1},
        )
        function.entry.insert(0, slot)
        slot_allocas.append(slot)

    call_args: List[Value] = list(live_ins)
    lane_call = None
    if lane_external is not None:
        lane_call = Instruction(
            "call", I64, [lane_external], function.unique_name("region.lane")
        )
        call_args.append(lane_call)
    call_args.extend(slot_allocas)
    seam_call = Instruction("call", VOID, [helper] + call_args)
    reloads = [
        Instruction("load", phi.type, [slot], function.unique_name("region.out"))
        for phi, slot in zip(exit_phis, slot_allocas)
    ]

    # Exit phis: region-predecessor incomings collapse into one incoming
    # from the seam block carrying the reloaded slot value.
    for phi, reload in zip(exit_phis, reloads):
        kept = [(v, p) for v, p in phi.phi_incoming() if p not in block_set]
        phi.drop_operands()
        for value, pred in kept:
            phi.append_operand(value)
            phi.append_operand(pred)
        phi.append_operand(reload)
        phi.append_operand(entry)

    for block in ordered[1:]:
        function.remove_block(block)
    for instr in reversed(entry.non_phi_instructions()):
        instr.erase()  # all uses are gone: region blocks removed, phis rebuilt

    entry.name = function.unique_name("seam")
    if lane_call is not None:
        entry.append(lane_call)
    entry.append(seam_call)
    for reload in reloads:
        entry.append(reload)
    if exit_block is not None:
        entry.append(Instruction("br", VOID, [exit_block]))
    else:
        entry.append(Instruction("ret", VOID, []))  # pure tail region

    return OutlineResult(
        function=helper,
        entry=helper.attrs["parsimony_partial_region"]["entry"],
        blocks=list(helper.attrs["parsimony_partial_region"]["blocks"]),
        blocks_scalarized=len(ordered),
        instrs_scalarized=instrs_scalarized,
    )
