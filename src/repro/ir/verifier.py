"""IR verifier.

Checks structural and SSA well-formedness after construction and after
every pass: terminators, operand typing, phi/predecessor agreement, and
SSA dominance of uses.  Raising early here is what lets the Parsimony pass
be inserted "anywhere in the optimization pipeline" (§4.2) with confidence.
"""

from __future__ import annotations

from .. import faultinject
from ..diagnostics import CompileError
from .cfg import DominatorTree
from .instructions import TERMINATORS, Instruction
from .module import BasicBlock, Function, Module
from .printer import format_instruction, print_function
from .types import I1
from .values import Argument, Constant, UndefValue, Value

__all__ = ["VerificationError", "verify_function", "verify_module"]


class VerificationError(CompileError):
    """Raised when the IR violates a structural or SSA invariant."""

    default_stage = "verifier"


def _fail(
    function: Function,
    message: str,
    block: BasicBlock = None,
    instr: Instruction = None,
) -> None:
    # The IR being rejected may be malformed enough that the printer itself
    # chokes on it (e.g. a phi with an odd operand list); the diagnostic
    # must still be raised.
    try:
        body = print_function(function)
    except Exception as exc:  # pragma: no cover - printer-dependent
        body = f"<function body unprintable: {exc}>"
    raise VerificationError(
        f"in @{function.name}: {message}\n{body}",
        function=function.name,
        block=block.name if block is not None else "",
        instruction=(instr.name or instr.opcode) if instr is not None else "",
    )


def verify_function(function: Function) -> None:
    faultinject.maybe_fail("verify", function.name)
    if not function.blocks:
        _fail(function, "function has no blocks")

    # Structural checks per block (and each instruction's position, for
    # the dominance check below).
    positions = {}
    for block in function.blocks:
        if block.parent is not function:
            _fail(function, f"block {block.name} has wrong parent")
        if block.terminator is None:
            _fail(function, f"block {block.name} lacks a terminator")
        instructions = block.instructions
        last = instructions[-1]
        seen_non_phi = False
        for idx, instr in enumerate(instructions):
            if instr.parent is not block:
                _fail(function, f"instr {format_instruction(instr)} has wrong parent")
            opcode = instr.opcode
            if opcode == "phi":
                if seen_non_phi:
                    _fail(function, f"phi after non-phi in {block.name}")
            else:
                seen_non_phi = True
            if opcode in TERMINATORS and instr is not last:
                _fail(function, f"terminator mid-block in {block.name}")
            _check_instruction(function, instr)
            positions[instr] = (block, idx)

    # Phi / predecessor agreement (phis lead their block: checked above).
    for block in function.blocks:
        if block.instructions[0].opcode != "phi":
            continue
        preds = block.predecessors
        for phi in block.instructions:
            if phi.opcode != "phi":
                break
            incoming = dict((b, v) for v, b in phi.phi_incoming())
            if set(incoming) != set(preds):
                _fail(
                    function,
                    f"phi %{phi.name} in {block.name} has incoming "
                    f"{sorted(b.name for b in incoming)} but preds are "
                    f"{sorted(p.name for p in preds)}",
                )
            for value in incoming.values():
                if value.type != phi.type and not isinstance(value, UndefValue):
                    _fail(function, f"phi %{phi.name} incoming type mismatch")

    # SSA dominance: every use is dominated by its definition.  A
    # single-block function has no cross-block case to consult a tree for:
    # "dominates" is "comes earlier in the block", checked by position.
    dt = DominatorTree(function) if len(function.blocks) > 1 else None
    reachable = set(dt.rpo) if dt is not None else {function.entry}
    for block in function.blocks:
        if block not in reachable:
            continue
        for idx, instr in enumerate(block.instructions):
            is_phi = instr.opcode == "phi"
            for op_index, op in enumerate(instr._operands):
                if not isinstance(op, Instruction):
                    continue
                def_block, def_idx = positions.get(op, (None, None))
                if def_block is None:
                    _fail(
                        function,
                        f"use of detached instruction %{op.name} in {format_instruction(instr)}",
                    )
                if is_phi:
                    # The def must dominate the end of the incoming block.
                    pred = instr._operands[op_index + 1] if op_index % 2 == 0 else None
                    if dt is not None and pred is not None and pred in reachable:
                        if not dt.dominates(def_block, pred):
                            _fail(
                                function,
                                f"phi %{instr.name}: %{op.name} does not dominate "
                                f"incoming edge from {pred.name}",
                            )
                    continue
                if def_block is block:
                    if def_idx >= idx:
                        _fail(
                            function,
                            f"%{op.name} used before definition in {block.name}",
                        )
                elif not dt.dominates(def_block, block):
                    _fail(
                        function,
                        f"%{op.name} (def in {def_block.name}) does not dominate "
                        f"use in {block.name}",
                    )

    if function.attrs.get("parsimony_partial_region"):
        _check_partial_region(function)


def _check_partial_region(function: Function) -> None:
    """Seam invariants for the scalar helpers the region-granular fallback
    outlines (:mod:`repro.vectorizer.regions`).

    The vectorizer serializes the seam call one active lane at a time, so
    the helper must be a plain scalar function whose only communication
    with the vector caller is per-lane scalar parameters (including the
    out-slot pointers): void return, no SPMD annotation, no vector-typed
    parameters, and no ``psim.*`` intrinsics left inside (``lane_num`` is
    rewritten to the lane parameter; cross-lane intrinsics must have
    forced whole-function fallback instead).  ``noinline`` keeps the
    normalization pipeline from re-absorbing the body into the caller,
    which would re-trigger the original vectorization failure.
    """
    if function.spmd is not None:
        _fail(function, "partial-fallback region helper carries an SPMD annotation")
    if not function.return_type.is_void:
        _fail(function, "partial-fallback region helper must return void")
    if not function.attrs.get("noinline"):
        _fail(function, "partial-fallback region helper must be marked noinline")
    for arg in function.args:
        if arg.type.is_vector:
            _fail(
                function,
                f"partial-fallback region parameter {arg.name} is vector-typed; "
                f"the seam passes per-lane scalars only",
            )
    for block in function.blocks:
        for instr in block.instructions:
            if instr.opcode != "call":
                continue
            callee = getattr(instr.operands[0], "name", "")
            if callee.startswith("psim."):
                _fail(
                    function,
                    f"psim intrinsic {callee} inside an outlined "
                    f"partial-fallback region has no per-lane schedule",
                    block, instr,
                )


def _check_instruction(function: Function, instr: Instruction) -> None:
    op = instr.opcode
    ops = instr.operands
    block = instr.parent
    if op == "phi":
        # Structural phi invariants must hold before phi_incoming() may
        # pair the operand list up (agreement checks rely on it).
        if len(ops) % 2 != 0:
            _fail(
                function,
                f"phi %{instr.name} has a malformed incoming list "
                f"(odd operand count {len(ops)})",
                block, instr,
            )
        for idx, operand in enumerate(ops):
            if idx % 2 and not isinstance(operand, BasicBlock):
                _fail(
                    function,
                    f"phi %{instr.name} incoming slot {idx} is not a block",
                    block, instr,
                )
            if idx % 2 == 0 and isinstance(operand, BasicBlock):
                _fail(
                    function,
                    f"phi %{instr.name} value slot {idx} is a block",
                    block, instr,
                )
    elif op == "condbr":
        if ops[0].type != I1:
            _fail(function, f"condbr condition not i1: {format_instruction(instr)}",
                  block, instr)
        if not isinstance(ops[1], BasicBlock) or not isinstance(ops[2], BasicBlock):
            _fail(function, "condbr targets must be blocks", block, instr)
    elif op == "br":
        if not isinstance(ops[0], BasicBlock):
            _fail(function, "br target must be a block", block, instr)
    elif op == "ret":
        want = function.return_type
        if want.is_void:
            if ops:
                _fail(function, "ret with value in void function", block, instr)
        else:
            if not ops or ops[0].type != want:
                _fail(function, f"ret type mismatch (want {want})", block, instr)
    elif op == "store":
        if not ops[1].type.is_pointer or ops[1].type.pointee != ops[0].type:
            _fail(function, f"bad store: {format_instruction(instr)}", block, instr)
    elif op == "load":
        if not ops[0].type.is_pointer or ops[0].type.pointee != instr.type:
            _fail(function, f"bad load: {format_instruction(instr)}", block, instr)
    elif instr.is_binop:
        if ops[0].type != ops[1].type or ops[0].type != instr.type:
            _fail(function, f"binop type mismatch: {format_instruction(instr)}",
                  block, instr)
    elif op in ("icmp", "fcmp"):
        if ops[0].type != ops[1].type:
            _fail(function, f"{op} operand type mismatch: {format_instruction(instr)}",
                  block, instr)
    elif op == "select":
        if ops[1].type != ops[2].type or ops[1].type != instr.type:
            _fail(function, f"select type mismatch: {format_instruction(instr)}",
                  block, instr)
        cond = ops[0].type
        if cond.is_vector:
            if cond.elem != I1 or not instr.type.is_vector \
                    or cond.count != instr.type.count:
                _fail(
                    function,
                    f"select mask is not a matching <N x i1>: "
                    f"{format_instruction(instr)}",
                    block, instr,
                )
        elif cond != I1:
            _fail(function, f"select condition not i1: {format_instruction(instr)}",
                  block, instr)
    elif op in ("vload", "vstore", "gather", "scatter"):
        mask = ops[-1]
        if not (mask.type.is_vector and mask.type.elem == I1):
            _fail(function, f"{op} mask is not a <N x i1>: {format_instruction(instr)}",
                  block, instr)
        # Lane-count agreement between the data vector and its mask.
        data_type = instr.type if op in ("vload", "gather") else ops[0].type
        if not data_type.is_vector or data_type.count != mask.type.count:
            _fail(
                function,
                f"{op} lane-count mismatch ({data_type} under {mask.type} mask): "
                f"{format_instruction(instr)}",
                block, instr,
            )
    elif op in ("mask_any", "mask_all", "mask_popcnt"):
        if not (ops[0].type.is_vector and ops[0].type.elem == I1):
            _fail(
                function,
                f"{op} operand is not a <N x i1> mask: {format_instruction(instr)}",
                block, instr,
            )
    elif op == "broadcast":
        if not instr.type.is_vector or instr.type.elem != ops[0].type:
            _fail(function, f"bad broadcast: {format_instruction(instr)}", block, instr)


def verify_module(module: Module) -> None:
    for function in module.functions.values():
        if function.blocks:  # declarations have no body to verify
            verify_function(function)
