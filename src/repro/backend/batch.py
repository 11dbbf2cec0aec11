"""Gang-batching: execute B gangs of the SPMD variant per VM step.

The paper's back-end (§4.3) legalizes gang-width vector IR *down* to
machine width.  In this interpreted reproduction the economics are
inverted: numpy dispatch overhead is per-op, so wall-clock is dominated
by the gang loop re-dispatching the kernel body once per gang over tiny
8–32 lane arrays.  This pass widens the gang loop *up* — from G lanes to
G×B — so one trip through the loop body executes B gangs' worth of work
on arrays wide enough to amortize dispatch, the same way ispc's wider
targets amortize instruction count.

The rewrite runs after the whole optimization pipeline, on the final
module, and is paired with the same build left unbatched (the *twin*),
which the driver describes in ``module.attrs["unbatched_recipe"]`` and
:func:`unbatched_twin` compiles the first time a launch traps:

* **Structure.**  The canonical gang loop — single scalar induction
  ``p = phi [0, entry], [p + G, latch]`` tested ``icmp ult p, bound`` —
  is batched in place: its step becomes ``G·B``, its trip bound becomes
  ``n_batch = bound & -(G·B)``, and an unmodified clone of the loop (the
  *remainder loop*) picks up ``p`` at ``n_batch`` to run the last
  ``< B`` gangs one at a time at the original width.
* **Widening.**  Vector values inside the loop scale from G to G·B
  lanes; vector constants tile per gang; gang-width vectors defined
  outside the loop (LICM-hoisted splats) are tiled once in the header
  via a shuffle.  Scalars affine in ``__gang_base`` (``v = v0 +
  δ·gang_base``) stay scalar: the batched loop keeps gang 0's value, and
  every ``broadcast`` of a ``δ≠0`` scalar gains a per-gang offset vector
  ``+ k·δ·G`` (indexed shapes grow per-gang ``gang_base + stride``
  offset blocks; see :func:`widen_indexed_shape`).  Packed accesses
  whose address advances by exactly one element per thread widen in
  place; other affine loads become gathers over a per-lane offset table.
* **Accounting.**  Every original loop instruction is annotated with
  narrow *charge prototypes* plus a multiplicity (``B``, or the live
  gang count of the enclosing divergent loop), so the VM charges exactly
  what the unbatched engine would have — ``ExecStats`` stay bit-identical
  by construction.  Inserted helper instructions charge nothing; the
  gang backedge charges the whole per-gang loop overhead
  (phi/icmp/condbr/add/br) ×B.
* **Legality.**  Kernels using cross-gang-unsafe features — atomics,
  private allocas reused across gangs, scalar or scattered stores that
  may alias across gangs, ``psim.*`` sync, partial-fallback seams,
  non-affine gang-dependent scalars, values escaping the loop — are
  rejected with a reason (surfaced as ``vm.batch.rejected`` telemetry)
  and run unbatched.  Argument-rooted *loads* are assumed gang-
  independent: the SPMD model's unordered-threads contract already makes
  a cross-gang read-after-write a data race.
* **Traps.**  Any trap inside a batched run is replayed wholesale on the
  twin by the interpreter, so trap ordering, messages, and
  trap-point ``ExecStats`` stay bit-identical to the unbatched engine.
  Spurious batched-only traps (a finished gang's unmasked arithmetic
  feeding ``sdiv``, say) are therefore harmless: the replay completes
  cleanly and its results stand.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..diagnostics import emit_warning
from ..envflags import env_flag
from ..ir.cfg import Loop, find_loops, reverse_postorder
from ..ir.instructions import Instruction, REDUCE_OPS
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.types import (
    IntType,
    PointerType,
    Type,
    VectorType,
    I1,
    I32,
    I64,
    VOID,
)
from ..ir.values import Argument, Constant, UndefValue, Value
from ..runtime.mathlib import vector_math_external
from ..vectorizer.shape import Shape
from ..vectorizer.shapes import widen_indexed_shape
from .costmodel import suggest_batch_factor

__all__ = ["batch_module", "batching_request", "select_batch_factor", "BatchReport"]


#: Opcodes that are never legal inside a batched gang loop.  Scalar
#: ``store``/``load`` are cross-gang hazards (a later gang may observe or
#: clobber an earlier gang's memory within one widened trip); the
#: horizontal ops reduce across lanes of *one* gang and have no
#: per-gang-block widening.
_FORBIDDEN = REDUCE_OPS | frozenset(
    """alloca atomicrmw extractelement insertelement shuffle shuffle2
       sad mask_popcnt mask_all store load scatter ret""".split()
)


class BatchReport(dict):
    """``{"factor": B, "applied": [...], "rejected": [(fn, loop, reason)]}``."""


def select_batch_factor(gang_size: int, requested: Optional[int] = None,
                        machine=None, straight_line: bool = False) -> int:
    """Resolve the batch factor for one gang loop.

    ``requested`` comes from ``REPRO_BATCH`` (rounded down to a power of
    two); ``None`` asks the cost model, which honors ``machine``'s
    register/lane width when one is given and aims higher for a
    ``straight_line`` loop body.  Returns 1 when batching is not
    worthwhile.
    """
    if requested is not None:
        if requested < 2:
            return 1
        b = 1
        while b * 2 <= requested:
            b *= 2
        return b
    return suggest_batch_factor(gang_size, machine, straight_line)


def batching_request() -> Optional[int]:
    """Environment knobs: ``0`` = disabled, int = forced B, ``None`` = auto.

    An unparsable ``REPRO_BATCH`` is a *misconfiguration*, not a silent
    request for auto mode: it falls back to the cost model but emits a
    structured :class:`~repro.diagnostics.ReproWarning` saying so.
    """
    if env_flag("REPRO_NO_BATCH"):
        return 0
    forced = os.environ.get("REPRO_BATCH", "")
    if forced:
        try:
            return max(0, int(forced))
        except ValueError:
            emit_warning(
                f"unparsable REPRO_BATCH={forced!r} (expected an integer); "
                "falling back to cost-model batch selection",
                stage="backend",
                pass_name="batch",
                detail={"variable": "REPRO_BATCH", "value": forced},
            )
            return None
    return None


def _signed(c: Constant) -> int:
    """Integer constant payload as a signed value (payloads are stored in
    canonical two's-complement non-negative form)."""
    return int(c.as_signed())


# -- gang loop structural match ------------------------------------------------------


class _GangLoop:
    __slots__ = ("loop", "phi", "icmp", "condbr", "bound", "inc", "gang",
                 "entry_pred", "latch")

    def __init__(self, loop, phi, icmp, condbr, bound, inc, gang, entry_pred, latch):
        self.loop = loop
        self.phi = phi
        self.icmp = icmp
        self.condbr = condbr
        self.bound = bound
        self.inc = inc
        self.gang = gang
        self.entry_pred = entry_pred
        self.latch = latch


def _match_gang_loop(loop: Loop) -> Optional[_GangLoop]:
    """Recognize the canonical gang loop the driver's lowering emits.

    header: ``p = phi [0, entry], [p+G, latch]; icmp ult p, bound; condbr``
    with a step ``G >= 2`` (the gang size — step-1 loops are ordinary
    scalar loops and are left alone).  Non-power-of-two steps *match* so
    that :func:`batch_module` can reject them with a recorded reason
    instead of leaving the no-batch path silent.
    """
    header = loop.header
    latches = loop.latches
    if len(latches) != 1:
        return None
    latch = latches[0]
    phis = header.phis()
    if len(phis) != 1:
        return None
    p = phis[0]
    if isinstance(p.type, VectorType) or not isinstance(p.type, IntType):
        return None
    rest = header.non_phi_instructions()
    if len(rest) != 2:
        return None
    cmp, term = rest
    if (cmp.opcode != "icmp" or cmp.attrs.get("pred") != "ult"
            or cmp.operands[0] is not p):
        return None
    if term.opcode != "condbr" or term.operands[0] is not cmp:
        return None
    if term.operands[1] not in loop.blocks or term.operands[2] in loop.blocks:
        return None
    bound = cmp.operands[1]
    if isinstance(bound, Instruction) and bound.parent in loop.blocks:
        return None
    try:
        inc = p.phi_value_for(latch)
    except KeyError:
        return None
    if not (isinstance(inc, Instruction) and inc.opcode == "add"
            and inc.parent in loop.blocks and inc.operands[0] is p):
        return None
    step = inc.operands[1]
    if not isinstance(step, Constant) or isinstance(step.type, VectorType):
        return None
    gang = _signed(step)
    if gang < 2:
        return None
    entry_preds = [b for b in header.predecessors if b not in loop.blocks]
    if len(entry_preds) != 1:
        return None
    try:
        init = p.phi_value_for(entry_preds[0])
    except KeyError:
        return None
    if not (isinstance(init, Constant) and init.value == 0):
        return None
    return _GangLoop(loop, p, cmp, term, bound, inc, gang, entry_preds[0], latch)


# -- divergent inner loops -----------------------------------------------------------


class _DivergentLoop:
    __slots__ = ("loop", "lid", "mask_any", "condbr", "taken_idx")

    def __init__(self, loop, lid, mask_any, condbr, taken_idx):
        self.loop = loop
        self.lid = lid
        self.mask_any = mask_any
        self.condbr = condbr
        self.taken_idx = taken_idx


def _match_divergent_loop(inner: Loop, gang: int):
    """Canonical linearized divergent loop: exactly one exiting condbr
    whose condition is a ``mask_any`` over a G-lane mask, used only by
    that condbr.  Returns ``(_DivergentLoop | None, reason | None)``."""
    if len(inner.latches) != 1:
        return None, "divergent loop has multiple latches"
    exiting = inner.exiting_blocks()
    if len(exiting) != 1:
        return None, "divergent loop has multiple exits"
    term = exiting[0].terminator
    if term is None or term.opcode != "condbr":
        return None, "divergent loop exit is not a condbr"
    cond = term.operands[0]
    if not (isinstance(cond, Instruction) and cond.opcode == "mask_any"
            and cond.parent in inner.blocks):
        return None, "divergent backedge condition is not a mask_any"
    mask_t = cond.operands[0].type
    if not (isinstance(mask_t, VectorType) and mask_t.count == gang):
        return None, "divergent loop mask is not gang-wide"
    if any(u is not term for u, _ in cond.uses):
        return None, "mask_any escapes its backedge"
    taken_idx = 1 if term.operands[1] in inner.blocks else 2
    if term.operands[taken_idx] not in inner.blocks:
        return None, "divergent condbr has no in-loop edge"
    if term.operands[3 - taken_idx] in inner.blocks:
        return None, "divergent condbr never exits"
    for block in inner.blocks:
        for phi in block.phis():
            if not isinstance(phi.type, VectorType):
                return None, "scalar loop-carried state in divergent loop"
    return _DivergentLoop(inner, inner.header.name, cond, term, taken_idx), None


# -- affine (gang_base) classification -----------------------------------------------


def _affine_deltas(gl: _GangLoop, blocks_rpo: List[BasicBlock],
                   loop_blocks: Set[BasicBlock], skip: Set[Instruction]):
    """δ per scalar value, where ``v = v0 + δ·gang_base`` along the gang
    loop; ``None`` marks a gang-dependent scalar with no affine form.

    Values defined outside the loop are gang-invariant by definition
    (δ=0); constants and arguments likewise.  Returns ``(deltas,
    delta_of)`` where ``delta_of`` also resolves non-instruction values.
    """
    deltas: Dict[Value, Optional[int]] = {gl.phi: 1}

    def delta_of(v: Value) -> Optional[int]:
        if isinstance(v, Instruction):
            if v.parent not in loop_blocks:
                return 0
            return deltas.get(v)
        return 0  # constants, arguments, undef

    for block in blocks_rpo:
        for instr in block.instructions:
            if instr in skip or isinstance(instr.type, VectorType):
                continue
            op = instr.opcode
            ops = instr.operands
            if op in ("br", "condbr", "ret", "unreachable", "vstore",
                      "scatter", "store", "mask_any"):
                continue
            if any(isinstance(o.type, VectorType) for o in ops):
                deltas[instr] = None  # scalar extracted from vector state
                continue
            ds = [delta_of(o) for o in ops]
            d: Optional[int] = None
            if None not in ds:
                if op == "add":
                    d = ds[0] + ds[1]
                elif op == "sub":
                    d = ds[0] - ds[1]
                elif op == "mul":
                    if ds[0] == 0 and ds[1] == 0:
                        d = 0
                    elif isinstance(ops[1], Constant) and ds[1] == 0:
                        d = ds[0] * _signed(ops[1])
                    elif isinstance(ops[0], Constant) and ds[0] == 0:
                        d = ds[1] * _signed(ops[0])
                elif op == "shl":
                    if ds[0] == 0 and ds[1] == 0:
                        d = 0
                    elif isinstance(ops[1], Constant) and ds[1] == 0:
                        d = ds[0] * (1 << _signed(ops[1]))
                elif op == "gep":
                    d = ds[0] + ds[1] * instr.type.pointee.size_bytes()
                elif op in ("ptrtoint", "inttoptr"):
                    d = ds[0]
                elif all(x == 0 for x in ds):
                    # Any op over gang-invariant scalars is gang-invariant.
                    d = 0
            deltas[instr] = d
    return deltas, delta_of


# -- annotation helpers --------------------------------------------------------------


def _proto(instr: Instruction) -> Instruction:
    """A detached narrow charge prototype: same opcode/type/attrs, operand
    *types* preserved as undefs (the callee of a ``call`` is kept, so the
    VM can charge the narrow external's cost).  Built before widening, so
    the VM recomputes the exact narrow cost under whatever cost model and
    machine actually run."""
    operands = [
        op if isinstance(op, ExternalFunction) else UndefValue(op.type)
        for op in instr.operands
        if not isinstance(op, (BasicBlock, Function))
    ]
    return Instruction(instr.opcode, instr.type, operands, attrs=dict(instr.attrs))


def _scalar_proto(opcode: str, rtype: Type, operand_types=(), attrs=None) -> Instruction:
    return Instruction(
        opcode, rtype, [UndefValue(t) for t in operand_types], attrs=dict(attrs or {})
    )


def _annotate(instr: Instruction, charges: Tuple[Instruction, ...], mult) -> None:
    """Attach the accounting contract both downstream engines consume.

    The decoded engine reads these attrs per visit; the whole-kernel
    codegen emitter instead *specializes on them at emission time* —
    ``batch_mult`` ints become literal constants in the generated
    source and lid-tuple multiplicities become per-loop activity
    locals.  Because the generated code bakes these values in, the
    emission cache is keyed by a batch fingerprint (the ``batched``
    attr plus the annotated-instruction count): re-annotating a
    function with different values must re-emit, not reuse.
    """
    instr.attrs["batch_charges"] = charges
    instr.attrs["batch_mult"] = mult


# -- the rewrite ---------------------------------------------------------------------


def _batch_one_loop(function: Function, gl: _GangLoop, batch: int,
                    module: Module) -> Optional[str]:
    """Batch one matched gang loop in place; returns a rejection reason or
    ``None`` on success.  All legality checks run before any mutation."""
    loop = gl.loop
    gang = gl.gang
    wide = gang * batch
    loop_blocks = loop.blocks
    # Deterministic orders: function block order for rewriting, RPO for
    # the dataflow scan.
    ordered = [b for b in function.blocks if b in loop_blocks]
    rpo = [b for b in reverse_postorder(function) if b in loop_blocks]

    header_fixed = {gl.phi, gl.icmp, gl.condbr, gl.inc}

    # ---- legality: function- and loop-shape hazards --------------------------------
    for instr in function.instructions():
        if instr.opcode == "alloca":
            return "private alloca storage is reused across gangs"
    if gl.latch.terminator is None or gl.latch.terminator.opcode != "br":
        return "gang backedge is conditional"
    gang_exiting = [b for b in ordered
                    if any(s not in loop_blocks for s in b.successors)]
    if gang_exiting != [loop.header]:
        return "gang loop has side exits"

    # ---- legality: divergent inner loops -------------------------------------------
    inner_loops = [
        l for l in find_loops(function)
        if l.header is not loop.header
        and l.header in loop_blocks and l.blocks <= loop_blocks
    ]
    divergent: List[_DivergentLoop] = []
    control: Set[Instruction] = set()  # mask_any/condbr with a canonical role
    for inner in inner_loops:
        dl, reason = _match_divergent_loop(inner, gang)
        if dl is None:
            return reason
        divergent.append(dl)
        control.add(dl.mask_any)
        control.add(dl.condbr)

    # chain[block]: lids of enclosing divergent loops, innermost first,
    # ending in the static batch factor.  The VM resolves the first lid
    # with a live activity count (a divergent loop that has completed an
    # iteration knows how many gangs continue); before that it falls
    # through to the outer loop's count or to B.
    chain: Dict[BasicBlock, tuple] = {}
    for block in ordered:
        enclosing = sorted(
            (dl for dl in divergent if block in dl.loop.blocks),
            key=lambda dl: len(dl.loop.blocks),
        )
        chain[block] = tuple(dl.lid for dl in enclosing) + (batch,)

    # ---- legality: per-instruction scan --------------------------------------------
    for block in ordered:
        for instr in block.instructions:
            if instr in header_fixed or instr in control:
                continue
            op = instr.opcode
            if op in _FORBIDDEN:
                return f"{op} in gang loop"
            if op == "mask_any":
                return "mask_any outside a divergent backedge"
            if op == "call":
                callee = instr.operands[0]
                if isinstance(callee, Function):
                    return "internal call (partial-fallback seam) in gang loop"
                if not (isinstance(callee, ExternalFunction)
                        and callee.name.startswith("ml.")
                        and isinstance(instr.type, VectorType)
                        and len(callee.name.split(".")) == 4):
                    return f"cross-gang-unsafe call to {callee.name}"
            if op == "phi" and not isinstance(instr.type, VectorType) \
                    and instr is not gl.phi:
                return "scalar loop-carried state in gang loop"
            # Uniform vector width G throughout the loop.
            types = [instr.type] + [
                o.type for o in instr.operands
                if isinstance(o, (Instruction, Argument, Constant, UndefValue))
            ]
            for t in types:
                if isinstance(t, VectorType) and t.count != gang:
                    return "mixed vector widths in gang loop"
        for instr in block.instructions:
            for user, _ in instr.uses:
                if isinstance(user, Instruction) and user.parent not in loop_blocks:
                    return "value escapes the gang loop"

    # ---- legality: affine classification -------------------------------------------
    skip_affine = header_fixed | control
    deltas, delta_of = _affine_deltas(gl, rpo, loop_blocks, skip_affine)
    for block in rpo:
        for instr in block.instructions:
            if deltas.get(instr, 0) is None:
                return f"gang-dependent scalar {instr.opcode} is not affine"

    # ---- legality: memory access and branch forms ----------------------------------
    for block in ordered:
        for instr in block.instructions:
            if instr.opcode == "vstore":
                esize = instr.operands[0].type.elem.size_bytes()
                if delta_of(instr.operands[1]) != esize:
                    return "non-contiguous store may alias across gangs"
            elif instr.opcode == "vload":
                if delta_of(instr.operands[0]) is None:  # pragma: no cover
                    return "gang-dependent load address is not affine"
            elif (instr.opcode == "condbr" and instr not in control
                    and instr is not gl.condbr):
                if delta_of(instr.operands[0]) != 0:
                    return "gang-dependent scalar branch"

    # ======= point of no return: all checks passed, start mutating ==================

    # ---- remainder loop clone (of the still-unmodified loop) -----------------------
    from ..passes.clone import clone_blocks

    value_map: Dict[Value, Value] = {}
    clone_blocks(ordered, function, value_map, name_suffix=".rem")
    rheader = value_map[loop.header]
    rphi = value_map[gl.phi]
    # The remainder picks up the induction where the batched loop stops:
    # its entry edge becomes (p, batched-header) instead of (0, entry).
    for idx in range(1, len(rphi.operands), 2):
        if rphi.operands[idx] is gl.entry_pred:
            rphi.set_operand(idx - 1, gl.phi)
            rphi.set_operand(idx, loop.header)
            break

    # ---- annotate originals with narrow charge prototypes --------------------------
    ptype = gl.phi.type
    for block in ordered:
        mult = chain[block]
        for instr in block.instructions:
            if instr not in header_fixed:
                _annotate(instr, (_proto(instr),), mult)
    # Header bookkeeping executes once per *batched* iteration and charges
    # nothing; the backedge br instead charges the whole per-gang loop
    # overhead — phi copy, bound check, branch out of the header, the
    # induction add, and the backedge itself — ×B, which reconciles the
    # narrow engine's header accounting exactly.
    zero: Tuple[Instruction, ...] = ()
    for instr in (gl.phi, gl.icmp, gl.condbr, gl.inc):
        _annotate(instr, zero, 0)
    overhead = (
        _scalar_proto("br", VOID),
        _scalar_proto("phi", ptype),
        _scalar_proto("icmp", I1, (ptype, ptype), {"pred": "ult"}),
        _scalar_proto("condbr", VOID, (I1,)),
        _scalar_proto("add", ptype, (ptype, ptype)),
    )
    _annotate(gl.latch.terminator, overhead, batch)
    for dl in divergent:
        dl.mask_any.attrs["batch_activity"] = (dl.lid, batch, gang)
        dl.condbr.attrs["batch_backedge"] = (dl.lid, dl.taken_idx)

    # ---- rewire the batched loop ---------------------------------------------------
    header = loop.header
    n_batch = Instruction(
        "and", gl.bound.type,
        [gl.bound, Constant(gl.bound.type, -wide)],
        name=function.unique_name("batch.n"),
    )
    _annotate(n_batch, zero, 0)
    header.insert(header.first_non_phi_index(), n_batch)
    gl.icmp.set_operand(1, n_batch)
    exit_target = gl.condbr.operands[2]
    gl.condbr.set_operand(2, rheader)
    gl.inc.set_operand(1, Constant(ptype, wide))
    # The sole exit edge now leaves from the remainder header; exit-block
    # phis naming the batched header as predecessor must follow it.
    for phi in exit_target.phis():
        for idx in range(1, len(phi.operands), 2):
            if phi.operands[idx] is header:
                phi.set_operand(idx, rheader)

    # ---- widening ------------------------------------------------------------------
    inserted: Set[Instruction] = {n_batch}
    tiles: Dict[Value, Instruction] = {}

    def tile(v: Value) -> Instruction:
        """Widen a loop-invariant G-lane vector once, in the header."""
        existing = tiles.get(v)
        if existing is not None:
            return existing
        idx_const = Constant(VectorType(I32, wide), tuple(range(gang)) * batch)
        sh = Instruction(
            "shuffle", VectorType(v.type.elem, wide), [v, idx_const],
            name=function.unique_name("batch.tile"),
        )
        _annotate(sh, zero, 0)
        inserted.add(sh)
        header.insert(header.first_non_phi_index(), sh)
        tiles[v] = sh
        return sh

    def map_operand(v: Value) -> Optional[Value]:
        """Wide replacement for a narrow vector operand, or None to keep."""
        t = v.type
        if not (isinstance(t, VectorType) and t.count == gang):
            return None
        if isinstance(v, Instruction):
            if v.parent in loop_blocks:
                return None  # widened in place
            return tile(v)
        if isinstance(v, Constant):
            return Constant.from_canonical(
                VectorType(t.elem, wide), v.value * batch
            )
        if isinstance(v, UndefValue):
            return UndefValue(VectorType(t.elem, wide))
        return tile(v)  # vector-typed argument

    for block in ordered:
        for instr in list(block.instructions):
            if instr in inserted or instr in header_fixed:
                continue
            op = instr.opcode

            if op == "broadcast":
                d = delta_of(instr.operands[0]) or 0
                instr.type = VectorType(instr.type.elem, wide)
                if d:
                    # Gang k's scalar is offset by k·δ·G from gang 0's;
                    # materialize the per-gang offset blocks and add them.
                    off = widen_indexed_shape(
                        Shape.uniform(gang), batch, d * gang
                    ).offsets
                    off_const = Constant(instr.type,
                                         tuple(int(x) for x in off))
                    adjusted = Instruction(
                        "add", instr.type, [instr, off_const],
                        name=function.unique_name("batch.off"),
                    )
                    _annotate(adjusted, zero, 0)
                    inserted.add(adjusted)
                    block.insert(block.instructions.index(instr) + 1, adjusted)
                    for user, idx in list(instr.uses):
                        if user is not adjusted and isinstance(user, Instruction):
                            user.set_operand(idx, adjusted)
                continue

            if op == "vload":
                addr = instr.operands[0]
                esize = instr.type.elem.size_bytes()
                d = delta_of(addr)
                if d != esize:
                    # Affine but non-contiguous across gangs (including
                    # gang-invariant): gather over a per-lane offset
                    # table.  Lane (k, i) reads  addr + i·esize + k·G·δ.
                    narrow_sh = Shape.indexed(
                        np.arange(gang, dtype=np.int64) * esize)
                    offs_arr = widen_indexed_shape(
                        narrow_sh, batch, gang * d).offsets
                    where = block.instructions.index(instr)
                    seq: List[Instruction] = []
                    if isinstance(addr.type, PointerType):
                        a_int = Instruction(
                            "ptrtoint", I64, [addr],
                            name=function.unique_name("batch.addr"))
                        seq.append(a_int)
                    else:  # pragma: no cover - addresses are pointers
                        a_int = addr
                    bcast = Instruction(
                        "broadcast", VectorType(I64, wide), [a_int],
                        name=function.unique_name("batch.abase"))
                    offs = Constant(VectorType(I64, wide),
                                    tuple(int(x) for x in offs_arr))
                    addv = Instruction(
                        "add", VectorType(I64, wide), [bcast, offs],
                        name=function.unique_name("batch.aoff"))
                    aptr = Instruction(
                        "inttoptr",
                        VectorType(PointerType(instr.type.elem), wide),
                        [addv], name=function.unique_name("batch.addrs"))
                    seq += [bcast, addv, aptr]
                    for j, ins in enumerate(seq):
                        _annotate(ins, zero, 0)
                        inserted.add(ins)
                        block.insert(where + j, ins)
                    instr.opcode = "gather"
                    instr.set_operand(0, aptr)
                instr.type = VectorType(instr.type.elem, wide)
                m = map_operand(instr.operands[1])
                if m is not None:
                    instr.set_operand(1, m)
                continue

            if op == "call":
                callee = instr.operands[0]
                parts = callee.name.split(".")  # ml.<flavour>.<fn>.<fN>x<G>
                wide_ext = vector_math_external(
                    module, parts[2], callee.ftype.ret.elem, wide, parts[1]
                )
                instr.set_operand(0, wide_ext)
                instr.type = VectorType(instr.type.elem, wide)
                for idx, o in enumerate(instr.operands):
                    if idx == 0:
                        continue
                    m = map_operand(o)
                    if m is not None:
                        instr.set_operand(idx, m)
                continue

            # Generic elementwise / vstore / mask_any / phi / condbr path.
            if isinstance(instr.type, VectorType) and instr.type.count == gang:
                instr.type = VectorType(instr.type.elem, wide)
            for idx, o in enumerate(instr.operands):
                m = map_operand(o)
                if m is not None:
                    instr.set_operand(idx, m)

    function.attrs["batched"] = batch
    return None


def batch_module(module: Module, requested: Optional[int] = None) -> BatchReport:
    """Batch every legal gang loop in ``module`` in place.

    Returns a :class:`BatchReport`.  Mutation happens only for loops that
    pass every legality check; when anything was applied the caller
    leaves the recipe for the unbatched build in
    ``module.attrs["unbatched_recipe"]`` (see :func:`unbatched_twin`).
    """
    module.require_mutable("batch_module")
    applied: List[str] = []
    rejected: List[Tuple[str, str, str]] = []
    factor = 1
    for function in list(module.functions.values()):
        if function.spmd is not None or not function.blocks:
            continue  # SPMD variants are bodies, not drivers
        loops = find_loops(function)
        matches = [gl for loop in loops
                   for gl in [_match_gang_loop(loop)] if gl is not None]
        # Process innermost candidates only: drop any match that contains
        # another matched gang loop.
        matches = [
            gl for gl in matches
            if not any(o is not gl and o.loop.header in gl.loop.blocks
                       for o in matches)
        ]
        for gl in matches:
            if gl.gang & (gl.gang - 1):
                # suggest_batch_factor returns 1 for these; surface the
                # silent no-batch path as an observable rejection.
                rejected.append((function.name, gl.loop.header.name,
                                 f"non-power-of-two gang size {gl.gang}"))
                continue
            # The one bit of loop shape the lane target looks at.
            straight_line = not any(
                inner.header is not gl.loop.header
                and inner.header in gl.loop.blocks for inner in loops)
            b = select_batch_factor(gl.gang, requested,
                                    straight_line=straight_line)
            if b < 2:
                rejected.append((function.name, gl.loop.header.name,
                                 "gang already at the lane target"))
                continue
            reason = _batch_one_loop(function, gl, b, module)
            if reason is None:
                applied.append(f"{function.name}:{gl.loop.header.name}")
                factor = max(factor, b)
            else:
                rejected.append((function.name, gl.loop.header.name, reason))
    if not applied and not rejected:
        rejected.append(("<module>", "<none>", "no batchable gang loop found"))
    report = BatchReport(factor=factor if applied else 1,
                         applied=applied, rejected=rejected)
    module.attrs["batch_factor"] = report["factor"]
    module.attrs["batch_applied"] = list(applied)
    module.attrs["batch_rejected"] = [
        {"function": f, "loop": l, "reason": r} for f, l, r in rejected
    ]
    return report


def unbatched_twin(module: Module) -> Optional[Module]:
    """The trap-replay twin of a batched ``module``, or ``None`` when it
    is not batched.

    ``module.attrs["unbatched_recipe"]`` is a picklable callable returning
    the same compile with batching off.  It runs on the first call — a
    launch that trapped — and the frozen result hangs off ``module``
    itself: it takes no compile-cache slot, dies with the module, and is
    neither cloned nor pickled with it.
    """
    twin = module._unbatched_twin
    if twin is None:
        recipe = module.attrs.get("unbatched_recipe")
        if recipe is not None:
            twin = module._unbatched_twin = recipe().freeze()
    return twin
