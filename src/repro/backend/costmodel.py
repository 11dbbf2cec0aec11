"""Cycle cost model.

Charges each executed IR instruction a cycle cost on a given
:class:`~repro.backend.machine.Machine`.  Vector ops pay the legalization
factor (§4.3: the back-end unrolls gang-width ops to machine width);
memory ops additionally pay a bandwidth term; gather/scatter pay a
per-lane serialization penalty.

The table is calibrated against published x86 reciprocal throughputs at
the granularity that matters for the paper's evaluation: relative costs of
scalar vs packed vs gathered access, cheap vertical ops vs multi-cycle
divide/sqrt, and single-op complex horizontals (``sad``).

:func:`charge_items` is the one definition of what an instruction
charges, read by both execution engines and by gang batching's narrow
charge prototypes; what it computes is :func:`repro.vm.ops.value_impl`.

It also holds gang batching's one lane target
(:data:`TARGET_BATCHED_LANES`), which sizes the interpreter's batched
trips on the host and moves no cycle the model charges.
"""

from __future__ import annotations

import math
from typing import Optional

from .. import faultinject
from ..ir.instructions import Instruction, REDUCE_OPS
from ..ir.module import ExternalFunction
from ..ir.types import Type, VectorType
from .machine import ExecStats, Machine

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "TARGET_BATCHED_LANES",
           "charge_items", "suggest_batch_factor"]

#: Lane target of a batched gang loop: one trip runs ``G·B`` lanes with
#: ``G·B`` close to this.  A trip's host cost is numpy dispatch per op,
#: so fewer, wider trips win until the arrays stop fitting the caches;
#: the predicated last trip computes only its live gangs, so a launch of
#: fewer gangs than B pays for those alone.  Swept at 128–2048 lanes over
#: fig4 and fig5 (DESIGN.md, "B selection"): 1024 is the fastest single
#: target, whether the body holds a divergent loop or none.
TARGET_BATCHED_LANES = 1024


def suggest_batch_factor(gang_size: int) -> int:
    """How many gangs the batching pass should fuse for ``gang_size``.

    Returns the largest power of two ``B >= 1`` with ``gang_size * B``
    within :data:`TARGET_BATCHED_LANES`.  ``1`` means batching is not
    worth it (the gang is already at or past the target, or is not a
    power of two — the batching pass records the latter as a
    ``vm.batch.rejected`` reason).
    """
    if gang_size <= 0 or gang_size & (gang_size - 1):
        return 1
    factor = 1
    while gang_size * factor * 2 <= TARGET_BATCHED_LANES:
        factor *= 2
    return factor

# Issue costs per (machine) op, in cycles.
_SIMPLE_INT = 1.0
_COST = {
    # integer
    "add": 1.0, "sub": 1.0, "mul": 1.0, "and": 1.0, "or": 1.0, "xor": 1.0,
    "not": 1.0, "shl": 1.0, "lshr": 1.0, "ashr": 1.0,
    "smin": 1.0, "smax": 1.0, "umin": 1.0, "umax": 1.0,
    "addsat_s": 1.0, "addsat_u": 1.0, "subsat_s": 1.0, "subsat_u": 1.0,
    "avg_u": 1.0, "abd_u": 1.0, "mulhi_s": 2.0, "mulhi_u": 2.0,
    "iabs": 1.0,
    "sdiv": 20.0, "udiv": 20.0, "srem": 20.0, "urem": 20.0,
    # float
    "fadd": 1.0, "fsub": 1.0, "fmul": 1.0, "fneg": 1.0, "fabs": 1.0,
    "fmin": 1.0, "fmax": 1.0, "fma": 1.0,
    "fdiv": 8.0, "frem": 20.0, "fsqrt": 9.0,
    # compares / select / casts
    "icmp": 1.0, "fcmp": 1.0, "select": 1.0,
    "trunc": 1.0, "zext": 1.0, "sext": 1.0, "bitcast": 0.0,
    "fptrunc": 2.0, "fpext": 2.0,
    "fptosi": 2.0, "fptoui": 2.0, "sitofp": 2.0, "uitofp": 2.0,
    "ptrtoint": 0.0, "inttoptr": 0.0,
    # scalar memory / addressing
    "load": 1.0, "store": 1.0, "gep": 0.5, "alloca": 0.0,
    "atomicrmw": 8.0,
    # control
    "br": 1.0, "condbr": 1.0, "ret": 1.0, "unreachable": 0.0, "phi": 0.0,
    # vector manipulation
    "broadcast": 1.0, "extractelement": 1.0, "insertelement": 1.0,
    "mask_any": 1.0, "mask_all": 1.0, "mask_popcnt": 2.0, "sad": 1.0,
    # call overhead (callee body is costed as it executes)
    "call": 2.0,
}


class CostModel:
    """Maps one dynamically-executed instruction to a cycle charge."""

    def __init__(self, table: Optional[dict] = None):
        self.table = dict(_COST)
        if table:
            self.table.update(table)

    def cost(self, instr: Instruction, machine: Machine) -> float:
        op = instr.opcode
        # Injection point for robustness tests; interpreters cache costs
        # per instruction object, so this is off the per-execution path.
        faultinject.maybe_fail("costmodel", op)
        itype = instr.type

        if op in ("vload", "vstore"):
            vec_t = itype if op == "vload" else instr.operands[0].type
            factor = machine.legalize_factor(vec_t)
            bandwidth = vec_t.size_bytes() / machine.mem_bandwidth_bytes
            return max(float(factor), bandwidth)
        if op in ("gather", "scatter"):
            vec_t = itype if op == "gather" else instr.operands[0].type
            return vec_t.count * machine.gather_lane_cost
        if op in ("shuffle", "shuffle2"):
            # Cross-register permutes pay for every source register touched
            # and for moving the index vector.
            factor = machine.legalize_factor(itype)
            src_factor = machine.legalize_factor(instr.operands[0].type)
            idx_factor = machine.legalize_factor(instr.operands[-1].type)
            return factor * machine.shuffle_cost * max(1, src_factor) + max(0, idx_factor - 1)
        if op in REDUCE_OPS:
            vec_t = instr.operands[0].type
            native = max(1, machine.lanes(vec_t.elem.bits))
            steps = math.ceil(math.log2(max(2, vec_t.count)))
            return float(steps + machine.legalize_factor(vec_t) - 1)
        if op == "load" and isinstance(itype, VectorType):  # defensive
            return machine.legalize_factor(itype)

        base = self.table.get(op)
        if base is None:
            base = _SIMPLE_INT
        # Type used for legalization: result type, or first operand's type
        # for void-typed ops (stores, branches).  Casts legalize at the
        # wider of their source/result widths (pack/unpack chains).
        legal_t = itype
        if itype.is_void and instr.operands:
            legal_t = instr.operands[0].type
        if instr.is_cast and instr.operands:
            src_t = instr.operands[0].type
            if isinstance(src_t, VectorType) and (
                not isinstance(legal_t, VectorType)
                or machine.legalize_factor(src_t) > machine.legalize_factor(legal_t)
            ):
                legal_t = src_t
        factor = machine.legalize_factor(legal_t) if isinstance(legal_t, VectorType) else 1
        if op in ("store",) and isinstance(legal_t, VectorType):
            bandwidth = legal_t.size_bytes() / machine.mem_bandwidth_bytes
            return max(float(factor), bandwidth)
        return base * factor


#: Shared default instance.
DEFAULT_COST_MODEL = CostModel()


def charge_items(instr: Instruction, machine: Machine,
                 cost_model: CostModel) -> tuple:
    """What one execution of ``instr`` charges: a tuple of ``(counts_key,
    cycles)``, each item one instruction in ``ExecStats``.  A ``phi`` is
    free; a call of an external function is the ``call`` dispatch plus
    the callee's ``ext:<name>`` cost on ``machine``."""
    op = instr.opcode
    if op == "phi":
        return (("phi", 0.0),)
    items = ((op, cost_model.cost(instr, machine)),)
    if op == "call":
        callee = instr.operands[0]
        if isinstance(callee, ExternalFunction):
            cost = callee.cost
            if callable(cost):
                cost = cost(machine, [o.type for o in instr.operands[1:]])
            items += ((f"ext:{callee.name}", float(cost)),)
    return items
