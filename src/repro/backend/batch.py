"""Gang-batching: execute B gangs of the SPMD variant per VM step.

The paper's back-end (§4.3) legalizes gang-width vector IR *down* to
machine width.  In this interpreted reproduction the economics are
inverted: numpy dispatch overhead is per-op, so wall-clock is dominated
by the gang loop re-dispatching the kernel body once per gang over tiny
8–32 lane arrays.  This pass widens the gang loop *up* — from G to
G×B lanes — so one trip through the loop body executes B gangs' worth of
work on arrays wide enough to amortize dispatch, the same way ispc's
wider targets amortize instruction count.

The rewrite runs after the whole optimization pipeline, on the final
module, and is paired with the same build left unbatched (the *twin*),
which the driver describes in ``module.attrs["unbatched_recipe"]`` and
:func:`unbatched_twin` compiles the first time a launch needs the
reference engine — a trap replay, a codegen bailout, ``codegen=False``
or a run under an armed fault plan; batched IR itself runs only as
generated code:

* **Structure.**  The canonical gang loop — single scalar induction
  ``p = phi [0, entry], [p + G, latch]`` tested ``icmp ult p, bound`` —
  is batched in place: its step becomes ``G·B`` and its header
  ``condbr`` carries ``batch_trip = (G, B)``.  A trip runs the ``r =
  min(B, ⌈(bound − p)/G⌉)`` gangs left, so the last ``r < B`` gangs run
  as one *predicated trip*, which generated code runs at live width: the
  trip's values are ``c·r`` lanes wide, so it computes, loads and stores
  its ``r`` gangs only, and counts them alone in activity counts and
  charges.  A ``batch.exit`` block on the exit edge charges the
  unbatched loop's last header visit.  B is the cost model's one lane
  target over G (``costmodel.TARGET_BATCHED_LANES``), whatever the
  loop's shape.
* **Widening.**  A ``c``-lane vector inside the loop becomes ``c·B``
  lanes: B per-gang blocks side by side.  Vector constants tile per gang
  (each distinct constant once per loop); vectors defined outside the
  loop (LICM-hoisted splats) are tiled once, before the loop.  Scalars
  affine in ``__gang_base`` (``v = v0 + δ·gang_base``, δ read from the
  value's :class:`AffineForms` form) stay scalar: the batched loop keeps
  gang 0's value, and every ``broadcast`` of a ``δ≠0`` scalar gains a
  per-gang offset vector ``+ k·δ·G``.  A scalar phi must be
  gang-invariant (δ=0, an optimistic fixpoint); in a
  divergent loop it keeps stepping while any gang of the trip iterates,
  so nothing computed from it may leave that loop.
* **Per-gang segments.**  The paper's model (§3) makes horizontal
  operations synchronize the lanes of *one* gang, so the B gangs of a
  batched trip are B independent segments.  A ``shuffle`` whose index is
  the same for every gang (a constant, or computed before the loop)
  keeps its narrow index and gets ``segments = B``; an integer
  ``reduce_*`` gets ``segments = B`` and yields B lanes, one per gang
  (``sad`` is lane-local in groups of 8 and simply widens).
  Scalars computed from those lanes are *per-gang*: integer ops over B
  lanes, gang-invariant operands broadcast to B lanes by zero-charge
  helpers.  A per-gang value may reach two sinks only: a ``broadcast``
  (``segments = B``: each lane repeated over its gang) and an integer
  ``atomicrmw`` on a gang-invariant cell with an unused result
  (``segments = B``: it folds its B lanes with its own op — exact mod
  2**n, whatever the order — and updates the cell once).
* **Memory.**  An affine ``vload``/``vstore`` whose address advances by
  Δ bytes per gang is contiguous when Δ is its own width; otherwise it
  keeps its opcode and becomes *row-strided* (``segments = B``,
  ``row_stride = Δ``): B rows of its narrow lanes, Δ bytes apart.
* **Private storage.**  An alloca outside the loop whose in-loop uses
  are packed ``vload``/``vstore`` at gang-invariant offsets (the §4.2.3
  SoA rows, reached through ``gep`` only) is expanded per gang: those
  accesses get the VM block's layout, ``private = rows`` and
  ``row_bytes``, and generated code serves them from a ``(rows, G·B)``
  array, flagging each row a trip stores for every active lane.  The VM
  block keeps its size and receives the last active gang's flagged rows
  at the end of every trip; a read of an unflagged row or a partial
  store replays the launch on the twin.
* **Serialized atomics.**  An atomic whose address varies across lanes
  is serialized per lane (§4.2.3), each lane in a ``lane.then`` diamond
  when masked.  An integer ``add``/``sub`` chain with unused results,
  outside divergent loops, widens to one ``atomicrmw`` on the trip's
  ``G·B`` addresses (a *scatter-add*, ``segments = B``): unbatched, gang
  k's accesses and lane updates all precede gang k+1's, batched every
  gang's other accesses keep their places around one pass of updates.
  Adds to one cell commute mod 2**n and no result is read, so the orders
  agree when no two cells partly overlap and no other access of the trip
  touches a cell — which codegen checks per trip, at no charge, replaying
  the launch on the twin when it fails.  So every other access of the
  loop needs an address form codegen can evaluate on entering the trip,
  and the loop no private storage and no second chain.
* **Accounting.**  Every original loop instruction is annotated with
  narrow *charge prototypes* plus a multiplicity (the trip's active gang
  count, or the live gang count of the enclosing divergent loop), so
  generated code charges exactly what the unbatched build would have —
  ``ExecStats`` stay bit-identical by construction.  Inserted helper
  instructions charge nothing; the gang backedge charges the whole
  per-gang loop overhead (phi/icmp/condbr/add/br) once per active gang,
  and the exit block the last header visit.  A masked scatter-add
  charges its lane tests once per gang and lane 0's ``lane.then`` once
  per active lane of its mask in the trip (``LANES``).
* **Legality.**  Rejected with a reason (surfaced as
  ``vm.batch.rejected`` telemetry), the loop then runs unbatched: an
  alloca in the loop, private storage read through a gather or whose
  address escapes; scalar ``load``/``store``, ``scatter``,
  ``insertelement``/``extractelement`` outside a serialized atomic,
  ``shuffle2``,
  ``mask_all``/``mask_popcnt`` and ``psim.*`` calls; a shuffle whose
  index the loop computes (a runtime index); float reductions and float
  atomics; per-gang values reaching an address, a branch, a store or any
  other op; an atomic on a gang-dependent cell, under a divergent loop
  or with a used result; internal calls; non-affine
  gang-dependent scalars and phis; scalar loop state leaving its
  divergent loop; gang-dependent branches; values escaping the
  loop; accesses whose rows would overlap (Δ below the access's width).
  Memory is one question — does running B consecutive gangs in lockstep
  reverse a dependence of the unbatched order? — answered by
  :mod:`~repro.backend.lockstep`, the auto-vectorizer's test too, over
  one ref per ``vload``, ``vstore`` and folded atomic: base and offset
  its address's atoms and constant bytes (:func:`_footprint_key`), step
  δ·G, bytes the lanes its mask may set (a runtime mask: every lane).
  So a read of a later gang's cells before that gang's store batches —
  unbatched, gang k sees what gangs below k stored and not what gangs
  above will — and a read of them after this gang's store does not.
  Accesses to different bases are assumed gang-independent: the SPMD
  model's unordered-threads contract already makes a cross-gang data
  race unspecified.  A ``gather``, which has no base, is rejected when
  its pointer roots — the scalar pointers its address arithmetic starts
  from, or a pointer read from memory — meet those of any ``vstore`` or
  atomic of the loop (``gather may read another gang's store``): ``find``
  inlined into the gang loop, reading every ``a[j]`` while gang k writes
  ``a[8k..8k+7]``.
* **Row nests.**  A gang loop inside a counted row loop (step 1, bound
  invariant) whose body is a straight-line scalar prologue affine in the
  row index (``row = y*w``, ``sums[y] = 0``), the gang loop with a
  thread count that does not vary by row, a tail check, a tail and the
  latch collapses into the gang trip (OpenMP's ``collapse``): one outer
  trip runs R rows, chosen at nest entry — ``B // P`` for P full gangs
  per row, when P ≤ B and a zero-charge no-alias check passes, else 1,
  the unbatched order.  The rows' full gangs run as one trip of R·P
  gangs (gang slot ``k`` is gang ``k % P`` of row ``k // P``), their tail
  gangs as one predicated trip of R gangs (the tail is widened like a
  gang loop, with the row as the gang, and its accesses carry
  ``row_stride row``); accesses become ``(rows, gangs, lanes)`` views
  whose row stride generated code evaluates at nest entry from the
  address's affine form over the nest (the row-index part; every atom is
  defined before the nest).  Prologue stores run once per row, in row
  order, and an atomic folds each row's gangs into that row's cell
  (``sums + y``).  The check (``codegen._rows_disjoint``) takes each
  access's byte hull over the nest's rows from its affine form — prologue
  stores, body and tail accesses, atomics — and allows R > 1 only when
  every store's rows are disjoint from each other and from every other
  access's rows: hulls that do not meet, or the same row stride with both
  footprints inside one stride.  It costs nothing (no IR, no charge); a
  failed check is counted per launch (``codegen_report()
  ["row_fallbacks"]``).  The outer blocks (header, prologue, tail check,
  latch) and the gang loop's exit block charge once per row of the outer
  trip (``batch_mult = "rows"``), the gang loop ``R·P`` per trip, the
  tail ``R``.  A row loop that cannot collapse is reported in
  ``batch_rejected`` with its reason (``row prologue scalar not affine in
  the row index``, ``thread count varies by row``, ...); its gang loop
  still batches on its own.
* **Traps.**  Any trap inside a batched run is replayed wholesale on the
  twin by the interpreter, so trap ordering, messages, and
  trap-point ``ExecStats`` stay bit-identical to the unbatched engine.
  Spurious batched-only traps (a finished gang's unmasked arithmetic
  feeding ``sdiv``, say) are therefore harmless: the replay completes
  cleanly and its results stand.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from .. import faultinject
from ..ir.cfg import Loop, find_loops, reverse_postorder
from ..ir.instructions import Instruction, INT_BINOPS, REDUCE_OPS
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.types import (
    IntType,
    Type,
    VectorType,
    I1,
    I32,
    I64,
    VOID,
)
from ..ir.values import Argument, Constant, UndefValue, Value
from ..runtime.mathlib import vector_math_external
from ..vm.interp import _constant_payload
from ..vm.ops import value_impl
from .costmodel import suggest_batch_factor
from .lockstep import MemRef, lockstep_conflict

__all__ = ["batch_module", "select_batch_factor", "BatchReport"]


#: Opcodes that are never legal inside a batched gang loop.  Scalar
#: ``store``/``load`` and ``scatter`` are cross-gang hazards (a later gang
#: may observe or clobber an earlier gang's memory within one widened
#: trip); the remaining lane-position ops have no per-gang form.
_FORBIDDEN = frozenset(
    """alloca extractelement insertelement shuffle2 mask_popcnt mask_all
       store load scatter ret""".split()
)

#: Scalar ops a per-gang value may flow through: lane-wise integer
#: arithmetic, evaluated over B lanes, one per gang.
_PER_GANG_OPS = INT_BINOPS | frozenset(
    "icmp select trunc zext sext not iabs".split()
)

#: What a per-gang value reaching these opcodes becomes (any other
#: opcode is named as it is).
_PER_GANG_SINKS = {"gep": "an address", "inttoptr": "an address",
                   "condbr": "a branch"}


class BatchReport(dict):
    """``{"factor": B, "applied": [...], "rejected": [(fn, loop, reason)]}``."""


def select_batch_factor(gang_size: int,
                        requested: Optional[int] = None) -> int:
    """Resolve the batch factor for one gang loop.

    ``requested`` is the driver's ``batch_request`` (rounded down to a
    power of two); ``None`` asks the cost model for its one lane target,
    whatever the loop's shape: a gang loop nested in a row loop gets it
    too, since its trip spans the gangs of several rows (see the module
    docstring).
    Returns 1 when batching is not worthwhile.
    """
    if requested is not None:
        if requested < 2:
            return 1
        b = 1
        while b * 2 <= requested:
            b *= 2
        return b
    return suggest_batch_factor(gang_size)


class _Parts:
    """A record of named parts, listed in each subclass's ``__slots__``."""

    __slots__ = ()

    def __init__(self, **parts):
        for key, value in parts.items():
            setattr(self, key, value)


# -- counted loops: the gang loop, and the row loop around it -----------------------


class _CountedLoop(_Parts):
    """A counted loop: header phis, then ``icmp ult phi, bound`` (``bound``
    loop-invariant) and a ``condbr`` into the loop or out of it; ``inc =
    add phi, step`` (a scalar constant) on its one latch; one block
    entering it."""

    __slots__ = ("loop", "phi", "icmp", "condbr", "inc", "step", "entry",
                 "latch")


def _match_counted_loop(loop: Loop) -> Optional[_CountedLoop]:
    header = loop.header
    blocks = loop.blocks
    entry = [b for b in header.predecessors if b not in blocks]
    rest = header.non_phi_instructions()
    if len(loop.latches) != 1 or len(entry) != 1 or len(rest) != 2:
        return None
    cmp, term = rest
    phi = cmp.operands[0] if cmp.opcode == "icmp" else None
    if not (isinstance(phi, Instruction) and phi.opcode == "phi"
            and phi.parent is header and isinstance(phi.type, IntType)
            and cmp.attrs.get("pred") == "ult"
            and _invariant(cmp.operands[1], blocks)
            and term.opcode == "condbr" and term.operands[0] is cmp
            and term.operands[1] in blocks and term.operands[2] not in blocks):
        return None
    latch = loop.latches[0]
    inc = phi.phi_value_for(latch)
    if not (isinstance(inc, Instruction) and inc.opcode == "add"
            and inc.parent in blocks and inc.operands[0] is phi
            and isinstance(inc.operands[1], Constant)
            and not isinstance(inc.operands[1].type, VectorType)):
        return None
    return _CountedLoop(loop=loop, phi=phi, icmp=cmp, condbr=term, inc=inc,
                        step=int(inc.operands[1].as_signed()), entry=entry[0],
                        latch=latch)


def _match_gang_loop(loop: Loop) -> Optional[_CountedLoop]:
    """Recognize the canonical gang loop the driver's lowering emits: a
    counted loop whose only header phi starts at 0 and steps by ``G >= 2``
    (the gang size — step-1 loops are ordinary scalar loops and are left
    alone).  Non-power-of-two steps *match* so that :func:`batch_module`
    can reject them with a recorded reason instead of leaving the
    no-batch path silent."""
    gl = _match_counted_loop(loop)
    if gl is None or gl.step < 2 or loop.header.phis() != [gl.phi]:
        return None
    init = gl.phi.phi_value_for(gl.entry)
    return gl if isinstance(init, Constant) and init.value == 0 else None


def _invariant(v: Value, blocks: Set[BasicBlock]) -> bool:
    return not (isinstance(v, Instruction) and v.parent in blocks)


# -- divergent inner loops -----------------------------------------------------------


class _DivergentLoop(_Parts):
    __slots__ = ("loop", "lid", "mask_any", "condbr", "taken_idx")


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
    return _DivergentLoop(loop=inner, lid=inner.header.name, mask_any=cond,
                          condbr=term, taken_idx=taken_idx), None


# -- affine forms --------------------------------------------------------------------

#: Monomials of an affine form (see :class:`AffineForms`) besides atoms:
#: the constant 1, the row index and the gang base.  ``("y", atom)`` is
#: the row index times an atom.
ONE, ROW, GANG = ("1",), ("y",), ("p",)

_M64 = (1 << 64) - 1

#: Ops an affine form sees through (64-bit integer or pointer results).
_AFFINE_OPS = frozenset("add sub mul shl gep ptrtoint inttoptr".split())

#: Which operand of a memory op is its address.
_ADDRESS_OPERAND = {"load": 0, "vload": 0, "gather": 0, "atomicrmw": 0,
                    "store": 1, "vstore": 1, "scatter": 1}


def _signed64(c: int) -> int:
    """A coefficient (mod 2**64) read as a signed 64-bit value."""
    return c - (1 << 64) if c >> 63 else c


def row_monomial(m) -> bool:
    """``m`` is the row index, or the row index times an atom."""
    return m is ROW or (isinstance(m, tuple) and len(m) == 2)


def row_dependent(form: Optional[dict]) -> bool:
    """A form with a row-index monomial."""
    return bool(form) and any(row_monomial(m) for m in form)


def _form_sum(a: dict, b: dict, k: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + k * c) & _M64
    return {m: c for m, c in out.items() if c}


def _form_product(a: dict, b: dict) -> Optional[dict]:
    """The product of two forms: a constant times a form, or a multiple
    of the row index times a sum of atoms; ``None`` otherwise."""
    if set(a) <= {ONE}:
        a, b = b, a
    if set(b) <= {ONE}:
        k = b.get(ONE, 0)
        return {m: c * k & _M64 for m, c in a.items() if c * k & _M64}
    out: Dict[object, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma is ROW and not isinstance(mb, tuple):
                m = ("y", mb)
            elif mb is ROW and not isinstance(ma, tuple):
                m = ("y", ma)
            else:
                return None
            out[m] = (out.get(m, 0) + ca * cb) & _M64
    return {m: c for m, c in out.items() if c}


class AffineForms:
    """The scalars of a ``region`` — a gang loop, a row tail, or a row nest
    — as affine forms ``{monomial: coefficient mod 2**64}`` over the
    constant (``ONE``), *atoms*, the ``gang`` base (``GANG``), the ``row``
    index (``ROW``) and the row index times an atom; ``None`` for a value
    that depends on the gang base or the row index without such a form.

    * Outside the region a scalar is an atom, an integer constant its
      value; a vector has no form.
    * In the region a 64-bit integer or pointer ``add``, ``sub``, ``mul``,
      ``shl``, ``gep`` (its index 64-bit or a constant) or pointer cast
      combines its operands' forms (see :func:`_form_product`).
    * Any other scalar the region computes from gang- and row-free
      operands is an opaque *invariant atom*, and so is a scalar phi:
      seeding phis invariant is an optimistic fixpoint that
      :func:`_scan_region` confirms.  A memory read, and an instruction
      in ``skip``, has no form.

    Batching reads one gang's delta δ from a form (``v = v0 +
    δ·gang_base``, :meth:`delta`), and an access's lockstep ref, its
    atoms and constant bytes (:func:`_footprint_key`).  A row nest's
    legality walk reads the forms codegen can evaluate on entering the
    nest (:meth:`at_entry`), and codegen its addresses and row strides
    from them.
    """

    def __init__(self, region: Set[BasicBlock], gang: Optional[Value] = None,
                 row: Optional[Value] = None, skip=frozenset()):
        self.region = region
        self.gang = gang
        self.row = row
        self.skip = skip
        self.memo: Dict[Value, Optional[dict]] = {}

    def __call__(self, v: Value) -> Optional[dict]:
        if isinstance(v, Constant):
            if v.type.is_int:
                return {ONE: v.value} if v.value else {}
            return None if isinstance(v.type, VectorType) else {v: 1}
        if v not in self.memo:  # only phis close cycles, and they are atoms
            self.memo[v] = self._form(v)
        return self.memo[v]

    def _form(self, v: Value) -> Optional[dict]:
        t = v.type
        if not t.is_scalar:
            return None
        if v is self.gang:
            return {GANG: 1}
        if v is self.row:
            return {ROW: 1}
        if not (isinstance(v, Instruction) and v.parent in self.region):
            return {v: 1}
        op = v.opcode
        if op == "phi":
            return {v: 1}
        if v in self.skip or op in _ADDRESS_OPERAND:
            return None
        ops = v.operands
        form = None
        if op in _AFFINE_OPS and (t.is_pointer or t.bits == 64):
            form = self._combine(op, ops, t)
        if form is None and all(self.free(o) for o in ops):
            form = {v: 1}
        return form

    def _combine(self, op: str, ops, t: Type) -> Optional[dict]:
        parts = [self(o) for o in ops]
        if None in parts:
            return None
        a = parts[0]
        if op in ("ptrtoint", "inttoptr"):
            return a
        if op == "add":
            return _form_sum(a, parts[1])
        if op == "sub":
            return _form_sum(a, parts[1], -1)
        if op == "mul":
            return _form_product(a, parts[1])
        if set(parts[1]) <= {ONE}:
            k = parts[1].get(ONE, 0)
            if op == "shl":
                return _form_product(a, {ONE: 1 << k}) if k < 64 else None
            bits = ops[1].type.bits
            index = k - (1 << bits) if k >> (bits - 1) else k
            return _form_sum(a, {ONE: index * t.pointee.size_bytes() & _M64})
        if op == "gep" and ops[1].type.bits == 64:
            return _form_sum(a, _form_product(
                parts[1], {ONE: t.pointee.size_bytes()}))
        return None

    def free(self, v: Value) -> bool:
        """``v`` has a form free of the gang base and the row index."""
        form = self(v)
        return form is not None and GANG not in form and (
            self.row is None or not row_dependent(form))

    def delta(self, v: Value) -> Optional[int]:
        """How far ``v`` moves from one gang to the next, per unit of
        gang base (δ, signed), or ``None``."""
        form = self(v)
        return None if form is None else _signed64(form.get(GANG, 0))

    def at_entry(self, v: Value) -> Optional[dict]:
        """``v``'s form if no atom of it is computed in the region, so that
        it can be evaluated on entering the region; else ``None``."""
        form = self(v)
        for m in form or ():
            atom = m[-1] if isinstance(m, tuple) else m  # ("y", atom) too
            if isinstance(atom, Instruction) and atom.parent in self.region:
                return None
        return form


def _footprint_key(form: dict) -> Tuple[frozenset, int]:
    """A gang-0 address as ``(base, offset)``: its atoms with their
    coefficients (stencil addresses such as ``src + row + w + x`` are
    sums, so a single root would not do) and its constant bytes."""
    return (frozenset((m, c) for m, c in form.items()
                      if m is not ONE and m is not GANG),
            _signed64(form.get(ONE, 0)))


def _loop_state_reason(divergent: List["_DivergentLoop"],
                       ordered: List[BasicBlock]) -> Optional[str]:
    """A scalar phi in a divergent loop steps while *any* gang of the
    trip iterates: nothing computed from it may leave the innermost
    divergent loop holding it."""
    for block in ordered:
        loops = [dl.loop.blocks for dl in divergent if block in dl.loop.blocks]
        if not loops:
            continue
        inner = min(loops, key=len)
        work = [p for p in block.phis() if not isinstance(p.type, VectorType)]
        seen = set(work)
        while work:
            for user, _ in work.pop().uses:
                if user.parent not in inner:
                    return "scalar loop state leaves its divergent loop"
                if user not in seen and not isinstance(user.type, VectorType):
                    seen.add(user)
                    work.append(user)
    return None


def _private_storage(function: Function, loop_blocks: Set[BasicBlock],
                     forms: AffineForms):
    """The allocas the loop expands per gang, ``{alloca: (rows,
    row_bytes, accesses)}`` (see the module docstring), or a rejection
    reason.  Accesses outside the loop use the VM block, which every
    trip leaves as the unbatched gangs would."""
    expanded = {}
    for alloca in function.instructions():
        if alloca.opcode != "alloca" or alloca.parent in loop_blocks:
            continue
        chain, seen, work = {alloca}, {alloca}, [alloca]
        accesses: List[Instruction] = []
        escapes = False
        while work:
            v = work.pop()
            for user, idx in v.uses:
                op = user.opcode
                inside = user.parent in loop_blocks
                if op in ("call", "ret") or idx != _ADDRESS_OPERAND.get(op, idx):
                    return "private storage escapes"  # passed, or stored
                if inside and op == "gather":
                    return "private storage read through a gather"
                if op in ("vload", "vstore") and v in chain:
                    if inside:
                        accesses.append(user)
                elif (op == "gep" and idx == 0 and v in chain
                        and not isinstance(user.type, VectorType)
                        and (not inside or forms.delta(user) == 0)):
                    chain.add(user)
                else:
                    escapes = escapes or inside
                if user not in seen and op not in _ADDRESS_OPERAND:
                    seen.add(user)
                    work.append(user)
        if escapes:
            return "private storage escapes"
        if accesses:
            types = {a.type if a.opcode == "vload" else a.operands[0].type
                     for a in accesses}
            if len(types) > 1:
                return "private storage accessed at different widths"
            (vtype,) = types
            row = vtype.count * vtype.elem.size_bytes()
            size = alloca.type.pointee.size_bytes() * alloca.attrs.get("count", 1)
            expanded[alloca] = (size // row, row, accesses)
    return expanded


def _per_gang_reason(per_gang: Dict[Instruction, None],
                     forms: AffineForms) -> Optional[str]:
    """Why the per-gang values cannot stay per-gang, or ``None``: each
    use must be a lane-wise integer op over other per-gang values and
    gang-invariant scalars, a ``broadcast``, or the value of an
    ``atomicrmw`` (checked with the other atomics)."""
    lane_wise = []
    for value in per_gang:
        for user, idx in value.uses:
            op = user.opcode
            if op == "broadcast" or (op == "atomicrmw" and idx == 1):
                continue
            if op in _PER_GANG_OPS and isinstance(user.type, IntType):
                lane_wise.append(user)
                continue
            return f"per-gang value reaches {_PER_GANG_SINKS.get(op, op)}"
    for user in lane_wise:
        for o in user.operands:
            if o not in per_gang and forms.delta(o) != 0:
                return "per-gang value meets a gang-affine scalar"
    return None


# -- memory refs ------------------------------------------------------------------


#: The vector opcodes :func:`_known_lanes` evaluates over known operands.
_KNOWN_LANE_OPS = frozenset(("and", "or", "xor", "shuffle", "select",
                             "broadcast"))


def _known_lanes(v: Value, memo: Dict[Value, object]):
    """The lane payload of an integer vector known at batch time — a
    constant, or an expression over constants (the masks the vectorizer's
    packed forms compute and LICM hoists), evaluated as the engines
    evaluate it (:func:`~repro.vm.ops.value_impl`) — else ``None``."""
    if isinstance(v, Constant):
        return _constant_payload(v)
    if not (isinstance(v, Instruction) and isinstance(v.type, VectorType)
            and v.opcode in _KNOWN_LANE_OPS) or (
                v.opcode == "select"
                and not isinstance(v.operands[0].type, VectorType)):
        return None
    if v in memo:
        return memo[v]
    memo[v] = None
    args = [_known_lanes(o, memo) for o in v.operands]
    lanes = None if any(a is None for a in args) else value_impl(v)(*args)
    memo[v] = lanes
    return lanes


def _lane_bytes(lanes, count: int, esize: int) -> int:
    """The bytes a packed access touches, as a bitset over its own span
    (``lanes``: its known mask, ``None`` for a runtime one = every lane)."""
    if lanes is None:
        return (1 << (count * esize)) - 1
    cell = (1 << esize) - 1
    return sum(cell << (lane * esize) for lane, on in enumerate(lanes) if on)


def _pointer_roots(addr: Value) -> frozenset:
    """The objects ``addr`` may point into, named as the symbolic bases of
    the lockstep refs name them: the scalar pointers where its address
    arithmetic starts — an argument, alloca, phi or select — and ``None``
    for a pointer read from memory or returned by a call, or an address
    made from integers alone.  A loaded integer is data (an index), not
    a root."""
    roots = set()
    seen = set()
    stack = [addr]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        t = v.type
        if t.is_pointer and (isinstance(v, Argument) or v.opcode in (
                "alloca", "phi", "select")):
            roots.add(v)
        elif isinstance(v, Instruction) and v.opcode not in _READS:
            stack.extend(o for o in v.operands
                         if isinstance(o, (Instruction, Argument)))
        elif t.is_pointer or (isinstance(t, VectorType)
                              and t.elem.is_pointer):
            roots.add(None)
    return frozenset(roots) if roots else frozenset((None,))


#: Opcodes whose result comes from memory or a callee, not from operands.
_READS = frozenset(("load", "vload", "gather", "atomicrmw", "call"))


def _gather_reason(gathers: List[Instruction],
                   writes: List[Instruction]) -> Optional[str]:
    """Whether a gather of the gang loop, which has no affine base, may
    read a cell another gang of the trip writes (see "Legality")."""
    if not gathers:
        return None
    written = [_pointer_roots(w.operands[_ADDRESS_OPERAND[w.opcode]])
               for w in writes]
    for g in gathers:
        roots = _pointer_roots(g.operands[0])
        if any(None in roots or None in w or not roots.isdisjoint(w)
               for w in written):
            return "gather may read another gang's store"
    return None


# -- annotation helpers --------------------------------------------------------------


class _Prototypes:
    """Detached narrow charge prototypes: same opcode/type/attrs, operand
    *types* preserved as undefs (the callee of a ``call`` is kept, so the
    VM can charge the narrow external's cost).  Built before widening, so
    the VM recomputes the exact narrow cost under whatever cost model and
    machine actually run.  A prototype is a description no walk ever
    reaches, so one per distinct signature serves every instruction that
    has it (and one undef per type every prototype), and one
    ``batch_charges`` tuple every instruction it describes."""

    def __init__(self):
        self._undefs: Dict[Type, UndefValue] = {}
        self._memo: Dict[tuple, Instruction] = {}
        self._charges: Dict[Instruction, Tuple[Instruction, ...]] = {}

    def make(self, opcode: str, rtype: Type, operands, attrs=None) -> Instruction:
        """``operands``: operand types, or the external a call invokes."""
        try:
            key = (opcode, rtype, tuple(operands),
                   tuple(sorted((attrs or {}).items())))
            proto = self._memo.get(key)
        except TypeError:  # an unhashable attr: describe it on its own
            key = proto = None
        if proto is None:
            proto = Instruction.unregistered(opcode, rtype, [
                op if isinstance(op, ExternalFunction) else self._undef(op)
                for op in operands], attrs)
            if key is not None:
                self._memo[key] = proto
        return proto

    def of(self, instr: Instruction) -> Instruction:
        return self.make(instr.opcode, instr.type, [
            op if isinstance(op, ExternalFunction) else op.type
            for op in instr.operands
            if not isinstance(op, (BasicBlock, Function))
        ], instr.attrs)

    def charges(self, instr: Instruction) -> Tuple[Instruction, ...]:
        """``instr``'s own ``batch_charges``: its prototype, in the one
        tuple every instruction with that prototype shares."""
        proto = self.of(instr)
        return self._charges.setdefault(proto, (proto,))

    def _undef(self, t: Type) -> UndefValue:
        undef = self._undefs.get(t)
        if undef is None:
            undef = self._undefs[t] = UndefValue(t)
        return undef


def _annotate(instr: Instruction, charges: Tuple[Instruction, ...], mult) -> None:
    """Attach the accounting contract generated code charges from.

    The whole-kernel codegen emitter *specializes on these attrs at
    emission time* —
    ``batch_mult`` ints become literal constants in the generated
    source and lid-tuple multiplicities ``_act.get`` chains over the
    divergent loops' activity counts.  Because the generated code bakes these values in, the
    emission cache is keyed by a batch fingerprint (the ``batched``
    attr plus the annotated-instruction count): re-annotating a
    function with different values must re-emit, not reuse.
    """
    instr.attrs["batch_charges"] = charges
    instr.attrs["batch_mult"] = mult


def _constant_key(c: Constant):
    """Identity of a constant's payload: by value, except float lanes,
    which go by their bits (``0.0 == -0.0``, and NaN equals nothing)."""
    if c.type.elem.is_float:
        return c.type, struct.pack(f"{len(c.value)}d", *c.value)
    return c.type, c.value


# -- the rewrite ---------------------------------------------------------------------


def _instr_reason(instr: Instruction, region: Set[BasicBlock],
                  where: str) -> Optional[str]:
    """Why ``instr`` cannot run B gangs wide in ``region`` (a gang loop, or
    a row tail), judged by its opcode and form alone; ``None`` if it can."""
    op = instr.opcode
    if op in _FORBIDDEN:
        return f"{op} in {where}"
    if op == "mask_any":
        return "mask_any outside a divergent backedge"
    if op == "shuffle":
        index = instr.operands[1]
        if isinstance(index, Instruction) and index.parent in region:
            return "shuffle with a runtime index"
    if op in REDUCE_OPS and instr.operands[0].type.elem.is_float:
        return f"float {op} in {where}"
    if op == "call":
        callee = instr.operands[0]
        if isinstance(callee, Function):
            return f"internal call to @{callee.name} in {where}"
        if not (isinstance(callee, ExternalFunction)
                and callee.name.startswith("ml.")
                and isinstance(instr.type, VectorType)
                and len(callee.name.split(".")) == 4):
            return f"cross-gang-unsafe call to {callee.name}"
    return None


def _atomic_reason(instr: Instruction, per_gang, forms: AffineForms,
                   divergent: bool) -> Optional[str]:
    """Why an ``atomicrmw`` cannot fold its B gangs into one update."""
    t = instr.type
    if not isinstance(t, IntType) or t.bits < 8:
        return f"{t} atomicrmw in gang loop"
    if instr.uses:
        return "atomicrmw result is used in gang loop"
    if forms.delta(instr.operands[0]) != 0:
        return "atomicrmw cell is not gang-invariant"
    value = instr.operands[1]
    if value not in per_gang and forms.delta(value) != 0:
        return "atomicrmw value is gang-affine"
    if divergent:
        return "atomicrmw under a divergent loop"
    return None


# -- serialized atomics --------------------------------------------------------------


class _ScatterAdd(_Parts):
    """A serialized atomic (§4.2.3, the vectorizer's ``_serialize_lanes``):
    lanes ``j = 0..G-1`` in order, each an ``atomicrmw add|sub`` with an
    unused result on ``extractelement addrs, j``, straight-line in
    ``head`` or each in a ``lane.then``/``lane.cont`` diamond on
    ``extractelement mask, j``; a lane's value ``extractelement value,
    j``, or the scalar ``value``.  ``instrs`` are the chain's
    instructions, ``blocks`` its diamonds' blocks but the last
    ``lane.cont``, ``cont``."""

    __slots__ = ("first", "addrs", "value", "mask", "instrs", "blocks",
                 "head", "cont")


def _lane_of(v: Value, region: Set[BasicBlock]) -> tuple:
    """``(vector, lane, inside)`` for an ``extractelement`` at a constant
    lane, outside ``region`` or inside it with one use; else ``(v, None,
    False)``."""
    if (isinstance(v, Instruction) and v.opcode == "extractelement"
            and isinstance(v.operands[1], Constant)
            and (v.parent not in region or len(v.uses) == 1)):
        return v.operands[0], v.operands[1].value, v.parent in region
    return v, None, False


def _match_scatter_add(first: Instruction, region: Set[BasicBlock],
                       gang: int) -> Optional[_ScatterAdd]:
    """The chain whose lane 0 is the atomic ``first``, or ``None``."""
    t = first.type
    addrs, lane, ain = _lane_of(first.operands[0], region)
    value, vlane, vin = _lane_of(first.operands[1], region)
    if not (first.attrs.get("op") in ("add", "sub") and isinstance(t, IntType)
            and t.bits >= 8 and lane == 0 and addrs.type.count == gang
            and (vlane is None or vlane == 0 and value.type.count == gang)):
        return None

    def lane_ok(group: List[Instruction], j: int) -> bool:
        *extracts, atomic = group
        a, v = atomic.operands if atomic.opcode == "atomicrmw" else (0, 0)
        return (not atomic.uses and atomic.attrs == first.attrs
                and atomic.type == t and _lane_of(a, region) == (addrs, j, ain)
                and _lane_of(v, region) == (value, vlane if vlane is None
                                            else j, vin)
                and sorted(extracts, key=id) == sorted([a] * ain + [v] * vin,
                                                       key=id))

    size = 1 + ain + vin
    block = first.parent
    preds = block.predecessors
    test = preds[0].terminator if len(preds) == 1 else None
    mask = None
    if (test is not None and test.opcode == "condbr"
            and test.operands[1] is block and block.terminator.opcode == "br"):
        tested, lane, inside = _lane_of(test.operands[0], region)
        mask = tested if inside and lane == 0 and \
            tested.type.count == gang else None
    if mask is None:  # straight-line: G lane groups in a row
        instrs = block.instructions
        start = instrs.index(first) - size + 1
        chain = instrs[max(start, 0):start + gang * size]
        if not (ain or vin) or len(chain) != gang * size or not all(
                lane_ok(chain[j * size:(j + 1) * size], j)
                for j in range(gang)):
            return None  # (G gang-invariant atomics batch one by one)
        return _ScatterAdd(first=first, addrs=addrs, value=value, mask=None,
                           instrs=chain, blocks=[], head=block, cont=block)
    # Guarded: a test, then_j | cont_j, and cont_j tests lane j + 1.
    head, instrs, blocks, then = test.parent, [test.operands[0], test], [], block
    for j in range(gang):
        cont = test.operands[2]
        if not (then.predecessors == [test.parent] and cont in region
                and len(then.instructions) == size + 1
                and then.terminator.operands[0] is cont and not cont.phis()
                and set(cont.predecessors) == {test.parent, then}
                and lane_ok(then.instructions[:-1], j)):
            return None
        instrs += then.instructions
        blocks.append(then)
        if j + 1 < gang:
            test = cont.terminator
            if not (len(cont.instructions) == 2 and test.opcode == "condbr"
                    and test.operands[0] is cont.instructions[0]
                    and _lane_of(test.operands[0], region)
                    == (mask, j + 1, True)):
                return None
            instrs += cont.instructions
            blocks.append(cont)
            then = test.operands[1]
    return _ScatterAdd(first=first, addrs=addrs, value=value, mask=mask,
                       instrs=instrs, blocks=blocks, head=head, cont=cont)


class _Region(_Parts):
    """What widening needs of a region that passed :func:`_scan_region`:
    its blocks in function order, gang size, batch factor, divergent loops
    and per block their ``chain`` — the lids of the divergent loops around
    it, innermost first, then B (codegen charges by the first lid with a
    live activity count) — its ``per_gang`` scalars, affine ``forms`` and
    serialized atomics (``scatters``)."""

    __slots__ = ("ordered", "gang", "batch", "divergent", "chain",
                 "per_gang", "forms", "scatters")


def _scan_region(function: Function, ordered: List[BasicBlock], gang: int,
                 batch: int, where: str, gl: Optional[_CountedLoop] = None):
    """Why the blocks ``ordered`` cannot run ``batch`` gangs of ``gang``
    lanes wide, judged by the rules a gang loop ``gl`` and a row tail (no
    ``gl``: its rows are the gangs) share, or else their :class:`_Region`.
    In order: every divergent loop inside must be canonical; no op may
    lack a per-gang form (:func:`_instr_reason`) and no value may escape;
    every scalar must have an affine form or be *per-gang* — an integer
    reduction, or computed from one, which the batched region holds as B
    lanes, one per gang — and every scalar phi must be gang-invariant;
    per-gang values, divergent-loop state and atomics must stay where
    they can be batched; and no branch may depend on the gang."""
    region = set(ordered)
    fixed = set() if gl is None else {gl.phi, gl.icmp, gl.condbr, gl.inc}
    divergent: List[_DivergentLoop] = []
    for inner in find_loops(function):
        if ((gl is not None and inner.header is gl.loop.header)
                or inner.header not in region or not inner.blocks <= region):
            continue
        dl, reason = _match_divergent_loop(inner, gang)
        if dl is None:
            return reason
        divergent.append(dl)
        fixed.update((dl.mask_any, dl.condbr))
    chain: Dict[BasicBlock, tuple] = {}
    for block in ordered:
        enclosing = sorted(
            (dl for dl in divergent if block in dl.loop.blocks),
            key=lambda dl: len(dl.loop.blocks),
        )
        chain[block] = tuple(dl.lid for dl in enclosing) + (batch,)
    # A serialized atomic of the gang loop, outside every divergent loop,
    # is one unit: none of its extracts and lane tests is judged alone.
    scatters: List[_ScatterAdd] = []
    for block in ordered if gl is not None else ():
        for instr in block.instructions:
            if instr.opcode == "atomicrmw" and instr not in fixed:
                sa = _match_scatter_add(instr, region, gang)
                if sa is not None and len(chain[sa.head]) == 1:
                    scatters.append(sa)
                    fixed.update(sa.instrs)
    if len(scatters) > 1:
        return "several scatter-adds in gang loop"

    for block in ordered:
        for instr in block.instructions:
            reason = instr not in fixed and _instr_reason(instr, region, where)
            if reason:
                return reason
            for user, _ in instr.uses:
                if user.parent not in region:
                    return f"value escapes the {where}"

    forms = AffineForms(region, None if gl is None else gl.phi, skip=fixed)
    per_gang: Dict[Instruction, None] = {}  # an ordered set
    for block in reverse_postorder(function):
        if block not in region:
            continue
        for instr in block.instructions:
            op = instr.opcode
            t = instr.type
            if (instr in fixed or isinstance(t, VectorType) or t is VOID
                    or op in _ADDRESS_OPERAND):
                continue
            if op == "phi":
                affine = all(forms.delta(v) == 0
                             for v, _ in instr.phi_incoming())
            elif op in REDUCE_OPS or any(o in per_gang for o in instr.operands):
                per_gang[instr] = None
                continue
            else:
                affine = forms(instr) is not None
            if not affine:
                return f"gang-dependent scalar {op} is not affine"
    reason = (_per_gang_reason(per_gang, forms)
              or _loop_state_reason(divergent, ordered))
    if reason is not None:
        return reason
    for sa in scatters:
        if not isinstance(sa.value.type, VectorType) \
                and forms.delta(sa.value) != 0:
            return "atomicrmw value is gang-affine"
    for block in ordered:
        for instr in block.instructions:
            if instr in fixed:
                continue
            if instr.opcode == "atomicrmw":
                reason = _atomic_reason(instr, per_gang, forms,
                                        len(chain[block]) > 1)
                if reason is not None:
                    return reason
            elif (instr.opcode == "condbr"
                    and forms.delta(instr.operands[0]) != 0):
                return "gang-dependent scalar branch"
    return _Region(ordered=ordered, gang=gang, batch=batch,
                   divergent=divergent, chain=chain, per_gang=per_gang,
                   forms=forms, scatters=scatters)


def _mark_divergent(region: _Region) -> None:
    """The activity contract of each divergent loop (see codegen): its
    backedge ``mask_any`` counts the trip's gangs still iterating, and its
    backedge ``condbr`` commits that count for the charges in the loop."""
    for dl in region.divergent:
        dl.mask_any.attrs["batch_activity"] = (dl.lid, region.batch,
                                               region.gang)
        dl.condbr.attrs["batch_backedge"] = (dl.lid, dl.taken_idx)


def _batch_one_loop(function: Function, gl: _CountedLoop, batch: int,
                    module: Module, protos: _Prototypes,
                    nest: Optional["_RowNest"] = None):
    """Batch one matched gang loop in place; returns a rejection reason,
    or on success what its ``batch_applied`` entry adds: each alloca it
    expanded (see :func:`_private_storage`) and its scatter-add.
    Inside a row ``nest`` that collapses, the exit block charges once per
    row and loop-invariant vectors tile before the nest.  All legality
    checks run before any mutation."""
    loop = gl.loop
    gang = gl.step
    loop_blocks = loop.blocks
    ordered = [b for b in function.blocks if b in loop_blocks]

    # ---- legality ------------------------------------------------------------------
    if gl.latch.terminator is None or gl.latch.terminator.opcode != "br":
        return "gang backedge is conditional"
    gang_exiting = [b for b in ordered
                    if any(s not in loop_blocks for s in b.successors)]
    if gang_exiting != [loop.header]:
        return "gang loop has side exits"
    region = _scan_region(function, ordered, gang, batch, "gang loop", gl)
    if isinstance(region, str):
        return region
    forms = region.forms
    private = _private_storage(function, loop_blocks, forms)
    if isinstance(private, str):
        return private
    served = {a for _, _, accesses in private.values() for a in accesses}
    # A scatter-add's cells are known at run time only: codegen checks them
    # against every other access of the trip, from address forms it
    # evaluates in the trip (see "Serialized atomics" above).
    chained = {i for sa in region.scatters for i in sa.instrs}
    if chained and private:
        return "scatter-add beside private storage"
    if chained and any(
            op in _ADDRESS_OPERAND and instr not in chained
            and forms.at_entry(instr.operands[_ADDRESS_OPERAND[op]]) is None
            for block in ordered for instr in block.instructions
            for op in [instr.opcode]):
        return "scatter-add beside an access with no entry form"

    # Memory: strided rows, then one lockstep test over the affine
    # accesses (see "Legality"), and the gathers' pointer roots.
    row_strides: Dict[Instruction, int] = {}
    refs: List[MemRef] = []
    gathers: List[Instruction] = []
    writes: List[Instruction] = []
    known: Dict[Value, object] = {}
    for block in reverse_postorder(function):
        if block not in loop_blocks:
            continue
        looped = len(region.chain[block]) > 1
        for instr in block.instructions:
            op = instr.opcode
            if op not in _ADDRESS_OPERAND or instr in served or instr in chained:
                continue  # private rows; a scatter-add checks at run time
            if op == "gather":
                gathers.append(instr)
                continue
            addr = instr.operands[_ADDRESS_OPERAND[op]]
            if op == "atomicrmw":
                step, bits = 0, (1 << instr.type.size_bytes()) - 1
            else:
                data = instr.type if op == "vload" else instr.operands[0].type
                esize = data.elem.size_bytes()
                row = data.count * esize
                step = forms.delta(addr) * gang  # affine: checked above
                if step != row:
                    if step < row:
                        return (f"{op} rows overlap across gangs (stride"
                                f" {step} below the {row}-byte row)")
                    row_strides[instr] = step
                lanes = _known_lanes(instr.operands[-1], known)
                bits = _lane_bytes(lanes, data.count, esize)
            if op != "vload":
                writes.append(instr)
            base, offset = _footprint_key(forms(addr))
            refs.append(MemRef(base, offset, step, bits, op != "vload",
                               len(refs), looped, op == "atomicrmw"))
    reason = lockstep_conflict(refs, batch) or _gather_reason(gathers, writes)
    if reason is not None:
        return reason

    # ======= point of no return: all checks passed, start mutating ==================

    # ---- annotate originals with narrow charge prototypes --------------------------
    ptype = gl.phi.type
    header_fixed = (gl.phi, gl.icmp, gl.condbr, gl.inc)
    for block in ordered:
        mult = region.chain[block]
        for instr in block.instructions:
            if instr not in header_fixed:
                _annotate(instr, protos.charges(instr), mult)
    # Header bookkeeping executes once per *batched* iteration and charges
    # nothing; the backedge br instead charges the whole per-gang loop
    # overhead — phi copy, bound check, branch out of the header, the
    # induction add, and the backedge itself — once per active gang, and
    # the exit block the last header visit (of every row of a collapsed
    # nest), which reconciles the narrow engine's header accounting
    # exactly.
    for instr in header_fixed:
        _annotate(instr, (), 0)
    overhead = (
        protos.make("br", VOID, ()),
        protos.make("phi", ptype, ()),
        protos.make("icmp", I1, (ptype, ptype), {"pred": "ult"}),
        protos.make("condbr", VOID, (I1,)),
        protos.make("add", ptype, (ptype, ptype)),
    )
    _annotate(gl.latch.terminator, overhead, (batch,))
    _mark_divergent(region)
    for rows, row, accesses in private.values():
        for access in accesses:
            access.attrs["private"] = rows
            access.attrs["row_bytes"] = row

    # ---- rewire: a wider step, and an exit block -----------------------------------
    header = loop.header
    wide = gang * batch
    gl.inc.set_operand(1, Constant(ptype, wide))
    gl.condbr.attrs["batch_trip"] = (gang, batch)
    exit_target = gl.condbr.operands[2]
    done = function.add_block("batch.exit", before=exit_target)
    done.append(Instruction("br", VOID, [exit_target]))
    _annotate(done.terminator, overhead[1:4], ROWS if nest else 1)
    gl.condbr.set_operand(2, done)
    for phi in exit_target.phis():
        for idx in range(1, len(phi.operands), 2):
            if phi.operands[idx] is header:
                phi.set_operand(idx, done)

    _widen(function, module, region, row_strides,
           nest.row.entry if nest else gl.entry)
    function.attrs["batched"] = batch
    return [f" private %{alloca.name} {rows} rows x {row} bytes"
            for alloca, (rows, row, _) in private.items()] + [
        f" scatter-add %{sa.first.name} x{gang} lanes"
        for sa in region.scatters]


def _widen(function: Function, module: Module, region: _Region,
           row_strides: Dict[Instruction, int], tile_block: BasicBlock,
           rows_at_runtime: bool = False) -> None:
    """Widen a ``region`` — a gang loop, or a row tail — ``batch`` gangs
    wide in place (see "Widening", "Per-gang segments" and
    "Memory" in the module docstring); loop-invariant vectors tile once,
    at the end of ``tile_block``.  In a row tail (``rows_at_runtime``)
    every packed access becomes B rows whose stride generated code reads
    from the nest (``segments = B``, ``row_stride = "row"``)."""
    blocks = set(region.ordered)
    batch, gang, per_gang = region.batch, region.gang, region.per_gang
    zero: Tuple[Instruction, ...] = ()
    inserted: Set[Instruction] = set()
    tiles: Dict[Value, Instruction] = {}
    tile_indices: Dict[int, Constant] = {}
    constants: Dict[object, Constant] = {}

    def helper(opcode: str, rtype: Type, operands, stem: str,
               block: BasicBlock, before: Instruction) -> Instruction:
        """A zero-charge instruction inserted before ``before``."""
        ins = Instruction(opcode, rtype, operands,
                          name=function.unique_name(stem))
        _annotate(ins, zero, 0)
        inserted.add(ins)
        block.insert(block.instructions.index(before), ins)
        return ins

    def tile(v: Value) -> Instruction:
        """Widen a loop-invariant c-lane vector once, before the loop."""
        existing = tiles.get(v)
        if existing is not None:
            return existing
        count = v.type.count
        index = tile_indices.get(count)
        if index is None:
            index = tile_indices[count] = Constant.from_canonical(
                VectorType(I32, count * batch), tuple(range(count)) * batch)
        sh = helper("shuffle", VectorType(v.type.elem, count * batch),
                    [v, index], "batch.tile", tile_block, tile_block.terminator)
        tiles[v] = sh
        return sh

    def map_operand(v: Value) -> Optional[Value]:
        """Wide replacement for a narrow vector operand, or None to keep."""
        t = v.type
        if not isinstance(t, VectorType):
            return None
        if isinstance(v, Instruction):
            if v.parent in blocks:
                return None  # widened in place
            return tile(v)
        if isinstance(v, Constant):
            key = _constant_key(v)
            wide_const = constants.get(key)
            if wide_const is None:
                wide_const = constants[key] = Constant.from_canonical(
                    VectorType(t.elem, t.count * batch), v.value * batch)
            return wide_const
        if isinstance(v, UndefValue):
            return UndefValue(VectorType(t.elem, t.count * batch))
        return tile(v)  # vector-typed argument

    def widen_operands(instr: Instruction, first: int = 0,
                       last: Optional[int] = None) -> None:
        for idx, v in enumerate(instr.operands[first:last], first):
            m = map_operand(v)
            if m is not None:
                instr.set_operand(idx, m)

    def lift_operands(instr: Instruction, first: int = 0,
                      last: Optional[int] = None) -> None:
        """Gang-invariant scalar operands of a per-gang op, as B lanes."""
        for idx, v in enumerate(instr.operands[first:last], first):
            if v in per_gang:
                continue
            lanes = VectorType(v.type, batch)
            if isinstance(v, Constant):
                lifted = Constant.from_canonical(lanes, (v.value,) * batch)
            else:
                lifted = helper("broadcast", lanes, [v], "batch.lift",
                                instr.parent, instr)
            instr.set_operand(idx, lifted)

    for sa in region.scatters:
        wide = _widen_scatter_add(function, sa, region.chain[sa.head], batch)
        inserted.add(wide)
        widen_operands(wide)

    for block in region.ordered:
        for instr in list(block.instructions):
            if instr in inserted:
                continue
            op = instr.opcode
            t = instr.type

            if instr in per_gang:
                # One lane per gang: a segmented reduction, or a lane-wise
                # integer op over per-gang values.
                instr.type = VectorType(t, batch)
                if op in REDUCE_OPS:
                    instr.attrs["segments"] = batch
                    widen_operands(instr, 0, 1)
                else:
                    lift_operands(instr)
                continue

            if op == "atomicrmw":
                instr.attrs["segments"] = batch
                lift_operands(instr, 1, 2)
                continue

            if op == "broadcast":
                scalar = instr.operands[0]
                instr.type = VectorType(t.elem, t.count * batch)
                if scalar in per_gang:
                    instr.attrs["segments"] = batch
                    continue
                d = region.forms.delta(scalar) or 0
                if d:
                    # Gang k's scalar is offset by k·δ·G from gang 0's;
                    # add the per-gang offset blocks.
                    offsets = Constant(instr.type, tuple(
                        k * d * gang for k in range(batch) for _ in range(t.count)))
                    after = block.instructions[block.instructions.index(instr) + 1]
                    adjusted = helper("add", instr.type, [instr, offsets],
                                      "batch.off", block, after)
                    for user, idx in list(instr.uses):
                        if user is not adjusted and isinstance(user, Instruction):
                            user.set_operand(idx, adjusted)
                continue

            if op == "shuffle":
                # The narrow constant index applies within each gang.
                instr.attrs["segments"] = batch
                instr.type = VectorType(t.elem, t.count * batch)
                widen_operands(instr, 0, 1)
                continue

            if op == "call":
                callee = instr.operands[0]
                parts = callee.name.split(".")  # ml.<flavour>.<fn>.<fN>x<G>
                wide_ext = vector_math_external(
                    module, parts[2], callee.ftype.ret.elem, t.count * batch,
                    parts[1]
                )
                instr.set_operand(0, wide_ext)
                instr.type = VectorType(t.elem, t.count * batch)
                widen_operands(instr, 1)
                continue

            # Generic elementwise / vload / vstore / sad / mask_any / phi /
            # condbr path.
            stride = row_strides.get(instr)
            if stride is not None:
                instr.attrs["segments"] = batch
                instr.attrs["row_stride"] = stride
            elif rows_at_runtime and op in ("vload", "vstore"):
                instr.attrs["segments"] = batch
                instr.attrs["row_stride"] = "row"
            if isinstance(t, VectorType):
                instr.type = VectorType(t.elem, t.count * batch)
            widen_operands(instr)


def _widen_scatter_add(function: Function, sa: _ScatterAdd, mult: tuple,
                       batch: int) -> Instruction:
    """Replace a serialized atomic by one batched-only ``atomicrmw`` on the
    ``G·B``-lane address vector (``segments = B``), the value vector or
    the scalar, and a guarded chain's mask; returns it.  It charges the
    chain's narrow prototypes, already annotated: a straight-line chain's
    once per gang of the trip; a guarded chain's lane tests so too, on the
    ``br`` out of the ``batch.scatter`` block that replaces its diamonds,
    and lane 0's ``lane.then`` once per active lane (``LANES``)."""
    def charges(instrs) -> Tuple[Instruction, ...]:
        return tuple(p for i in instrs for p in i.attrs["batch_charges"])

    attrs = {k: v for k, v in sa.first.attrs.items() if k in ("op", "ordering")}
    wide = Instruction("atomicrmw", VOID, [sa.addrs, sa.value] + (
        [sa.mask] if sa.mask is not None else []),
                       attrs=dict(attrs, segments=batch))
    if sa.mask is None:
        _annotate(wide, charges(sa.instrs), mult)
        sa.head.insert(sa.head.instructions.index(sa.instrs[0]), wide)
    else:
        _annotate(wide, charges(sa.blocks[0].instructions), LANES)
        block = function.add_block("batch.scatter", before=sa.blocks[0])
        block.append(wide)
        block.append(Instruction("br", VOID, [sa.cont]))
        _annotate(block.terminator, charges(
            i for i in sa.instrs if i.parent not in sa.blocks[::2]), mult)
    for instr in reversed(sa.instrs):
        instr.erase()
    for dead in sa.blocks:
        function.remove_block(dead)
    if sa.mask is not None:
        sa.head.append(Instruction("br", VOID, [block]))
        _annotate(sa.head.terminator, (), 0)
    return wide


# -- row nests -----------------------------------------------------------------------

#: The multiplicity spec of a row nest's outer blocks (and of its gang
#: loop's exit block): the rows the outer trip runs.
ROWS = "rows"

#: The multiplicity spec of a guarded scatter-add's lane work: the active
#: lanes of its mask in the trip, which codegen counts where it runs.
LANES = "lanes"


class _RowNest(_Parts):
    """A row loop around a gang loop (see "Row nests" in the module
    docstring): the counted ``row`` loop, the prologue, tail check, tail
    and latch blocks, and the tail as a :class:`_Region`."""

    __slots__ = ("row", "prologue", "tailcheck", "tail", "latch")


def _dead_phi(phi: Instruction) -> bool:
    """Nothing observes ``phi``: its uses, followed through phis, end in
    phis (stencil's ``row`` is declared in the row loop and never read)."""
    seen, work = {phi}, [phi]
    while work:
        for user, _ in work.pop().uses:
            if user.opcode != "phi":
                return False
            if user not in seen:
                seen.add(user)
                work.append(user)
    return True


def _match_row_nest(function: Function, gl: _CountedLoop, batch: int):
    """The row loop around ``gl`` as a :class:`_RowNest`, or why it cannot
    collapse into the gang trip.  Runs before any mutation."""
    outer = gl.loop.parent
    blocks = outer.blocks
    header = outer.header
    if len(outer.latches) != 1 or outer.exiting_blocks() != [header]:
        return "row loop has several latches or exits"
    latch = outer.latches[0]
    row = _match_counted_loop(outer)
    if (row is None or row.step != 1 or row.phi.type != I64
            or row.inc.parent is not latch):
        return "row loop is not a counted step-1 loop"
    y = row.phi
    if any(phi is not y and not _dead_phi(phi) for phi in header.phis()):
        return "row loop carries scalar state"
    if latch.instructions != [row.inc, latch.terminator]:
        return "row latch does more than step the row index"

    # Shape: prologue -> gang loop -> tail check -> tail -> latch.
    prologue: List[BasicBlock] = []
    block = row.condbr.operands[1]
    while block is not gl.loop.header:
        if (block in prologue or block.phis() or len(block.successors) != 1
                or block.terminator.opcode != "br"):
            return "row prologue is not straight-line"
        prologue.append(block)
        block = block.successors[0]
    if not prologue or prologue[-1] is not gl.entry:
        return "row prologue is not straight-line"
    if not _invariant(gl.icmp.operands[1], blocks):
        return "thread count varies by row"
    check = gl.condbr.operands[2]
    tailcheck, tail = None, []
    if check is not latch:
        cterm = check.terminator
        if (len(check.instructions) != 1 or cterm.opcode != "condbr"
                or latch not in cterm.operands[1:]):
            return "row loop body after the gang loop is not a tail check"
        if not _invariant(cterm.operands[0], blocks):
            return "thread count varies by row"
        tailcheck = check
        work = [s for s in cterm.operands[1:] if s is not latch]
        while work:
            block = work.pop()
            if block in tail or block is latch:
                continue
            if block not in blocks or block is header or block in gl.loop.blocks:
                return "row tail leaves the row loop"
            tail.append(block)
            work += block.successors
    parts = {header, latch, *prologue, *gl.loop.blocks, *tail}
    if tailcheck is not None:
        parts.add(tailcheck)
    if parts != blocks:
        return "row loop body has blocks outside the gang loop and its tail"
    if any(i.opcode == "alloca" for i in function.instructions()):
        return "private storage in a row nest"

    # The row index may reach only affine scalars, the addresses of
    # accesses and the prologue's stored values; every access address
    # must have a form codegen can evaluate at nest entry (the no-alias
    # check reads it).
    forms = AffineForms(blocks, gl.phi, y)
    in_prologue = {i for b in prologue for i in b.instructions}
    dependent: Set[Value] = {y}  # the scalars computed from the row index
    work = [y]
    while work:
        for user, _ in work.pop().uses:
            if (user not in dependent and user.parent in blocks
                    and user.parent is not header
                    and user.opcode not in _ADDRESS_OPERAND
                    and not isinstance(user.type, VectorType)):
                dependent.add(user)
                work.append(user)
    for block in [b for b in function.blocks if b in blocks]:
        for instr in block.instructions:
            op = instr.opcode
            if instr in in_prologue:
                if isinstance(instr.type, VectorType):
                    return "row prologue computes a vector"
                if op in ("call", "alloca") or (
                        op in _ADDRESS_OPERAND and op != "store"):
                    return f"{op} in a row prologue"
                if op not in ("store", "br") and forms.at_entry(instr) is None:
                    return "row prologue scalar not affine in the row index"
            if op in ("gather", "scatter", "extractelement"):
                # (an extractelement: a serialized atomic's, which batches
                # in its own gang loop only)
                return f"{op} in a row nest"
            if op in _ADDRESS_OPERAND and forms.at_entry(
                    instr.operands[_ADDRESS_OPERAND[op]]) is None:
                return "row nest address not affine in the row index"
            if instr in (row.icmp, row.inc) or (
                    op == "phi" and instr.parent is header):
                continue  # the loop's own test and step, and dead phis
            for idx, o in enumerate(instr.operands):
                if o not in dependent:
                    continue
                if _ADDRESS_OPERAND.get(op) == idx or instr in in_prologue:
                    continue  # an address, or a prologue value (checked above)
                if instr in dependent:
                    if forms.at_entry(instr) is None:
                        return (f"row-dependent scalar {op} is not affine in"
                                " the row index")
                    continue
                return f"row index reaches {_PER_GANG_SINKS.get(op, op)}"

    # The tail runs its R rows as one trip of R gangs: the gang loop's
    # rules, with the row as the gang.
    tail = _scan_region(function, [b for b in function.blocks if b in tail],
                        gl.step, batch, "row tail")
    if isinstance(tail, str):
        return tail
    return _RowNest(row=row, prologue=prologue, tailcheck=tailcheck,
                    tail=tail, latch=latch)


def _collapse(function: Function, nest: _RowNest, gl: _CountedLoop,
              batch: int, module: Module, protos: _Prototypes) -> None:
    """Collapse a legal row nest whose gang loop is already batched: the
    outer blocks charge once per row of the outer trip, and the tail
    widens into one trip of B row slots."""
    outer = [nest.row.loop.header, *nest.prologue, nest.latch]
    if nest.tailcheck is not None:
        outer.append(nest.tailcheck)
        nest.tailcheck.terminator.attrs["row_tail"] = batch
    for block in outer:
        for instr in block.instructions:
            _annotate(instr, protos.charges(instr), ROWS)
    tail = nest.tail
    for block in tail.ordered:
        for instr in block.instructions:
            _annotate(instr, protos.charges(instr), tail.chain[block])
    _mark_divergent(tail)
    _widen(function, module, tail, {}, nest.row.entry, rows_at_runtime=True)
    nest.row.condbr.attrs["row_nest"] = (gl.step, batch)


def batch_module(module: Module, requested: Optional[int] = None) -> BatchReport:
    """Batch every legal gang loop in ``module`` in place, collapsing the
    row loop around it when that is legal too.

    Returns a :class:`BatchReport`.  Mutation happens only for loops that
    pass every legality check; when anything was applied the caller
    leaves the recipe for the unbatched build in
    ``module.attrs["unbatched_recipe"]`` (see :func:`unbatched_twin`).  A
    row loop that cannot collapse is reported in ``rejected`` with its
    reason; its gang loop may still batch on its own.
    """
    module.require_mutable("batch_module")
    applied: List[str] = []
    rejected: List[Tuple[str, str, str]] = []
    factor = 1
    protos = _Prototypes()
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
            if gl.step & (gl.step - 1):
                # suggest_batch_factor returns 1 for these; surface the
                # silent no-batch path as an observable rejection.
                rejected.append((function.name, gl.loop.header.name,
                                 f"non-power-of-two gang size {gl.step}"))
                continue
            b = select_batch_factor(gl.step, requested)
            if b < 2:
                rejected.append((function.name, gl.loop.header.name,
                                 "gang already at the lane target"))
                continue
            nest = None
            if gl.loop.parent is not None:
                nest = _match_row_nest(function, gl, b)
                if isinstance(nest, str):
                    rejected.append((function.name,
                                     gl.loop.parent.header.name, nest))
                    nest = None
            result = _batch_one_loop(function, gl, b, module, protos, nest)
            if isinstance(result, str):
                rejected.append((function.name, gl.loop.header.name, result))
                continue
            entry = f"{function.name}:{gl.loop.header.name}" + "".join(result)
            if nest is not None:
                _collapse(function, nest, gl, b, module, protos)
                bound = gl.icmp.operands[1]
                count = bound.value if isinstance(bound, Constant) \
                    else f"%{bound.name}"
                entry += (f" rows of {nest.row.loop.header.name}:"
                          f" P = {count} / {gl.step} gangs per row")
            applied.append(entry)
            factor = max(factor, b)
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
    """The unbatched twin of a batched ``module`` — what the reference
    engine runs in its place — or ``None`` when it is not batched.

    ``module.attrs["unbatched_recipe"]`` is a picklable callable returning
    the same compile with batching off.  It runs on the first call — a
    launch that left generated code — and the frozen result hangs off
    ``module`` itself: it takes no compile-cache slot, dies with the
    module, and is neither cloned nor pickled with it.
    """
    twin = module._unbatched_twin
    if twin is None:
        recipe = module.attrs.get("unbatched_recipe")
        if recipe is not None:
            if faultinject.active():
                # A run under armed fault plans builds the spec it runs
                # on: suspend the plans, or a compile-site fault would
                # degrade the twin.
                with faultinject.inject():
                    twin = recipe()
            else:
                twin = recipe()
            twin = module._unbatched_twin = twin.freeze()
    return twin
