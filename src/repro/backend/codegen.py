"""Whole-kernel codegen: one generated Python function per IR function.

The default engine of the two-engine VM (codegen, with the reference
engine behind it — see :mod:`repro.vm.interp`) and the only module in
the tree that generates source and calls ``compile()`` on it.  The
reference engine pays an opcode-string dispatch per instruction and an
``env`` lookup per operand.  This module retires that loop — on a
function's first launch it *linearizes* the function's structurized CFG
into a single generated Python function over the live payloads.  A
launch leaves generated code one way: a trap, a failed range test or
zero-charge check, or a function it has no code for rolls the launch
back and replays it whole on the reference engine (a batched module's on
its unbatched twin — batched IR runs nowhere else):

* every SSA value becomes a Python local (``v7``), so the per-value
  ``env`` dict disappears along with its reads and writes;
* natural loops become native ``while True:`` loops whose exit edges
  lower to ``break`` — for vectorized divergent loops the loop condition
  is the ``mask_any`` lane-mask reduction, i.e. the classic
  ``while mask.any():`` shape — and backedges lower to a parallel phi
  assignment plus ``continue``.  Loops with **several distinct exit
  targets** (early ``return`` under a serial loop, multi-level
  ``break``/``continue``) lower through a *dispatch-variable exit
  merge*: each exiting edge records a small integer before ``break`` and
  an ``if``/``elif`` chain after the loop resumes the right
  continuation, unwinding one Python loop level at a time;
* forward branches lower to ``if``/``else`` on the (already
  mask-converted) scalar condition, with the structural join computed
  from the immediate postdominator.  A trailing single-use scalar
  compare or mask reduction feeding the ``condbr`` folds straight into
  the ``if`` header instead of materializing a 0/1 local;
* what the emitter already knows is computed once, at emit time (see
  "Emit-time folding" below), not on every launch;
* hot scalar ops inline to raw Python expressions
  (:meth:`_Emitter._scalar_expr` — inlined f32 rounding, literal int
  masks, XOR-sign-bit signed compares and sign extension) and vector ops
  to raw numpy expressions (``v34 * v34`` instead of an impl-closure
  call) that do only what the instruction means: an ordered ``fcmp``
  is the bare operator (numpy's is False on NaN; only ``one`` keeps a
  NaN mask), ``fptosi``/``fptoui`` the ``trunc → int64 → width``
  chain (to 64-bit lanes :func:`~repro.vm.ops.float_lanes_to_int64`,
  exact past 2**63), and a signed read of 8–64-bit lanes a ``.view`` of
  a dtype hoisted at emit time (a known operand hoisted already
  signed);
  everything else calls the instruction's
  :func:`~repro.vm.ops.value_impl`, resolved at emit time.  A body that
  contains a float or an integer-division op runs
  under a saved/restored ``np.seterr(all="ignore")`` so the inlined
  forms match the impls' per-call ``errstate`` guards; an integer-only
  kernel can raise no floating-point flag and gets no ``seterr`` pair;
* memory accesses are specialized at emit time (see "Memory access"
  and "Views" below): dtype, byte count and — when the mask is known —
  which lanes the access needs are resolved by the emitter, and the
  in-bounds case runs inline against the interpreter's buffer;
* gang-batched blocks charge what the unbatched build would (see
  "Accounting contract"); a divergent loop's activity counts live in
  the ``_act``/``_pend`` dicts, keyed by loop id, which only a function
  with a divergent loop in a batched region sets up; the batch factor,
  gang width and mask reshape are emitted as literals;
* a batched gang loop (its header ``condbr`` carries ``batch_trip``)
  sets ``_r``, the gangs the trip runs, and ``_n = _r·G``, its live
  lanes, on entering each trip.  The last trip may run fewer than B —
  the *predicated trip* — and every value a trip makes is as wide as
  its live gangs: loads build ``_n`` lanes (``(_r, width)`` slots of a
  row-strided access), broadcasts and lane ids take ``_n``, per-gang
  segments reshape by rows of a gang's width, and activity counts and
  atomic folds see ``_r`` gangs.  What a trip reads but does not compute — a
  constant, a folded value, a tile of a value defined before the loop,
  an expanded alloca's rows — it reads through a view bound at its
  width whenever ``_r`` changes (:class:`_Trip`); a tile is built at
  that width straight from its source (:meth:`_Emitter._tile`).  No
  dead gang is computed, loaded, bounds-checked or stored.  Accesses to
  an alloca expanded per gang (``private`` rows) use a ``(rows, G·B)``
  array and per-trip row flags instead of VM memory
  (:meth:`_Emitter._emit_private`), written back at the gang backedge
  (:func:`_private_writeback`);
* a collapsed row nest (its header ``condbr`` carries ``row_nest``)
  computes its accesses' row strides and ``_Rn``, the rows per outer
  trip, at entry (:meth:`_Emitter._emit_nest_entry`, with the no-alias
  check :func:`_rows_disjoint`); each outer trip runs ``_R`` rows, its
  gang loop trips ``_g`` gangs of each (``_r = _R * _g``) and its tail one
  gang per row (``_g = 1``, ``_r = _R``).  Packed accesses in those trips
  are ``(_R, _g, lanes)`` views (see "Views"); prologue stores and
  per-row atomics update ``_R`` cells a row stride apart as one strided
  view (:func:`_store_rows`, :func:`_rmw_rows`; ``smin``/``smax`` on its
  signed view);
* a scatter-add (a batched serialized atomic) is one ``np.add.at`` per
  trip behind a zero-charge check of its cells against the trip's other
  accesses (:func:`_scatter_add`); a failed check replays the launch on
  the unbatched twin.

Accounting contract
-------------------

``ExecStats`` stays bit-identical to the reference engine running the
unbatched build for every run that completes, and the trap-replay
protocol covers the rest:

* a block's charges are a **static histogram of its IR**, each
  instruction's :func:`~repro.backend.costmodel.charge_items` — the
  items the reference engine charges one by one: what the
  emitter folded, inlined or left to an impl never enters it, so an
  instruction whose value is known at emit time (and emits no line) is
  charged exactly like one that runs.  A batched multiplicity that is a
  literal (``(4,)``: outside every divergent loop) multiplies in at emit
  time; only a divergent one is resolved at run time;
* all charges of one basic block merge into a single prologue, and the
  accumulators themselves are **function-local**: cycles (``_cy``),
  instructions (``_ni``), and one integer local per distinct counter key
  (``_k0``…) accumulate in plain Python locals and flush into
  ``ExecStats`` once, in the function's ``finally``.  Cycle costs are
  dyadic rationals well inside float53, so the locally-accumulated sums
  are bit-identical to the reference engine's sequential accumulation
  under *any* association;
  instruction and opcode counts are integers and commute.  Counter keys
  flush only when nonzero, so a key the reference engine never created
  never appears.  Around an internal call the accumulators flush and
  reset (the callee charges ``ExecStats`` directly), and the budget
  headroom re-derives;
* batched blocks execute up to B gangs per step, and charge what those
  gangs cost unbatched.  ``repro.backend.batch`` gives each annotated
  instruction narrow charge prototypes (``batch_charges``, read through
  :func:`batch_charge_items`) and a multiplicity spec (``batch_mult``):
  how many unbatched executions one batched step stands for.  A spec is
  an int (header bookkeeping ×0, the exit block's last header visit ×1),
  ``"rows"`` (a collapsed row nest's outer blocks and gang-loop exit: the
  rows of the outer trip, ``_R``), ``"lanes"`` (a masked scatter-add's
  lane work: the active lanes of its mask in the trip), or a tuple of
  divergent-loop ids ending in the static B, which inside
  the gang loop stands for ``_r``; the first id with a live activity
  count wins, so code under a divergent loop charges once per gang that
  would still be iterating unbatched.  A loop's
  pending count (its ``batch_activity`` ``mask_any``: the gangs with an
  active lane, ``_pend[lid]``, a Python int — no lane count comes back
  from numpy unwrapped) commits at its ``batch_backedge``
  (``_act[lid]``) and drops at its exit.
  Charges fold like plain ones, grouped by spec: static multiplicities
  fold at emit time, divergent ones resolve through ``_act.get`` chains
  (activity is constant within a block — it only changes at backedge
  commits).  Prefix sums of the unbatched charge
  sequence are a superset of the batched ones — in a collapsed row nest
  the charges of an outer trip's R rows run ahead of the unbatched order
  but never past its total for those rows — so a budget crossing
  happens here iff the unbatched build traps, and the replay reproduces
  its exact trap point;
* the per-block budget check compares ``_ni`` against the headroom
  ``_rem = max_instructions - stats.instructions`` captured at entry
  (and after each internal call), which is exactly the reference
  engine's ``instructions > limit`` predicate; the counter is monotone
  and every charging block checks, so any reference-engine budget
  crossing fires a (possibly later) check here, and a check here never
  fires unless the reference engine crossed first;
* a trap's exact trap-point stats, message, and memory effects come from
  the **replay**: the codegen engine only ever runs under
  :meth:`Interpreter._run_replayable`, which snapshots memory + stats,
  rolls back on any ``VMTrap``/``MemoryError_``/``_Replay`` (including
  the partial flush the ``finally`` performed on the way out), and
  re-runs on the reference engine (``codegen=False``; a batched module's
  unbatched twin), whose outcome is authoritative.  The interpreter arms the
  codegen engine *only* inside that wrapper, so fault-injected runs
  (which skip the wrapper) run on the reference engine.

Bailouts
--------

Emission either returns the bound callable or fails with a reason
(:func:`lower_function`): a :class:`CodegenBailout` — one site,
``function-too-large``, above :data:`MAX_CODEGEN_INSTRS` — or
``error:<type>`` for any exception the emitter, ``compile()`` or binding
raises (19 nested loops exceed the 20 statically nested blocks CPython's
``compile()`` takes: ``error:SyntaxError``).  What the IR verifier, the
IR builder or :mod:`repro.backend.batch` already rules out — a block
without a terminator, an unknown opcode, irreducible control flow, a
batch annotation outside its loop — has no reason of its own: a plain
``assert`` (or the error the IR would cause) lands in the same handler.
The code cache memoizes a failure like code; the interpreter
counts the reason (``vm.codegen.bailouts``), replays the launch on the
reference engine and runs its later launches there outright.

Emit-time folding
-----------------

The emitter keeps a map of SSA values whose payload it knows
(:attr:`_Emitter.known`): IR ``Constant`` s, and any ``COMPUTE_OPS``
instruction all of whose operands are known.  Such an instruction is
evaluated once, with its own :func:`~repro.vm.ops.value_impl` — the one
resolver that defines every compute opcode for both engines,
``constant_fold`` and gang batching — under ``errstate(all="ignore")``;
the result is hoisted read-only (every launch shares it) and no line is
emitted.  An evaluation that raises is
not folded: the instruction is emitted as usual and raises at run time,
where the replay gives the trap its authoritative text.  Knownness is
decided from the IR alone; a payload is only built for a constant that
ends up hoisted or folded with, once per distinct constant.

On top of the map: a ``shuffle`` with a known index binds the
precomputed ``intp`` selector; a ``gep`` with a known index adds a
literal byte offset; ``extractelement`` with a known index reads a
literal lane; a packed access with a known mask resolves which lanes it
needs (below).  And where several host primitives compute the same
value the emitter picks the cheapest once: ``count_nonzero`` (the C
function, :mod:`repro.vm.nputil`) for ``mask_any``/``mask_all``/
``mask_popcnt`` and folded branch conditions, ``empty`` + ``fill`` for
``broadcast`` (``np.full`` for 64-bit integer lanes, whose ``fill``
rejects Python ints >= 2**63 on some numpy versions), no sign extension
for a 64-bit ``gep`` index (identity modulo 2**64), ``(old OP x) &
MASK`` for integer ``atomicrmw add/sub/and/or/xor``, and the live view
instead of a ``.copy()`` for a loaded slice whose only use is an
``.astype`` cast.

The first body line of every generated source is a comment —
``# folded=N inline=N slow=N hoisted: kind=N ...``, with ``windows=N``
after ``slow=`` when window groups run as one view and ``gathers=N``
for the inline gathers (``slow``: the accesses that always call
``Memory``) — that
``examples/fig5_report.py --dump-codegen KERNEL`` reads back.

Memory access
-------------

Every access with an inline form is one range test and the access
itself; whatever the test rejects leaves generated code (see "One way
out" below).  For ``load``/``store``/``atomicrmw`` the emitter resolves
the cell's ``struct`` format from the IR type: ``unpack_from``/
``pack_into`` on the byte buffer under ``16 <= addr and end <=
len(_mem.data)``.  A gather (:meth:`_Emitter._emit_gather`) reads its
active lanes as one index of the typed lane view, ``_w[_x >> shift]``,
behind one range test over their addresses — at or above the NULL page,
inside the view, aligned — into ``zeros`` at the active lanes (every
lane active: the index itself); no active lane is ``zeros``, the
addresses never validated.  A collapsed nest's per-row cells are one
strided view behind the same test (:func:`_row_cells`).  Where no inline
form exists generated code calls ``Memory``: i1 cells
(``load_scalar``/``store_scalar``) and i1 gathers, every plain scatter
(under a known all-true mask with ``None`` for it) and ``alloc``.
``Memory`` owns trap text, lane order, trap-before-any-write, growth and
the ``faultinject`` hook; the inline paths skip the hook: generated code
runs only under ``Interpreter._run_replayable``, which ``Interpreter.run``
never enters while a fault plan is armed.

Views
-----

The paper sorts every vector access by its address shape (§4.2.2–4.2.3):
packed, bounded-stride (a packed load/store plus shuffles) or
gather/scatter.  In generated code every ``vload``/``vstore`` that is not
to private storage is one *view*: ``(rows, gangs, lanes)`` slots with
byte strides ``(ρ, Δ, s·esize)`` — a collapsed row nest's ``_R`` rows ρ
apart, a trip's ``_g`` (flat: ``_r``) gangs Δ apart, lanes ``s``
elements apart; outside a trip, one slot.  A packed access is a window
of one access (``k = 1``, ``s = 1``, :meth:`_Emitter._packed_view`).

*Window groups.*  The vectorizer lowers a bounded-stride access as ``k``
packed accesses ``G`` lanes apart plus shuffles and selects
(:meth:`_Emitter._load_window`, :meth:`_Emitter._store_window` give the
shapes).  Before emission :meth:`_Emitter._find_windows` recognises such
a group from the IR alone when lane ``l`` sits at position ``s·l``, ``s
>= 2``, and no other memory access or call lies among its instructions;
it runs where its first access stood, and what it absorbs emits nothing
(what a row nest's entry reads stays) but is still charged.  Other
selectors (Reorder's ``x ^ 1``) keep their packed accesses and shuffles.

*One emitter* (:meth:`_Emitter._view_code`) picks the form from what it
knows at emit time.  Lanes in one evenly spaced run — no trip, or a flat
trip of contiguous gangs — are a slice of the typed lane view,
``_w[_i:_i + n(:s)]``, behind a range test in lanes and the alignment
bit; any other view is ``ndarray((rows, gangs, lanes), dt, _d, addr, (ρ,
Δ, s·esize))`` behind a range test in bytes.  A mask known at emit time
and the same in every gang decides ``needed``, one past each slot's last
active lane (bounds are only required up to there, as in
:class:`~repro.vm.memory.Memory`), and holes below it — in a contiguous
trip also each gang's lanes past ``needed`` — become
``copyto(where=KEEP)``; no active lane is ``zeros`` / nothing, the
address never validated.  A runtime mask with every lane set takes the
static form; otherwise a load zeroes the inactive lanes
(``copyto(where=mask)`` into ``zeros``) and a store writes the active
ones and raises the extent to the end of its highest active lane
(:func:`_last_lane_end` for slots, whose windows may interleave), as
the IR's stores do; a row tail's gangs are partial, so there the first
arm is left out.  In a trip,
a window load whose value only a window store of its block writes, with
no other memory access or call between them, runs with it
(:meth:`_Emitter._emit_copy`): the store's view is assigned from the
load's (BgraToBgr's channels).

One way out
-----------

A view's range test covers every byte the IR's accesses would validate
(a window load's each window's last needed lane, a store under a runtime
mask its ``k`` windows whole); a gather's, a cell's and a row's cells'
cover theirs.  Whatever a test rejects — the NULL page, past the end,
past the physical buffer, a misaligned slice or lane, inactive lanes
hanging off memory — raises ``_Replay`` before the access writes
anything, and the launch replays on the reference engine exactly as
after a trap: ``Memory`` validates, grows and raises the extent there,
and trap text and trap-point stats are the replay's.  A valid program
whose access the test rejects (misaligned, or its inactive tail lanes
past the end of memory) pays for that launch on the reference engine; no
benchmark input does (``examples/perf_smoke.py`` requires zero replays
of every fig4 and fig5 build).

Caching and ownership
---------------------

A generated function is a pure function of *(function IR, machine, cost
model)*: it takes the interpreter as its first argument and reads
``stats``, ``memory``, ``max_instructions`` — and, when it makes
internal calls, ``_exec_function`` and each callee *by name* from
``_interp.module`` — in the prologue; everything else — payloads,
impls, dtypes — binds once, at ``exec`` time, through default
arguments.  So a bound callable references no interpreter and no IR
object, and one emission serves every interpreter over every module
with the same IR.

The driver stamps each module it freezes with its compile key
(``Module.fingerprint``), which fixes the IR (the golden IR digests pin
that).  :func:`lower_function` memoizes its outcome — ``(source, kfn)``
or the bailout reason — in one bounded process-wide LRU
(:data:`CODE_CACHE_ENTRIES`) under ``(fingerprint, function name,
machine, cost model)``: a kernel compiled again, whether it is the
cached module or a recompile after the compile cache evicted it, emits,
compiles and binds nothing.  A module without a fingerprint (hand-built
IR, a fault-plan build, the unbatched twin) is emitted and compiled
afresh for every interpreter, which memoizes it until
``Interpreter.clear_decode_cache``.  Interpreters own only stats and
memory.

Only a miss emits; its source goes to :mod:`repro.diskcache`
(``store_code``/``load_code``, keyed by the source) before
``compile()``.  Each source compiles under its own filename,
``<repro-vm-codegen:NAME:DIGEST8>``, registered with :mod:`linecache`
for as long as a function bound from it lives (cached or not), so
profiles name the kernel and tracebacks show the emitted line.
"""

from __future__ import annotations

import hashlib
import linecache
import struct
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import diskcache
from ..ir.cfg import Loop, find_loops, postdominators
from .batch import (GANG, LANES, ONE, ROW, ROWS, AffineForms,
                    row_dependent, row_monomial)
from .costmodel import charge_items
from ..ir.instructions import (
    FLOAT_BINOPS,
    Instruction,
    REDUCE_OPS,
)
from ..ir.module import BasicBlock, ExternalFunction, Function
from ..ir.types import FloatType, IntType, VectorType
from ..ir.values import Constant, UndefValue, Value
from ..vm.interp import (
    ExecutionLimitExceeded,
    _Replay,
    _constant_payload,
    _undef_payload,
)
from ..vm.memory import LANE_DTYPES, NULL_GUARD
from ..vm.nputil import (
    count_nonzero,
    elem_dtype,
    signed_dtype,
    signed_view,
    to_signed,
)
from ..vm.ops import (
    COMPUTE_OPS,
    VEC_CAST_ASTYPE,
    VMTrap,
    _c_float,
    float_lanes_to_int64,
    fold_lanes,
    reduce_segments,
    scalar_binop_impl,
    shuffle_segments,
    value_impl,
)

__all__ = ["CodegenBailout", "lower_function", "generated_source",
           "compiled_code", "clear_code_cache"]

#: Emission refuses functions above this static instruction count — the
#: generated source would dwarf the dispatch win and slow ``compile()``.
MAX_CODEGEN_INSTRS = 8000

#: Marker line expanded into an accumulator flush+reset in :meth:`emit`
#: (the full set of counter locals is only known once emission finishes).
_FLUSH = "\x00flush"

#: Most lowered functions the process keeps at once.  The whole fig4 +
#: fig5 suite, batched and unbatched, is under 200 functions.
CODE_CACHE_ENTRIES = 512

#: ``(module fingerprint, function name, machine, cost model)`` → the
#: outcome of lowering that function: ``(source, bound kfn)``, or the
#: bailout reason; least recently used first.  A bound ``kfn`` references
#: no IR, so every module with that fingerprint shares it.
_CODE_CACHE: "OrderedDict[tuple, object]" = OrderedDict()

_MEMORY_OPS = frozenset(
    ("load", "store", "vload", "vstore", "gather", "scatter",
     "alloca", "atomicrmw")
)

#: Lane dtype → index into ``Memory.lanes``.
_LANE_INDEX = {dtype: i for i, dtype in enumerate(LANE_DTYPES)}

#: Memory-cell dtype → ``struct`` format of the inline scalar access
#: (``=``: native byte order, as the numpy views ``Memory`` reads cells
#: through).  i1 cells stay on ``Memory.load_scalar``/``store_scalar``
#: (a bool cell reads any nonzero byte as 1, which no struct format does).
_CELL_FORMAT = {"u1": "=B", "u2": "=H", "u4": "=I", "u8": "=Q",
                "f4": "=f", "f8": "=d"}

#: Vector-op inline templates.  Each form must be bit-identical to the
#: corresponding ops.py impl *under* ``np.seterr(all="ignore")`` — a
#: generated function that can raise a floating-point flag at all
#: (:data:`_FP_FLAG_OPS`) installs that errstate for its whole body, exactly
#: covering the per-call ``errstate`` guards the impls carry.
_VEC_FBIN = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}
_VEC_IBIN = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
#: i1 lanes are numpy bools: arithmetic degenerates to bitwise forms
#: (mirrors ops._vector_bool_binop).
_VEC_BBIN = {"and": "&", "umin": "&", "mul": "&", "smax": "&",
             "or": "|", "umax": "|",
             "xor": "^", "add": "^", "sub": "^"}
#: Vector fcmp inlines ops.eval_vector_fcmp.  numpy's ``==``, ``<``,
#: ``<=``, ``>`` and ``>=`` are already False on a NaN lane, so they are
#: the bare operator; only ``one`` (``!=`` is True on NaN) keeps the
#: ``~(isnan|isnan)`` ordered mask.
_VEC_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
             "ogt": ">", "oge": ">="}
#: ``condbr`` attributes that give the branch a form of its own (a trip,
#: a divergent backedge, a row nest or its tail): such a branch is emitted
#: as that form even when its condition is known.
_BRANCH_FORMS = frozenset(("batch_trip", "batch_backedge", "row_nest",
                           "row_tail"))
#: Vector ops whose 8–64-bit integer operands :meth:`_Emitter._vec_expr`
#: reads through a signed view (``icmp`` only for its signed predicates).
_READS_SIGNED = frozenset(("icmp", "sitofp", "sext", "smin", "smax", "iabs"))

#: Integer compare predicate → operator, shared by the scalar inliner,
#: the vector inliner and the condbr-condition fold (signed forms apply
#: after a sign-bit XOR, or to a signed view of the lanes).
_CMP_U = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
          "ugt": ">", "uge": ">="}
_CMP_S = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
#: Ordered *scalar* fcmp preds where the Python operator already yields
#: False on NaN, matching scalar_fcmp_impl's unordered→0 rule ("one" is
#: NOT inlinable: Python ``nan != x`` is True but the reference returns 0).
_SCALAR_FCMP = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

#: Opcodes whose host evaluation can raise a numpy floating-point flag:
#: float arithmetic, the compares and casts that consume or produce
#: floats, integer division (divide by zero), and reductions (when over
#: float lanes).  Moves of floats — loads, shuffles, selects, phis —
#: raise none.
_FP_FLAG_OPS = FLOAT_BINOPS | REDUCE_OPS | frozenset(
    ("fneg", "fabs", "fsqrt", "fma", "fcmp", "fptosi", "fptoui", "sitofp",
     "uitofp", "fptrunc", "fpext", "sdiv", "udiv", "srem", "urem"))

#: Scalar opcodes the emitter writes as raw Python expressions instead of
#: impl-callable invocations.  Each template must reproduce the
#: corresponding ops.py impl bit-for-bit — see
#: :meth:`_Emitter._scalar_expr`.
_INLINE_FBIN = {"fadd": "+", "fsub": "-", "fmul": "*"}
_INLINE_IBIN = {"add": "+", "sub": "-", "mul": "*"}
_INLINE_IBIT = {"and": "&", "or": "|", "xor": "^"}


def _int_binop_expr(op: str, bits: int, a: str, b: str) -> Optional[str]:
    """A scalar integer ``add``/``sub``/``mul``/``and``/``or``/``xor`` on
    canonical unsigned operands as a Python expression (``None`` for any
    other opcode): arithmetic masks back to ``bits``, bitwise forms cannot
    leave the range."""
    sym = _INLINE_IBIN.get(op)
    if sym is not None:
        return f"(({a} {sym} {b}) & {(1 << bits) - 1:#x})"
    sym = _INLINE_IBIT.get(op)
    if sym is not None:
        return f"({a} {sym} {b})"
    return None


class CodegenBailout(Exception):
    """No generated code for this function, and ``reason`` says why; the
    interpreter records it and replays the launch on the reference
    engine."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def batch_charge_items(instr: Instruction, machine, cost_model) -> tuple:
    """The narrow charges one batch-annotated instruction stands for: the
    :func:`~repro.backend.costmodel.charge_items` of each of its narrow
    prototypes, in order (an external-call prototype's are the ``call``
    dispatch and the narrow ``ext:`` cost)."""
    return tuple(item for proto in instr.attrs["batch_charges"]
                 for item in charge_items(proto, machine, cost_model))


def _budget_trap(interp, fname: str):
    """Raise the budget trap exactly as the dispatch loops word it."""
    limit = interp.max_instructions
    raise ExecutionLimitExceeded(f"exceeded {limit} instructions in @{fname}")


def _private_miss(mask, count: int, dtype):
    """A load the expanded private copy cannot serve (a row this trip
    has not stored, or an offset off the rows): zeros when no lane
    reads, else the launch replays on the unbatched twin."""
    if mask is not None and not count_nonzero(mask):
        return np.zeros(count, dtype)
    raise _Replay("private storage read before the trip wrote it")


def _private_writeback(memory, base: int, private, flags, lanes: int):
    """End of a batched trip: every row of the VM block the trip stored
    gets the trip's last gang's ``lanes`` lanes of ``private`` (at live
    width) — what the unbatched gangs leave there."""
    rows = [k for k, flag in enumerate(flags) if flag]
    if rows:
        block = np.ndarray((len(flags), lanes), private.dtype,
                           memory.data, base)
        block[rows] = private[rows, -lanes:]


class _Trip:
    """The trips being emitted — a gang loop's, or a row tail's (no
    header) — which run at live width (see "Accounting contract"): the
    ``batch_trip`` factors, the region's blocks, the allocas it expands,
    each ``alloca -> (rows, row bytes, lanes per gang, array view, flags
    local)``, and its *views*: each batched-width value the region reads
    but does not compute — a constant, a folded value, a tile of a value
    defined before the loop, a private array — as ``expression at live
    width -> local``.  The locals are bound on entering a trip whose
    ``_r`` differs from ``rv``'s, the ``_r`` they were last bound for
    (zeroed on entering the region), into the line slot ``mark`` once
    the region is emitted and its views are known."""

    __slots__ = ("gang", "batch", "header", "blocks", "privates", "views",
                 "rv", "mark")

    def __init__(self, gang: int, batch: int, header, blocks, rv: str):
        self.gang = gang
        self.batch = batch
        self.header = header
        self.blocks = blocks
        self.rv = rv
        self.privates: Dict[Instruction, tuple] = {}
        self.views: Dict[str, str] = {}
        self.mark = -1


_M64 = (1 << 64) - 1


def _rows_disjoint(rows: int, accesses) -> bool:
    """The no-alias check at a row nest's entry: may the nest's ``rows``
    run R at a time?  ``accesses`` holds ``(a0, rho, hi, store)`` per
    access: its address at the first row and gang 0, its row stride, the
    bytes ``[a0, a0 + hi)`` it may touch in one row, and whether it writes.
    Yes iff every store's rows are disjoint from each other and from every
    other access's rows — hulls over all rows that do not meet, or the
    same row stride with both footprints inside one stride (a per-row
    cell and the prologue store that resets it)."""
    spans = []
    for a0, rho, hi, store in accesses:
        if hi <= 0:
            continue  # never runs: a body access of a row without full gangs
        if rho < 0:
            return False
        spans.append((a0, a0 + hi + (rows - 1) * rho, a0 + hi, rho, store))
    for n, (lo, top, hi, rho, store) in enumerate(spans):
        if not store:
            continue
        if hi - lo > rho:
            return False  # the store's rows overlap each other
        for m, (lo2, top2, hi2, rho2, _) in enumerate(spans):
            if m == n or lo2 >= top or lo >= top2:
                continue
            if rho2 != rho or max(hi, hi2) - min(lo, lo2) > rho:
                return False
    return True


def _scatter_add(memory, sub: bool, addrs, values, mask, lane: int,
                 gangs: int, windows) -> None:
    """A trip's scatter-add (see :mod:`repro.backend.batch`): each active
    lane adds (``sub``: subtracts) its value at its cell of
    ``memory.lanes[lane]``, as the unbatched lanes do one by one, in one
    ``np.add.at`` — when the order cannot matter: every active address is
    in bounds and a multiple of the cell size (two cells are one cell,
    where adds commute mod 2**n, or share no byte), and the cells' hull
    meets none of the ``windows``, the trip's other accesses: gang k's
    ``[base + k·step, base + k·step + width)`` for each of its ``gangs``
    (a trip of one gang runs its accesses in the unbatched order).
    Anything else replays the launch on the unbatched twin."""
    if mask is not None:
        addrs = addrs[mask]
        if isinstance(values, np.ndarray):
            values = values[mask]
        if not len(addrs):
            return
    cells = memory.lanes[lane]
    size = cells.itemsize
    lo = int(np.minimum.reduce(addrs))
    end = int(np.maximum.reduce(addrs)) + size
    if lo < NULL_GUARD or end > len(cells) * size \
            or size > 1 and count_nonzero(addrs & (size - 1)):
        raise _Replay("scatter-add cell out of bounds or misaligned")
    # One gang's trip is its unbatched order: only cells can differ.
    for base, step, width in windows if gangs > 1 else ():
        reach = (gangs - 1) * step
        top = base + max(reach, 0) + width
        if base + min(reach, 0) < end and lo < top or top > _M64 + 1:
            raise _Replay("scatter-add meets another access")
    if end > memory._extent:
        memory._extent = end
    # Cell indices as ``intp`` (every address is below the buffer's end),
    # the index type ``ufunc.at`` takes without a cast.
    (np.subtract if sub else np.add).at(
        cells, addrs.view(np.int64) >> (size.bit_length() - 1), values)


#: ``atomicrmw`` op -> the ufunc :func:`_rmw_rows` applies to a row of
#: cells at once (``smin``/``smax`` on the cells' signed view).
_ROW_RMW = {"add": np.add, "sub": np.subtract, "and": np.bitwise_and,
            "or": np.bitwise_or, "xor": np.bitwise_xor,
            "umin": np.minimum, "umax": np.maximum,
            "smin": np.minimum, "smax": np.maximum}


def _row_cells(memory, addr: int, rho: int, rows: int, dtype):
    """The cells ``addr + i·rho`` (``i < rows``) of a collapsed nest as
    one strided view, after raising the extent over them.  One outside
    the physical buffer, or two that overlap, replay the launch."""
    size = dtype.itemsize
    end = addr + (rows - 1) * rho + size
    if addr < NULL_GUARD or end > len(memory.data) or (
            rows > 1 and rho < size):
        raise _Replay("row cells out of range")
    if end > memory._extent:
        memory._extent = end
    return np.ndarray((rows,), dtype, memory.data, addr, (rho,))


def _store_rows(memory, addr: int, rho: int, rows: int, dtype, value,
                step: int) -> None:
    """A row prologue's scalar store for each row of the outer trip, in
    row order: row ``i`` stores ``value + i·step`` at ``addr + i·rho``."""
    _row_cells(memory, addr, rho, rows, dtype)[...] = \
        [(value + i * step) & _M64 for i in range(rows)] if step else value


def _rmw_rows(memory, addr: int, rho: int, rows: int, dtype, rmw: str,
              lanes, gangs: int) -> None:
    """A per-gang ``atomicrmw`` in a collapsed trip: row ``i`` folds its
    gangs' lanes into the cell at ``addr + i·rho`` (a per-row cell,
    ``sums + y``; rows update in row order), both read as ``dtype``."""
    ufunc = _ROW_RMW[rmw]
    folds = lanes.view(dtype).reshape(rows, gangs)
    cells = _row_cells(memory, addr, rho, rows, dtype)
    cells[...] = ufunc(cells, (np.add if rmw == "sub" else ufunc).reduce(
        folds, axis=1, dtype=dtype))


def _mask_end(mask, width: int) -> int:
    """One past the last active lane of a row tail's first slot (every
    slot holds the same tail mask), or 0."""
    lanes = mask[:width].nonzero()[0]
    return int(lanes[-1]) + 1 if len(lanes) else 0


#: :func:`_mask_bound` of a mask with no lane set.
_EMPTY = object()


def _mask_bound(mask: Value, nest: Set[BasicBlock], memo: dict):
    """A mask computed before the ``nest`` whose lanes include every lane
    ``mask`` can set — ``_EMPTY`` when it sets none, ``None`` when no such
    mask is known.  An ``and`` is bounded by either operand, an ``or``,
    ``select`` or ``phi`` by the one bound of all of theirs (a phi is
    assumed empty while its own cycle is followed: the loop-exit masks of
    divergent loops accumulate from an all-false start)."""
    if not (isinstance(mask, Instruction) and mask.parent in nest):
        if isinstance(mask, Constant) and not any(mask.value):
            return _EMPTY
        return mask
    if mask in memo:
        return memo[mask]
    memo[mask] = _EMPTY
    op = mask.opcode
    if op == "and":
        bounds = [_mask_bound(o, nest, memo) for o in mask.operands]
        bound = _EMPTY if any(b is _EMPTY for b in bounds) else next(
            (b for b in bounds if b is not None), None)
    elif op in ("or", "select", "phi"):
        values = mask.operands[1:] if op == "select" else \
            mask.operands if op == "or" else [v for v, _ in mask.phi_incoming()]
        bound = _EMPTY
        for v in values:
            b = _mask_bound(v, nest, memo)
            if b is None or (bound is not _EMPTY and b is not _EMPTY
                             and b is not bound):
                bound = None
                break
            if b is not _EMPTY:
                bound = b
    else:
        bound = None
    memo[mask] = bound
    return bound


def _last_lane_end(mask, width: int, gangs: int, rho: int, delta: int,
                   itemsize: int, step: int) -> int:
    """One past the highest active lane of a view's runtime ``mask``
    (slot ``k`` is gang ``k % gangs`` of row ``k // gangs``, rows ``rho``
    and gangs ``delta`` bytes apart, lanes ``step``), relative to the
    view's address — what the IR's stores raise the extent to, whether
    or not the gangs' windows interleave — or 0."""
    lanes = mask.nonzero()[0]
    if not len(lanes):
        return 0
    slot, lane = np.divmod(lanes, width)
    row, gang = np.divmod(slot, gangs)
    return int((row * rho + gang * delta + lane * step).max()) + itemsize


class _Nest:
    """A collapsed row nest being emitted (its header ``condbr`` carries
    ``row_nest``): the row index, its bound and step, the nest's blocks
    and gang base, their affine ``form`` s
    (:class:`~repro.backend.batch.AffineForms`), and the row-stride locals
    computed at nest entry."""

    __slots__ = ("header", "row", "bound", "inc", "blocks", "gang_phi",
                 "gang", "batch", "form", "strides", "tail", "rvs")

    def __init__(self, loop: Loop, gang: int, batch: int):
        term = loop.header.instructions[-1]
        self.header = loop.header
        self.row, self.bound = term.operands[0].operands
        self.inc = self.row.phi_value_for(loop.latches[0])
        self.blocks = loop.blocks
        gang_header = next(
            b for b in loop.ordered_blocks()
            if "batch_trip" in b.instructions[-1].attrs)
        self.gang_phi = gang_header.instructions[0]
        self.gang = gang
        self.batch = batch
        self.form = AffineForms(self.blocks, self.gang_phi, self.row)
        #: Row part of a form -> the local holding its signed row stride.
        self.strides: Dict[frozenset, str] = {}
        #: The row tail's blocks, and the ``_r`` the gang loop's and the
        #: tail's views are bound for (set at nest entry).
        self.tail: Set[BasicBlock] = set()
        self.rvs: Tuple[str, str] = ("", "")


class _Window:
    """One access as a view (see "Views"): ``k`` packed accesses ``width``
    lanes apart whose lane ``l`` is at ``first + stride·l`` elements — a
    window group recognised from the IR, or a packed access (``k = 1``,
    ``stride = 1``).  ``reach``: one past the last element the IR's range
    tests cover, from a slot's base; ``delta``: a trip's per-gang bytes;
    ``needed``: the lanes of each slot the view covers (one past the last
    a static mask sets), ``keep``: the holes among them (``None``: none).
    A load defines ``value`` (a window group's last select); a store
    writes ``value`` — one gang's lanes for every gang when ``narrow``.
    ``mask`` is the runtime mask (one gang's for every gang when
    ``mask_narrow``), or ``None``: static masks cover every lane."""

    __slots__ = ("load", "first", "elem", "width", "stride", "reach",
                 "delta", "value", "narrow", "mask", "mask_narrow", "needed",
                 "keep")

    def __init__(self, load: bool, first: Value, elem, width: int,
                 stride: int, reach: int, delta: int, value: Value,
                 narrow: bool = False,
                 mask: Optional[Value] = None, mask_narrow: bool = False,
                 needed: Optional[int] = None, keep=None):
        self.load = load
        self.first = first
        self.elem = elem
        self.width = width
        self.stride = stride
        self.reach = reach
        self.delta = delta
        self.value = value
        self.narrow = narrow
        self.mask = mask
        self.mask_narrow = mask_narrow
        self.needed = width if needed is None else needed
        self.keep = keep


def _same_lanes(a: Value, b: Value) -> bool:
    """Two constant vectors with the same lanes."""
    return isinstance(a, Constant) and isinstance(b, Constant) \
        and a.value == b.value


def _private_alloca(access: Instruction) -> Instruction:
    """The alloca an access to expanded storage reaches through ``gep`` s."""
    base = access.operands[0 if access.opcode == "vload" else 1]
    while base.opcode == "gep":
        base = base.operands[0]
    return base


def _uses_exactly(value: Value, user, idx: int) -> bool:
    """True iff ``value`` has exactly one use: operand ``idx`` of ``user``."""
    uses = value.uses
    return len(uses) == 1 and uses[0][0] is user and uses[0][1] == idx


class _BlockOrder(dict):
    """Each instruction's index in its block, indexed a block at a time
    when one of its instructions is first asked for (only window
    candidates are)."""

    def __missing__(self, ins: Instruction) -> int:
        for n, other in enumerate(ins.parent.instructions):
            self[other] = n
        return self[ins]


class _LoopFrame:
    """One open ``while True:`` during emission, tracking the distinct
    out-of-loop targets its body breaks to.  A single target keeps the
    plain ``break``; several get a dispatch variable patched in front of
    every break and an ``if``/``elif`` exit merge after the loop."""

    __slots__ = ("loop", "targets", "breaks")

    def __init__(self, loop: Loop):
        self.loop = loop
        self.targets: List[BasicBlock] = []
        #: ``(line_index_of_break, target_index)`` patch sites.
        self.breaks: List[Tuple[int, int]] = []

    def register(self, target: BasicBlock) -> int:
        for i, t in enumerate(self.targets):
            if t is target:
                return i
        self.targets.append(target)
        return len(self.targets) - 1


class _Emitter:
    """Linearizes one function into generated Python source + bindings,
    for one machine and cost model (no interpreter is involved)."""

    def __init__(self, function: Function, machine, cost_model):
        self.machine = machine
        self.cost_model = cost_model
        self.fn = function
        self.fn_batched = bool(function.attrs.get("batched"))
        self.lines: List[str] = []
        self.indent = 2
        self.names: Dict[Value, str] = {}
        for i, arg in enumerate(function.args):
            self.names[arg] = f"a{i}"
        self.hoisted: Dict[str, object] = {
            "_fname": function.name,
            "_trap": _budget_trap,
            "_VMTrap": VMTrap,
        }
        #: Internal callee name → the local the prologue binds it to,
        #: looked up by name in the interpreter's module (generated code
        #: references no IR); any entry also binds ``_exec``.
        self.callees: Dict[str, str] = {}
        self._memo: Dict[object, str] = {}
        #: Lane type -> its hoisted dtype (types are interned).
        self._dtypes: Dict[object, str] = {}
        #: ``id(value)`` → payload known at emit time (see "Emit-time
        #: folding"): folded instructions, and constants once something
        #: asked for their payload.  Knownness itself never builds one;
        #: identity keys spare constants their by-value hash and compare.
        self.known: Dict[int, object] = {}
        self.folded = 0
        #: Inline / ``Memory``-only access sites, for the source header.
        self.inline_sites = 0
        self.slow_sites = 0
        #: Inline gathers among the inline sites.
        self.gather_sites = 0
        #: Something emitted can raise a numpy floating-point flag (see
        #: :data:`_FP_FLAG_OPS`): the body needs ``np.seterr(all="ignore")``.
        self.raises_fp_flags = False
        #: Stack of open Python loops (innermost last).
        self.open: List[_LoopFrame] = []
        self.open_headers: Set[BasicBlock] = set()
        self.emitted: Set[BasicBlock] = set()
        self.loops_by_header: Dict[BasicBlock, Loop] = {
            loop.header: loop for loop in find_loops(function)
        }
        self.pdom = postdominators(function)
        #: Counter key → integer accumulator local (``_k0``…).
        self.count_locals: Dict[str, str] = {}
        #: Charge prototypes, and plain instructions' signatures (opcode,
        #: result and operand types, a call's callee) → their
        #: ``(counts_key, cost)`` items: gang batching shares one prototype
        #: per signature, and most instructions repeat a signature already
        #: priced.
        self._charge_items: Dict[tuple, tuple] = {}
        self.exit_counter = 0
        #: The trips being emitted (a :class:`_Trip`), or ``None``; views
        #: and trip regions named so far (every trip names its own).
        self.trip: Optional[_Trip] = None
        self.view_count = 0
        self.rv_count = 0
        #: Tiles built at live width, where a trip reads them:
        #: ``id(shuffle) -> (source, selector)`` (see :meth:`_tile`).
        self.tiles: Dict[int, Tuple[str, str]] = {}
        #: The collapsed row nest being emitted (a :class:`_Nest`), or
        #: ``None``; whether any nest's no-alias check was emitted.
        self.nest: Optional[_Nest] = None
        self.row_checks = False
        #: Whether a divergent loop runs in a batched region: its
        #: activity counts live in the ``_act``/``_pend`` dicts (see
        #: "Accounting contract").
        self.activity = self.fn_batched and any(
            "batch_activity" in ins.attrs
            for b in function.blocks for ins in b.instructions)
        #: Window groups by their first access, the instructions they
        #: absorb (nothing emits them), how many were emitted, and the
        #: payloads :meth:`_static` evaluated (``None``: not static).
        self.windows: Dict[Instruction, _Window] = {}
        #: Window stores that assign a paired load's view, and back (see
        #: :meth:`_find_copies`).
        self.copies: Dict[_Window, _Window] = {}
        self.copied: Dict[_Window, _Window] = {}
        self.absorbed: Set[Instruction] = set()
        self.window_sites = 0
        self._members: Dict[_Window, list] = {}
        self._inputs: Set[int] = set()
        self._statics: Dict[int, object] = {}
        #: Each instruction's index in its block (for the window search).
        self._order = _BlockOrder()
        #: :meth:`_mask_lanes` by ``(id(mask), rows)``: batching shares one
        #: widened mask constant among a trip's accesses.
        self._lanes: Dict[tuple, Optional[Tuple[int, int]]] = {}

    def _mult_expr(self, spec: tuple) -> str:
        """Runtime multiplicity of a spec: the first lid with a live
        activity count wins, the trip's gang count ``_r`` (the trailing
        static B) backstops.  A row nest's outer blocks charge once per
        row of the outer trip (``_R``)."""
        if spec == ROWS:
            return "_R"
        if isinstance(spec, str):
            return spec  # an expression (a scatter-add's active lanes)
        expr = "_r"
        for lid in reversed([x for x in spec if isinstance(x, str)]):
            expr = f"_act.get({lid!r}, {expr})"
        return expr

    # -- small helpers -----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def hoist(self, obj, key=None) -> str:
        key = id(obj) if key is None else key
        name = self._memo.get(key)
        if name is None:
            name = f"_h{len(self._memo)}"
            self._memo[key] = name
            self.hoisted[name] = obj
        return name

    def _np(self, fn) -> str:
        return self.hoist(fn, key=("np", fn.__name__))

    def _cnz(self) -> str:
        return self.hoist(count_nonzero, key=("np", "count_nonzero"))

    def _int(self) -> str:
        # Hoisted: generated code runs with empty __builtins__.
        return self.hoist(int, key=("b", "int"))

    def _dtype(self, elem) -> str:
        name = self._dtypes.get(elem)
        if name is None:
            dt = elem_dtype(elem)
            name = self._dtypes[elem] = self.hoist(dt, key=("dt", dt.str))
        return name

    def _sdtype(self, elem) -> str:
        """The hoisted signed companion dtype of integer lanes ``elem``."""
        sdt = signed_dtype(elem)
        return self.hoist(sdt, key=("sdt", sdt.str))

    def _type(self, t) -> str:
        return self.hoist(t, key=("t", id(t)))

    def _replay(self, kind: str) -> str:
        """The statement that leaves generated code for the reference
        engine: the launch rolls back and replays (see "One way out")."""
        return f"raise {self.hoist(_Replay, key=('b', 'bailout'))}({kind!r})"

    def name_of(self, instr: Value) -> str:
        name = self.names.get(instr)
        if name is None:
            name = self.names[instr] = f"v{len(self.names)}"
        return name

    def is_known(self, v: Value) -> bool:
        return isinstance(v, Constant) or id(v) in self.known

    def payload(self, v: Value):
        """Emit-time payload of a known value (one per constant)."""
        value = self.known.get(id(v))
        if value is None:
            value = self.known[id(v)] = _constant_payload(v)
        return value

    def _live(self, count: int) -> str:
        """The lanes a trip's ``count``-lane (batched-width) value has at
        live width: ``c`` per gang of the trip, ``_n`` being ``_r·G``."""
        c = count // self.trip.batch
        return "_n" if c == self.trip.gang else "_r" if c == 1 \
            else f"_r * {c}"

    def _view(self, expr: str) -> str:
        """The local a trip reads ``expr`` — a value at the trip's live
        width — through (see :class:`_Trip`)."""
        views = self.trip.views
        name = views.get(expr)
        if name is None:
            name = views[expr] = f"_t{self.view_count}"
            self.view_count += 1
        return name

    def _new_rv(self) -> str:
        """A fresh local for the ``_r`` a trip region's views are bound
        for."""
        self.rv_count += 1
        return f"_rv{self.rv_count - 1}"

    def _mark(self) -> None:
        """The line slot of the trip's view bindings (:meth:`_close_trip`)."""
        self.trip.mark = len(self.lines)
        self.line("")

    def _close_trip(self) -> None:
        """The trip's region is emitted: fill its view slot, which binds
        every view at the trip's width whenever ``_r`` changed."""
        trip = self.trip
        if trip.views:
            pad = self.lines[trip.mark]
            self.lines[trip.mark] = "\n".join(
                [f"{pad}if _r != {trip.rv}:", f"{pad}    {trip.rv} = _r"]
                + [f"{pad}    {name} = {expr}"
                   for expr, name in trip.views.items()])
        else:
            self.lines[trip.mark] = ""

    def ref(self, v: Value, narrow: bool = False,
            signed: Optional[str] = None) -> str:
        """``v`` as a Python expression.  In a trip, a batched-width vector
        the trip does not compute itself is read through its view, at live
        width — unless the use is ``narrow`` (a per-gang shuffle's index).
        With ``signed`` (a hoisted signed dtype), its lanes viewed as
        that; a known value is hoisted in its signed form."""
        if signed is not None and not self.is_known(v):
            return f"{self.ref(v, narrow)}.view({signed})"
        trip = self.trip
        tile = self.tiles.get(id(v))
        if tile is not None:
            source, sel = tile
            if trip is None:  # a nest's entry reads a row tail's mask
                return f"{source}[{sel}]"
            # One gang's tile is its source (values are never written).
            return self._view(f"{source} if _r == 1 else"
                              f" {source}[{sel}[:{self._live(v.type.count)}]]")
        r = self._ref(v) if signed is None else self.hoist(
            self.payload(v).view(self.hoisted[signed]), key=("s", id(v)))
        if trip is None or narrow or not isinstance(v.type, VectorType) \
                or v.type.count % trip.batch or (
                    isinstance(v, Instruction) and v.parent in trip.blocks
                    and id(v) not in self.known):
            return r
        return self._view(f"{r}[:{self._live(v.type.count)}]")

    def _ref(self, v: Value) -> str:
        if isinstance(v, Constant):  # before ``names`` hashes it by value
            return self.hoist(self.payload(v), key=("c", id(v)))
        name = self.names.get(v)
        if name is not None:
            return name
        if id(v) in self.known:
            return self.hoist(self.known[id(v)], key=("k", id(v)))
        if isinstance(v, UndefValue):
            return self.hoist(_undef_payload(v.type), key=("u", id(v)))
        if getattr(v, "opcode", None) == "phi":
            # Phi locals are assigned on every incoming edge before any
            # read, so naming on demand is safe.
            return self.name_of(v)
        raise AssertionError(f"{v!r} used before its definition")

    def kind(self, target: BasicBlock, stop: Optional[BasicBlock]) -> str:
        """Classify an edge target relative to the innermost open loop.

        Any target outside the loop is a ``break`` — the dispatch-
        variable exit merge re-classifies it one level up, so multi-exit
        and multi-level transfers unwind one Python loop at a time."""
        if self.open:
            frame = self.open[-1]
            if target is frame.loop.header:
                return "continue"
            if target not in frame.loop.blocks:
                return "break"
        if target is stop:
            return "stop"
        return "inline"

    def emit_break(self, target: BasicBlock) -> None:
        """Emit a ``break`` out of the innermost loop, recording the
        target so :meth:`emit_from` can patch a dispatch assignment in
        front when the loop turns out to have several exit targets."""
        frame = self.open[-1]
        idx = frame.register(target)
        frame.breaks.append((len(self.lines), idx))
        self.line("break")

    # -- accounting emission -----------------------------------------------------

    def _count_local(self, key: str) -> str:
        name = self.count_locals.get(key)
        if name is None:
            name = f"_k{len(self.count_locals)}"
            self.count_locals[key] = name
        return name

    def emit_charges(self, block: BasicBlock) -> None:
        """One merged charge prologue for everything the block executes.

        The reference engine's per-instruction charges (including its
        phi sweep), and a batched block's narrow prototypes ×
        multiplicity, fold into at most one cycles add, one instruction
        add, one counter-local update per distinct key, one multiplicity
        resolve per divergent spec, and one budget check — all against
        the function-local accumulators.  Inside a gang loop a spec's
        static B stands for ``_r``, the gangs the trip runs (fewer than B
        on the predicated last trip).  Instructions without batch
        annotations charge plainly even inside a batched function (the
        code around the gang loop, and mixed blocks, rely on this).
        Completed-run totals are bit-identical (dyadic costs sum exactly
        under any association; counts commute); a trap's exact
        trap-point stats come from the replay.
        """
        machine, cost_model = self.machine, self.cost_model
        cycles = 0.0
        instrs = 0
        counts: Dict[str, int] = {}
        # Divergent-multiplicity groups: spec -> [cycles/_m, instrs/_m, counts/_m]
        groups: Dict[tuple, list] = {}
        for ins in block.instructions:
            if ins.opcode in _FP_FLAG_OPS and (
                ins.opcode not in REDUCE_OPS
                or ins.operands[0].type.elem.is_float
            ):
                # This walk is the one that visits every instruction.
                self.raises_fp_flags = True
            if self.fn_batched and "batch_mult" in ins.attrs:
                charges = ins.attrs["batch_charges"]
                items = self._charge_items.get(charges)
                if items is None:
                    items = self._charge_items[charges] = batch_charge_items(
                        ins, machine, cost_model)
                spec = ins.attrs["batch_mult"]
                if spec == LANES:  # a scatter-add's active lanes
                    spec = (f"{self._int()}({self._cnz()}("
                            f"{self.ref(ins.operands[2])}))")
                assert self.trip or not isinstance(spec, tuple), spec
                assert self.nest or spec != ROWS, spec
                if isinstance(spec, int):
                    m = spec
                    if m:
                        for key, c in items:
                            cycles += c * m
                            instrs += m
                            counts[key] = counts.get(key, 0) + m
                else:
                    g = groups.setdefault(spec, [0.0, 0, {}])
                    for key, c in items:
                        g[0] += c
                        g[1] += 1
                        g[2][key] = g[2].get(key, 0) + 1
            else:
                # A charge reads the opcode and types only (and a call's
                # callee): one pricing per signature.
                ops = ins.operands
                sig = (ins.opcode, ins.type, ops[0] if ins.opcode == "call"
                       else None, *[o.type for o in ops])
                items = self._charge_items.get(sig)
                if items is None:
                    items = self._charge_items[sig] = charge_items(
                        ins, machine, cost_model)
                for key, c in items:
                    cycles += c
                    instrs += 1
                    counts[key] = counts.get(key, 0) + 1
        checked = False
        if cycles:
            self.line(f"_cy += {cycles!r}")
        if instrs:
            self.line(f"_ni += {instrs}")
            checked = True
        for key, n in counts.items():
            self.line(f"{self._count_local(key)} += {n}")
        for spec, (gcycles, ginstrs, gcounts) in groups.items():
            mref = self._mult_expr(spec)
            if not mref.isidentifier():
                self.line(f"_m = {mref}")
                mref = "_m"
            guard = mref not in ("_r", "_R")  # a trip runs a gang, a row
            if guard:
                self.line(f"if {mref}:")
                self.indent += 1
            if gcycles:
                self.line(f"_cy += {gcycles!r} * {mref}")
            self.line(f"_ni += {ginstrs} * {mref}")
            for key, n in gcounts.items():
                mult = mref if n == 1 else f"{n} * {mref}"
                self.line(f"{self._count_local(key)} += {mult}")
            if guard:
                self.indent -= 1
            checked = True
        if checked:
            self.line("if _ni > _rem:")
            self.line("    _trap(_interp, _fname)")

    # -- value emission ----------------------------------------------------------

    def _reads_signed(self, ins) -> Optional[str]:
        """The hoisted signed dtype :meth:`_vec_expr` reads ``ins``'s
        operands as — a signed ``icmp``, ``sitofp``, ``sext``, ``smin``,
        ``smax`` or ``iabs`` of 8–64-bit integer lanes — else ``None`` (i1
        lanes keep ``signed_view``)."""
        op = ins.opcode
        if op not in _READS_SIGNED or op == "icmp" \
                and ins.attrs["pred"] not in _CMP_S:
            return None
        src = ins.operands[0].type
        if not isinstance(src, VectorType) or src.elem.bits == 1:
            return None
        return self._sdtype(src.elem)

    def _vec_expr(self, ins, argrefs) -> Optional[str]:
        """Emit a vector op as a raw numpy expression, or ``None``.

        The vector analogue of :meth:`_scalar_expr`: every
        template is the exact expression the ops.py impl evaluates
        (the per-call ``errstate`` guards are covered by the generated
        function's body-wide ``np.seterr(all="ignore")``), and an
        operand read as signed lanes arrives as its signed view
        (:meth:`_reads_signed`); anything subtle — shifts, trapping
        division, saturating forms — falls back to the impl closure.
        """
        op = ins.opcode
        t = ins.type
        if op in ("icmp", "fcmp"):
            src_t = ins.operands[0].type
            if not isinstance(src_t, VectorType):
                return None
            pred = ins.attrs["pred"]
            a, b = argrefs
            if op == "icmp":
                sym = _CMP_U.get(pred)
                if sym is not None:
                    return f"({a} {sym} {b})"
                sym = _CMP_S.get(pred)
                if src_t.elem.bits != 1:  # signed views (_reads_signed)
                    return f"({a} {sym} {b})"
                sv = self._np(signed_view)
                return f"({sv}({a}) {sym} {sv}({b}))"
            sym = _VEC_FCMP.get(pred)
            if sym is None:
                return None
            if pred != "one":
                return f"({a} {sym} {b})"
            isn = self._np(np.isnan)
            return f"(({a} {sym} {b}) & ~({isn}({a}) | {isn}({b})))"
        if op == "select":
            if isinstance(ins.operands[0].type, VectorType) or isinstance(
                t, VectorType
            ):
                c, a, b = argrefs
                return f"{self._np(np.where)}({c}, {a}, {b})"
            return None
        if not isinstance(t, VectorType):
            return None
        elem = t.elem
        if len(argrefs) == 2 and op in (
            "fadd", "fsub", "fmul", "fdiv", "frem", "fmin", "fmax",
            "add", "sub", "mul", "and", "or", "xor", "umin", "umax",
            "smin", "smax",
        ):
            a, b = argrefs
            if isinstance(elem, FloatType):
                sym = _VEC_FBIN.get(op)
                if sym is not None:
                    return f"({a} {sym} {b})"
                if op == "fmin":
                    return f"{self._np(np.minimum)}({a}, {b})"
                if op == "fmax":
                    return f"{self._np(np.maximum)}({a}, {b})"
                if op == "frem":
                    return f"{self._np(np.fmod)}({a}, {b})"
                return None
            if not isinstance(elem, IntType):
                return None
            if elem.bits == 1:
                sym = _VEC_BBIN.get(op)
                return None if sym is None else f"({a} {sym} {b})"
            sym = _VEC_IBIN.get(op)
            if sym is not None:
                return f"({a} {sym} {b})"
            if op == "umin":
                return f"{self._np(np.minimum)}({a}, {b})"
            if op == "umax":
                return f"{self._np(np.maximum)}({a}, {b})"
            if op in ("smin", "smax"):  # signed views (_reads_signed)
                npf = self._np(np.minimum if op == "smin" else np.maximum)
                return f"{npf}({a}, {b}).view({self._dtype(elem)})"
            return None
        if op == "fneg":
            return f"(-{argrefs[0]})"
        if op == "fabs":
            return f"{self._np(np.abs)}({argrefs[0]})"
        if op == "fsqrt":
            return f"{self._np(np.sqrt)}({argrefs[0]})"
        if op == "not":
            return f"(~{argrefs[0]})"
        if op == "iabs" and elem.bits != 1:  # a signed view (_reads_signed)
            return (f"{self._np(np.abs)}({argrefs[0]})"
                    f".view({self._dtype(elem)})")
        if op == "fma":
            a, b, c = argrefs
            return f"({a} * {b} + {c})"
        if op == "shuffle":
            n = ins.operands[0].type.count
            index = ins.operands[1]
            segments = ins.attrs.get("segments")
            if segments is not None:
                # Per-gang segments: one narrow selector for every gang.
                if not self.is_known(index):
                    return None
                row = n // segments
                return (f"{argrefs[0]}.reshape(-1, {row})"
                        f"[:, {self._selector(index, row)}].reshape(-1)")
            if self.is_known(index):
                return f"{argrefs[0]}[{self._selector(index, n)}]"
            i64 = self.hoist(np.int64, key=("np", "int64"))
            return f"{argrefs[0]}[{argrefs[1]}.astype({i64}) % {n}]"
        if op in REDUCE_OPS:
            # Per-gang (segmented) integer reductions; everything else
            # calls its impl.  ``add`` wraps in the lane dtype, as
            # ops.reduce_segments does.
            src = ins.operands[0].type.elem
            if getattr(src, "bits", 1) == 1 or op not in (
                    "reduce_add", "reduce_min_u", "reduce_max_u"):
                return None
            rows = (f"{argrefs[0]}.reshape(-1,"
                    f" {ins.operands[0].type.count // ins.attrs['segments']})")
            if op == "reduce_add":
                add = self.hoist(np.add.reduce, key=("np", "add.reduce"))
                return f"{add}({rows}, axis=1, dtype={self._dtype(src)})"
            return f"{rows}.{'min' if op == 'reduce_min_u' else 'max'}(axis=1)"
        if op in VEC_CAST_ASTYPE or op in ("bitcast", "sext", "sitofp",
                                            "fptosi", "fptoui"):
            src_t = ins.operands[0].type
            if not isinstance(src_t, VectorType):
                return None
            from_e = src_t.elem
            v = argrefs[0]
            dt = self._dtype(elem)
            if op == "bitcast":
                if elem_dtype(from_e).itemsize == elem_dtype(elem).itemsize:
                    return f"{v}.view({dt})"
                return f"{v}.astype({dt})"
            if op == "sitofp":
                if from_e.bits == 1:
                    v = f"{self._np(signed_view)}({v})"
                return f"{v}.astype({dt})"
            if op == "sext":
                if from_e.bits == 1:
                    return None
                return f"{v}.astype({self._sdtype(elem)}).view({dt})"
            if op in ("fptosi", "fptoui"):
                # ops.eval_vector_cast's chain (its errstate is the
                # body-wide one): 64-bit lanes wrap int(x) exactly, the
                # rest trunc → int64 → the target's width.
                if elem.bits == 64:
                    return f"{self._np(float_lanes_to_int64)}({v}).view({dt})"
                i64 = self.hoist(np.int64, key=("np", "int64"))
                v = f"{self._np(np.trunc)}({v}).astype({i64})"
                if op == "fptoui":
                    return f"({v} & {(1 << elem.bits) - 1:#x}).astype({dt})"
                return f"{v}.astype({self._sdtype(elem)}).view({dt})"
            return f"{v}.astype({dt})"
        return None

    def _scalar_expr(self, instr: Instruction, argrefs) -> Optional[str]:
        """Emit a scalar op as a plain expression, or ``None`` to fall back.

        Skips the impl-lambda call layer (and for f32 floats the
        round_float wrapper) for the ops that dominate benchsuite
        dispatch.  Every template is bit-identical to the ops.py impl;
        vectors and anything subtle (shifts, division, signed-overflowing
        casts to float, ...) fall back to
        :func:`~repro.vm.ops.value_impl`.
        """
        op = instr.opcode
        t = instr.type
        if isinstance(t, VectorType):
            return None
        # Mask reductions: scalar-typed with one vector operand; they gate
        # every divergent-loop backedge, so skipping the closure layer
        # matters.  Same values as the value_impl lambdas.
        if op == "mask_any":
            return f"(1 if {self._cnz()}({argrefs[0]}) else 0)"
        if op == "mask_all":
            n = instr.operands[0].type.count
            return f"(1 if {self._cnz()}({argrefs[0]}) == {n} else 0)"
        if op == "mask_popcnt":
            return f"{self._int()}({self._cnz()}({argrefs[0]}))"
        if op == "extractelement":
            lane = instr.operands[1]
            if not self.is_known(lane):
                return None
            k = int(self.payload(lane)) % instr.operands[0].type.count
            conv = self.hoist(float, key=("b", "float")) if t.is_float \
                else self._int()
            return f"{conv}({argrefs[0]}[{k}])"
        sym = _INLINE_FBIN.get(op)
        if sym is not None and isinstance(t, FloatType):
            a, b = argrefs
            if t.bits == 32:
                cf = self.hoist(_c_float, key=("cf",))
                return f"{cf}({a} {sym} {b}).value"
            return f"({a} {sym} {b})"
        if isinstance(t, IntType) and len(argrefs) == 2:
            expr = _int_binop_expr(op, t.bits, *argrefs)
            if expr is not None:
                return expr
        if op in ("icmp", "fcmp"):
            src_t = instr.operands[0].type
            if isinstance(src_t, VectorType):
                return None
            pred = instr.attrs["pred"]
            a, b = argrefs
            if op == "fcmp":
                sym = _SCALAR_FCMP.get(pred)
                return None if sym is None else f"(1 if {a} {sym} {b} else 0)"
            sym = _CMP_U.get(pred)
            if sym is not None:
                return f"(1 if {a} {sym} {b} else 0)"
            sym = _CMP_S.get(pred)
            if sym is not None:
                # XOR with the sign bit maps two's-complement order onto
                # unsigned order, so no to_signed() calls are needed.
                sb = 1 << (getattr(src_t, "bits", 64) - 1)
                return f"(1 if ({a} ^ {sb:#x}) {sym} ({b} ^ {sb:#x}) else 0)"
            return None
        if op == "select" and not isinstance(instr.operands[0].type, VectorType):
            c, a, b = argrefs
            return f"({a} if {c} else {b})"
        if op == "gep":
            return self._gep_expr(instr, *argrefs)
        if op in ("trunc", "zext", "sext") and isinstance(t, IntType):
            src_t = instr.operands[0].type
            if not isinstance(src_t, IntType):
                return None
            (v,) = argrefs
            if op == "zext":
                return v
            if op == "trunc":
                mask = (1 << t.bits) - 1
                return f"({v} & {mask:#x})"
            sb = 1 << (src_t.bits - 1)
            mask = (1 << t.bits) - 1
            return f"((({v} ^ {sb:#x}) - {sb:#x}) & {mask:#x})"
        return None

    def _gep_expr(self, instr: Instruction, base: str, idx: str) -> str:
        """``(base + signed(idx) * esize) mod 2**64``, with what the index
        type and value already decide left out: a known index is a literal
        byte offset; a 64-bit one needs no sign extension (the sum is
        masked to 64 bits anyway); a narrower one extends by XOR/subtract
        of its sign bit."""
        index = instr.operands[1]
        bits = index.type.bits
        esize = instr.type.pointee.size_bytes()
        if self.is_known(index):
            off = repr(to_signed(self.payload(index), bits) * esize)
        else:
            if bits == 64:
                off = idx
            else:
                sb = 1 << (bits - 1)
                off = f"(({idx} ^ {sb:#x}) - {sb:#x})"
            if esize != 1:
                off = f"{off} * {esize}"
        return f"(({base} + {off}) & 0xffffffffffffffff)"

    def _selector(self, index: Value, n: int) -> str:
        """The ``intp`` selector a ``shuffle`` impl would derive from a
        known index vector on every launch, hoisted once."""
        lanes = self.payload(index)
        key = ("sel", id(lanes), n)
        name = self._memo.get(key)
        if name is None:
            sel = (lanes.astype(np.int64) % n).astype(np.intp, copy=False)
            sel.setflags(write=False)
            name = self.hoist(sel, key=key)
        return name

    def _emit_broadcast(self, ins: Instruction, scalar: str) -> None:
        """``np.full`` is ``empty`` + a generic ``copyto``; ``fill`` is the
        same store at under half the dispatch.  64-bit integer lanes keep
        ``np.full``: ``fill`` rejects Python ints >= 2**63 on numpy
        versions whose ``np.full`` takes them."""
        t = ins.type
        dtype = elem_dtype(t.elem)
        dst = self.name_of(ins)
        count = self._live(t.count) if self.trip else t.count
        if dtype.kind == "u" and dtype.itemsize == 8:
            self.line(f"{dst} = {self._np(np.full)}({count}, {scalar},"
                      f" {self._dtype(t.elem)})")
        else:
            self.line(f"{dst} = {self._np(np.empty)}({count},"
                      f" {self._dtype(t.elem)})")
            self.line(f"{dst}.fill({scalar})")

    def _fold(self, ins: Instruction) -> bool:
        """Evaluate ``ins``, whose operands are all known, now: the value
        joins :attr:`known` (arrays read-only: every launch will share it)
        and no line is emitted.  The block's charge prologue still counts
        the instruction.  Evaluation goes through the instruction's own
        :func:`~repro.vm.ops.value_impl` under the errstate generated code
        runs in (:meth:`emit` installs it around the whole walk); an
        evaluation that raises (a trapping division by a zero lane, an
        overflow) is left to run time, which raises it there."""
        try:
            value = value_impl(ins)(*map(self.payload, ins.operands))
        except Exception:
            return False
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self.known[id(ins)] = value
        self.folded += 1
        return True

    def emit_compute(self, ins) -> None:
        if self.nest is not None and ins is self.nest.inc:
            # The row loop steps by the rows its outer trip ran.
            self.line(f"{self.name_of(ins)} = ({self.ref(ins.operands[0])}"
                      f" + _R) & {_M64:#x}")
            return
        known = self.known
        for o in ins.operands:  # the common answer is "no", on the first
            if not isinstance(o, Constant) and id(o) not in known:
                break
        else:
            if self._fold(ins):
                return
        if self._tile(ins):
            return
        segments = ins.attrs.get("segments")
        signed = self._reads_signed(ins)
        argrefs = [self.ref(o, segments is not None and i == 1, signed)
                   for i, o in enumerate(ins.operands)]
        if ins.opcode == "broadcast":
            if segments is not None:
                # A per-gang value: each lane over its gang's lanes.
                self.line(f"{self.name_of(ins)} = {argrefs[0]}.repeat("
                          f"{ins.type.count // segments})")
                return
            self._emit_broadcast(ins, argrefs[0])
            return
        expr = self._scalar_expr(ins, argrefs)
        if expr is None:
            expr = self._vec_expr(ins, argrefs)
        if expr is None and segments is not None:
            # Per-gang segments at live width: one per gang of the trip.
            if ins.opcode == "shuffle":
                fn = self.hoist(shuffle_segments, key=("b", "shuffle"))
                expr = f"{fn}({argrefs[0]}, {argrefs[1]}, _r)"
            else:
                fn = self.hoist(reduce_segments, key=("b", "reduce"))
                expr = f"{fn}({ins.opcode!r}, {argrefs[0]}, _r)"
        if expr is None:
            impl = self.hoist(value_impl(ins), key=("impl", id(ins)))
            expr = f"{impl}({', '.join(argrefs)})"
        self.line(f"{self.name_of(ins)} = {expr}")

    def _tile(self, ins: Instruction) -> bool:
        """A shuffle that repeats a ``c``-lane vector across B gangs (gang
        batching's tile of a value defined before the loop), read only by
        trips: no line here — each trip builds it at its live width, one
        fancy index of the source, or a one-gang trip reads the source
        itself (see :meth:`ref`); what reads it outside a trip builds it
        whole."""
        if ins.opcode != "shuffle" or self.trip or "segments" in ins.attrs:
            return False
        source, index = ins.operands
        c = source.type.count
        if not self.is_known(index) or ins.type.count <= c or \
                ins.type.count % c or not all(
                    isinstance(user.attrs.get("batch_mult"), tuple)
                    or user.attrs.get("batch_mult") == LANES
                    for user, _ in ins.uses):
            return False
        lanes = self.payload(index)
        if not np.array_equal(lanes, np.tile(np.arange(c), len(lanes) // c)):
            return False
        self.tiles[id(ins)] = (self.ref(source), self._selector(index, c))
        return True

    # -- memory access (see "Memory access" and "Views" in the module docstring) --

    def _mask_lanes(self, mask: Value, rows: int = 1) -> Optional[Tuple[int, int]]:
        """``(active, needed)`` of a mask known at emit time — how many
        lanes are set, and one past the last set lane — or ``None`` for a
        runtime mask.  With ``rows``, those of each of that many equal
        rows (``None`` when the rows differ).  Reads a constant's lanes
        without building its payload."""
        key = (id(mask), rows)
        if key in self._lanes:
            return self._lanes[key]
        if isinstance(mask, Constant):
            lanes = mask.value
        elif id(mask) in self.known:
            lanes = self.known[id(mask)].tolist()
        else:
            return None
        if rows > 1:
            row = lanes[:len(lanes) // rows]
            lanes = row if row * rows == lanes else None
        if lanes is not None:
            needed = count = len(lanes)
            while needed and not lanes[needed - 1]:
                needed -= 1
            lanes = count - lanes.count(0), needed
        self._lanes[key] = lanes
        return lanes

    def _mask_ref(self, mask: Value, lanes) -> str:
        """The mask argument of a ``Memory`` call, given
        :meth:`_mask_lanes` of it: ``None`` when every lane is known to
        be set."""
        if lanes is not None and lanes[0] == mask.type.count:
            return "None"
        return self.ref(mask)

    def emit_memory(self, ins) -> None:
        op = ins.opcode
        ops = ins.operands
        if op == "alloca":
            size = max(
                ins.type.pointee.size_bytes() * ins.attrs.get("count", 1), 1
            )
            self.line(f"{self.name_of(ins)} = _mem.alloc({size})")
        elif op == "load":
            self._emit_cell(ins, ins.type, self.ref(ops[0]))
        elif op == "store" and self.nest is None:
            self._emit_cell(ins, ops[0].type, self.ref(ops[1]),
                            store=self.ref(ops[0]))
        elif op == "atomicrmw" and isinstance(ops[0].type, VectorType):
            self._emit_scatter_add(ins)
        elif op == "atomicrmw":
            rmw = ins.attrs["op"]
            t = ins.type
            old, x = self.name_of(ins), self.ref(ops[1])
            addr = self.ref(ops[0])
            segments = "segments" in ins.attrs
            if segments and self.nest is not None:
                # A collapsed row nest: each row of the trip folds its
                # gangs into its own cell (``sums + y``).
                rows = self.hoist(_rmw_rows, key=("b", "rmw_rows"))
                dt = self._sdtype(t) if rmw in ("smin", "smax") \
                    else self._dtype(t)
                self.line(f"{rows}(_mem, {addr}, {self._row_stride(ops[0])},"
                          f" _R, {dt}, {rmw!r}, {x}, _g)")
                return
            if segments:
                # Per-gang lanes: one read-modify-write with the fold of
                # the trip's gangs.
                fold = self.hoist(fold_lanes, key=("fold",))
                self.line(f"_f = {fold}({rmw!r}, {t.bits}, {x})")
                x = "_f"
            new = _int_binop_expr(rmw, t.bits, old, x) \
                if isinstance(t, IntType) else None
            if new is None:
                impl = self.hoist(scalar_binop_impl(rmw, t),
                                  key=("rmw", rmw, id(t)))
                new = f"{impl}({old}, {x})"
            self._emit_cell(ins, t, addr, store=new)
        elif op == "store":
            # A row prologue's store runs once per row, in row order.
            step = self._row_stride(ops[0]) \
                if row_dependent(self.nest.form(ops[0])) else 0
            rows = self.hoist(_store_rows, key=("b", "store_rows"))
            self.line(f"{rows}(_mem, {self.ref(ops[1])},"
                      f" {self._row_stride(ops[1])}, _R, {self._dtype(ops[0].type)},"
                      f" {self.ref(ops[0])}, {step})")
        elif "private" in ins.attrs:
            if op == "vload":
                self._emit_private(ins, ins.type, self.ref(ops[0]), ops[1])
            else:
                self._emit_private(ins, ops[0].type, self.ref(ops[1]), ops[2],
                                   store=self.ref(ops[0]))
        elif op in ("vload", "vstore"):
            self._emit_view(self.windows.get(ins) or self._packed_view(ins))
        elif op == "gather":
            self._emit_gather(ins)
        else:  # scatter
            self.slow_sites += 1
            self.line(
                f"_mem.scatter({self.ref(ops[1])}, {self._type(ops[0].type.elem)},"
                f" {self.ref(ops[0])},"
                f" {self._mask_ref(ops[2], self._mask_lanes(ops[2]))})"
            )

    def _emit_gather(self, ins) -> None:
        """A masked gather as one typed index of the lane view: one range
        test over the active lanes' addresses — at or above the NULL page,
        inside the view, aligned — then ``_w[_x >> shift]`` into the active
        lanes; whatever the test rejects replays the launch.  An element
        without an inline view (i1) calls ``Memory.gather``.  No active
        lane is ``zeros``: ``Memory`` validates nothing then either."""
        addrs, mask = ins.operands
        dst = self.name_of(ins)
        dt = self._dtype(ins.type.elem)
        dtype = self.hoisted[dt]
        lanes = self._mask_lanes(mask)
        if dtype.kind == "b":
            self.slow_sites += 1
            self.line(f"{dst} = _mem.gather({self.ref(addrs)},"
                      f" {self._type(ins.type.elem)},"
                      f" {self._mask_ref(mask, lanes)})")
            return
        count = self._live(ins.type.count) if self.trip else ins.type.count
        zeros = f"{dst} = {self._np(np.zeros)}({count}, {dt})"
        if lanes is not None and not lanes[0]:
            self.line(zeros)
            return
        self.inline_sites += 1
        self.gather_sites += 1
        es = dtype.itemsize
        shift = es.bit_length() - 1
        x, m = self.ref(addrs), self.ref(mask)
        # ``_x``: the active lanes' addresses; ``q``: their element indices.
        q = "_q" if shift else "_x"
        body = [f"_w = _mem.lanes[{_LANE_INDEX[dtype]}]"]
        test = f"{q}.min() < {NULL_GUARD >> shift} or {q}.max() >= " \
            f"{self.hoist(len, key=('b', 'len'))}(_w)"
        if shift:
            body.append(f"_q = _x >> {shift}")
            bor = self.hoist(np.bitwise_or.reduce, key=("np", "or.reduce"))
            test += f" or {bor}(_x) & {es - 1}"
        body += [f"if {test}:", "    " + self._replay("gather")]
        if lanes is not None and lanes[0] == ins.type.count:
            self.line(f"_x = {x}")
            for text in body + ["else:", f"    {dst} = _w[{q}]"]:
                self.line(text)
            return
        self.line(f"_nc = {self._cnz()}({m})")
        self.line("if _nc:")
        for text in [f"_x = {x} if _nc == {count} else {x}[{m}]"] + body + [
                f"elif _nc == {count}:", f"    {dst} = _w[{q}]", "else:",
                f"    {zeros}", f"    {dst}[{m}] = _w[{q}]"]:
            self.line("    " + text)
        self.line("else:")
        self.line("    " + zeros)

    def _emit_scatter_add(self, ins) -> None:
        """A batched serialized atomic (:func:`_scatter_add`) on the trip's
        ``_r`` gangs, checked against every other access of the gang loop:
        its address at the trip's gang 0 (an affine form whose atoms are
        defined before the loop), its per-gang step, its one-gang width."""
        header = self.trip.header
        phi = header.instructions[0]
        forms = AffineForms(self.loops_by_header[header].blocks, phi)
        windows = ""
        for block in self.loops_by_header[header].ordered_blocks():
            for other in block.instructions:
                op = other.opcode
                if op not in _MEMORY_OPS or other is ins:
                    continue
                addr = other.operands[1 if op == "vstore" else 0]
                form = forms.at_entry(addr)
                assert form is not None and op in (
                    "vload", "vstore", "atomicrmw"), other
                width = (other.type if op != "vstore" else other.operands[0]
                         .type).size_bytes() // (self.trip.batch if op[0] == "v"
                                                 else 1)
                terms = [str(c) if m is ONE else ("" if c == 1 else f"{c} * ")
                         + self.ref(phi if m is GANG else m)
                         for m, c in form.items()]
                windows += (f"(({' + '.join(terms) or '0'}) & {_M64:#x},"
                            f" {forms.delta(addr) * self.trip.gang}, {width}),")
        addrs, value, *mask = ins.operands
        mask = self.ref(mask[0]) if mask else "None"
        lane = _LANE_INDEX[elem_dtype(addrs.type.elem.pointee)]
        values = self.ref(value)
        if self.is_known(value) and value.type.is_vector:
            lanes = self.payload(value)
            if (lanes == lanes[0]).all():  # one value for every lane
                values = self.hoist(lanes[0], key=("k0", id(lanes)))
        self.slow_sites += 1
        self.line(f"{self.hoist(_scatter_add, key=('b', 'scatter_add'))}(_mem,"
                  f" {ins.attrs['op'] == 'sub'}, {self.ref(addrs)},"
                  f" {values}, {mask}, {lane}, _r, ({windows}))")

    def _emit_cell(self, ins, t, addr: str, store: Optional[str] = None) -> None:
        """A scalar ``load`` (``store`` is None), ``store``, or — when
        ``store`` reads this instruction's own name — ``atomicrmw``:
        one range test, then ``struct`` straight on the byte buffer; what
        the test rejects replays the launch.  An i1 cell calls ``Memory``."""
        loads = ins.opcode != "store"
        dst = self.name_of(ins) if loads else None
        fmt = _CELL_FORMAT.get(elem_dtype(t).str[1:])
        if fmt is None:
            self.slow_sites += 1
            tref = self._type(t)
            if loads:
                self.line(f"{dst} = _mem.load_scalar({addr}, {tref})")
            if store is not None:
                self.line(f"_mem.store_scalar({addr}, {tref}, {store})")
            return
        self.inline_sites += 1
        cell = struct.Struct(fmt)
        ln = self.hoist(len, key=("b", "len"))
        self.line("_d = _mem.data")
        self.line(f"_e = {addr} + {cell.size}")
        self.line(f"if {NULL_GUARD} <= {addr} and _e <= {ln}(_d):")
        self.indent += 1
        if loads:
            unpack = self.hoist(cell.unpack_from, key=("unpack", fmt))
            self.line(f"{dst} = {unpack}(_d, {addr})[0]")
        if store is not None:
            pack = self.hoist(cell.pack_into, key=("pack", fmt))
            self.line("if _e > _mem._extent:")
            self.line("    _mem._extent = _e")
            self.line(f"{pack}(_d, {addr}, {store})")
        self.indent -= 1
        self.line("else:")
        self.line("    " + self._replay("cell"))

    def _emit_private(self, ins, vtype, addr: str, mask: Value,
                      store: Optional[str] = None) -> None:
        """A ``vload``/``vstore`` of per-gang expanded storage (see
        :mod:`repro.backend.batch`): row ``(addr - alloca) / row_bytes``
        of the trip's ``(rows, G·B)`` array, at live width.  A store whose
        mask covers every lane of the trip writes the row and flags it; any
        other store with an active lane, and a load with an active lane
        from an unflagged row or an offset off the rows, replay the launch
        on the unbatched twin (``_Replay``)."""
        base = _private_alloca(ins)
        rows, row_bytes, _, array, flags = self.trip.privates[base]
        lanes = self._mask_lanes(mask)
        n = self._live(vtype.count)
        if lanes is not None and not lanes[1]:
            if store is None:  # no active lane: nothing read or checked
                self.line(f"{self.name_of(ins)} = {self._np(np.zeros)}("
                          f"{n}, {self._dtype(vtype.elem)})")
            return
        self.inline_sites += 1
        full = lanes is not None and lanes[0] == vtype.count
        mref = self._mask_ref(mask, lanes)
        cnz = self._cnz()
        off = f"_o % {row_bytes} or not 0 <= _k < {rows}"
        self.line(f"_o = {addr} - {self.ref(base)}")
        self.line(f"_k = _o // {row_bytes}")
        if store is not None:
            if not full:
                self.line(f"_nc = {cnz}({mref})")
                self.line("if _nc:")
                self.indent += 1
                off += f" or _nc != {n}"
            self.line(f"if {off}:")
            self.line("    " + self._replay("partial store to private storage"))
            self.line(f"{array}[_k] = {store}")
            self.line(f"{flags}[_k] = 1")
            if not full:
                self.indent -= 1
            return
        dst = self.name_of(ins)
        miss = self.hoist(_private_miss, key=("b", "private_miss"))
        self.line(f"if {off} or not {flags}[_k]:")
        self.line(f"    {dst} = {miss}({mref}, {n},"
                  f" {self._dtype(vtype.elem)})")
        self.line("else:")
        self.line(f"    {dst} = {array}[_k].copy()")
        if not full:
            self.line(f"    if {cnz}({mref}) != {n}:")
            self.line(f"        {dst}[~{mref}] = 0")

    def _cast_copies(self, load: Instruction) -> bool:
        """The loaded slice's only use is an ``.astype`` cast later in the
        same block with no store or call in between: the cast makes the
        copy, so the load may hand it the live view."""
        uses = load.uses
        if len(uses) != 1:
            return False
        user = uses[0][0]
        if not (isinstance(user, Instruction) and user.parent is load.parent
                and user.opcode in VEC_CAST_ASTYPE):
            return False
        block = load.parent.instructions
        between = block[block.index(load) + 1:block.index(user)]
        return all(i.opcode in COMPUTE_OPS or i.opcode == "vload"
                   for i in between)

    # -- window groups (see "Views" in the module docstring) --------------------

    def _static(self, v: Value):
        """The payload of ``v`` if the IR alone fixes it — a constant, or
        a compute op over such — else ``None``; what emission would fold,
        decided before emission starts."""
        if isinstance(v, Constant):
            return self.payload(v)
        if not isinstance(v, Instruction) or v.opcode not in COMPUTE_OPS:
            return None
        memo = self._statics
        if id(v) not in memo:
            memo[id(v)] = None
            args = []
            for o in v.operands:  # no payload past the first runtime one
                args.append(self._static(o))
                if args[-1] is None:
                    break
            else:
                try:
                    memo[id(v)] = value_impl(v)(*args)
                except Exception:
                    pass
        return memo[id(v)]

    def _static_rows(self, v: Value, rows: int):
        """One row's lanes of a static ``v`` whose ``rows`` rows (gangs)
        are equal, as bools — else ``None``."""
        lanes = self._static(v)
        if lanes is None:
            return None
        lanes = np.asarray(lanes, bool).reshape(rows, -1)
        return lanes[0] if (lanes == lanes[0]).all() else None

    def _find_windows(self) -> None:
        """Recognise every window group of the function (before emission:
        a group absorbs instructions of blocks emitted before its own).  A
        collapsed row nest's entry reads its accesses' masks (the no-alias
        check, :meth:`_tail_reach`): there they stay."""
        nests = set()
        for loop in self.loops_by_header.values():
            if "row_nest" in loop.header.instructions[-1].attrs:
                nests.update(loop.blocks)
        for block in self.fn.blocks:
            for ins in block.instructions:
                if ins in self.absorbed:
                    continue
                if ins.opcode == "vload":
                    found = self._load_window(ins)
                elif ins.opcode == "vstore":
                    found = self._store_window(ins)
                else:
                    continue
                if found is not None:
                    win, members, inputs = found
                    if block in nests:
                        inputs += tuple(
                            access.operands[1 if win.load else 2]
                            for access in [ins] + members
                            if access.opcode in ("vload", "vstore"))
                    self._absorb(ins, win, members, inputs)
                    self._members[win] = members
        self._find_copies()

    def _find_copies(self) -> None:
        """Pair a window load with the window store of its block that is
        the only reader of its value (a store of the whole value under
        static masks, lane for lane of the same element type) when no
        memory access or call but the two groups' own lies between them:
        the store then runs both (:meth:`_emit_copy`).  The load moves
        down to the store past pure arithmetic only."""
        loads = {win.value: head for head, win in self.windows.items()
                 if win.load}
        for head, win in self.windows.items():
            source = loads.get(win.value)
            if win.load or source is None or win.mask is not None \
                    or win.narrow or source.parent is not head.parent:
                continue
            load = self.windows[source]
            members = set(self._members[load] + self._members[win])
            if load.elem is win.elem and load.width == win.width \
                    and self._order[source] < self._order[head] \
                    and all(u in members for u, _ in win.value.uses) \
                    and self._window_span(source, head, members | {head}):
                self.copies[win] = load
                self.copied[load] = win

    def _absorb(self, head: Instruction, win: _Window, members,
                inputs) -> None:
        """Enter ``win``, run by its first access ``head``: its other
        ``members`` emit nothing, nor does a compute op all of whose uses
        are absorbed or a group's first access (a gep, a mask's shuffle,
        a tile) — unless some group reads it, as one of its ``inputs``."""
        self.windows[head] = win
        self._inputs.update(map(id, inputs))
        absorbed, heads = self.absorbed, self.windows
        absorbed.update(members)
        work = list(members) + [head]
        while work:
            for v in work.pop().operands:
                if isinstance(v, Instruction) and v not in absorbed \
                        and v.opcode in COMPUTE_OPS \
                        and id(v) not in self._inputs \
                        and all(u in absorbed or u in heads
                                for u, _ in v.uses):
                    absorbed.add(v)
                    work.append(v)

    def _window_span(self, first: Instruction, last: Instruction,
                     members) -> bool:
        """No memory access or call but the group's ``members`` lies from
        ``first`` to ``last`` in their block, so the group may run at
        ``first``."""
        order = self._order
        ins = first.parent.instructions
        for i in ins[order[first] + 1:order[last] + 1]:
            if (i.opcode in _MEMORY_OPS or i.opcode == "call") \
                    and i not in members:
                return False
        return True

    def _window_delta(self, access: Instruction, width: int):
        """A trip's per-gang bytes Δ for ``access`` (its ``row_stride``,
        or its width); ``None`` for a form the group does not cover."""
        if "private" in access.attrs:
            return None
        step = access.attrs.get("row_stride")
        vtype = access.type if access.opcode == "vload" \
            else access.operands[0].type
        return step if isinstance(step, int) \
            else width * vtype.elem.size_bytes()

    @staticmethod
    def _window_addr(access: Instruction, first: Value, offset: int) -> bool:
        """``access`` is ``offset`` elements past ``first``."""
        addr = access.operands[0 if access.opcode == "vload" else 1]
        if not offset:
            return addr is first
        return getattr(addr, "opcode", None) == "gep" \
            and addr.operands[0] is first \
            and isinstance(addr.operands[1], Constant) \
            and addr.operands[1].value == offset

    @staticmethod
    def _stride_of(positions) -> int:
        """``s`` when lane ``l`` is at position ``s·l`` (``s >= 1``), else 0."""
        s = int(positions[1]) if len(positions) > 1 else 1
        ok = s >= 1 and np.array_equal(
            positions, np.arange(len(positions)) * s)
        return s if ok else 0

    def _load_window(self, head: Instruction):
        """``(window, members, inputs)`` when ``head`` starts a window
        load — ``k`` vloads at ``first + j·G`` under static masks, each
        read by a shuffle by one constant selector, chained by selects on
        static picks (the vectorizer's ``_emit_window_load``) — whose
        lanes sit at a stride; else ``None``."""
        if len(head.uses) != 1 or head.uses[0][1]:
            return None
        shuf = head.uses[0][0]
        if shuf.opcode != "shuffle" or not isinstance(shuf.operands[1],
                                                      Constant):
            return None
        index = shuf.operands[1]
        width, count = index.type.count, head.type.count
        rows = count // width
        delta = self._window_delta(head, width)
        if count % width or shuf.type.count != count or delta is None \
                or ("segments" in shuf.attrs) != (rows > 1):
            return None
        block, first = head.parent, head.operands[0]
        loads, members, picks = [head], [shuf], []
        value = shuf
        while len(value.uses) == 1 and value.uses[0][1] == 2:
            sel = value.uses[0][0]
            if sel.opcode != "select" or sel.parent is not block:
                break
            other = sel.operands[1]
            if getattr(other, "opcode", None) != "shuffle" \
                    or len(other.uses) != 1 or other.attrs != shuf.attrs \
                    or not _same_lanes(other.operands[1], index):
                break
            load = other.operands[0]
            pick = self._static_rows(sel.operands[0], rows)
            if getattr(load, "opcode", None) != "vload" or len(load.uses) != 1 \
                    or load.parent is not block or pick is None \
                    or load.type != head.type \
                    or self._window_delta(load, width) != delta \
                    or not self._window_addr(load, first, len(loads) * width):
                break
            loads.append(load)
            picks.append(pick)
            members += [load, other, sel]
            value = sel
        needed = [self._static_rows(load.operands[1], rows) for load in loads]
        if any(keep is None for keep in needed):
            return None
        window = np.zeros(width, np.int64)
        for j, pick in enumerate(picks, 1):
            window[pick] = j
        lanes = np.asarray(index.value, np.int64) % width
        positions = window * width + lanes
        stride = self._stride_of(positions)
        if stride < 2 or not all(needed[j][p] for j, p in zip(window, lanes)) \
                or not self._window_span(head, value, members) \
                or any(self._order[load] < self._order[head]
                       for load in loads):
            return None
        reach = max((j * width + int(keep.nonzero()[0][-1]) + 1
                     for j, keep in enumerate(needed) if keep.any()),
                    default=0)
        win = _Window(True, first, head.type.elem, width, stride, reach,
                      delta, value)
        return win, members, (first,)

    def _packed_view(self, ins: Instruction) -> _Window:
        """A ``vload``/``vstore`` as a window of one access (``k = 1``,
        ``s = 1``, see "Views"): a mask known at emit time and the same in
        every gang gives the lanes each slot needs and its holes; any other
        mask stays a runtime ``mask``."""
        load = ins.opcode == "vload"
        ops = ins.operands
        vtype, addr, mask = (ins.type, ops[0], ops[1]) if load \
            else (ops[0].type, ops[1], ops[2])
        width = vtype.count // (self.trip.batch if self.trip else 1)
        known = self._mask_lanes(mask, vtype.count // width)
        keep = None
        needed = width
        if known is not None:
            active, needed = known
            if active != needed:  # a gang's lanes: the mask's first
                keep = np.array(self.payload(mask)[:needed], bool)
                keep.setflags(write=False)
            mask = None
        return _Window(load, addr, vtype.elem, width, 1, needed,
                       self._window_delta(ins, width), ins if load else ops[0],
                       False, mask, False, needed, keep)

    def _emit_view(self, win: _Window) -> None:
        """One access as one view of the lane memory (see "Views"): the
        range test, a replay in its failing arm, the view in the other.
        In a trip, a window load :meth:`_find_copies` paired
        with a store emits nothing here: the store runs both
        (:meth:`_emit_copy`).  Outside one the pair runs unpaired: numpy
        copies through a temporary only when an assignment's views are
        2-D or more, and overlapping 1-D views of unlike strides would
        read lanes already written."""
        if self.copies and win in self.copied:
            if self.trip:
                return
            del self.copies[self.copied.pop(win)]
        if self.copies and win in self.copies:
            self._emit_copy(self.copies[win], win)
            return
        if not win.needed:
            # No active lane: the address is never validated.
            if win.load:
                count = self._live(win.width * self.trip.batch) \
                    if self.trip else win.width
                self.line(f"{self.name_of(win.value)} = {self._np(np.zeros)}("
                          f"{count}, {self._dtype(win.elem)})")
            return
        head, test, body, _ = self._view_code(win)
        if win.stride > 1:
            self.window_sites += 1
        self.inline_sites += 1
        pad = "    " * self.indent
        self.lines.append(pad + f"\n{pad}".join(
            head + [f"if {test}:", "    " + self._replay("view"), "else:"]
            + ["    " + text for text in body]))

    def _emit_copy(self, load: _Window, store: _Window) -> None:
        """A window load whose value only a window store writes, in a
        trip: when both range tests pass, the store's ``(slots, G)`` view
        is assigned from the load's — no copy of the lanes in between
        (numpy copies through a temporary when the two views overlap, as
        the loaded value did).  Either test failing replays the launch.
        Two window sites, as before pairing."""
        lhead, ltest, _, lview = self._view_code(load)
        shead, stest, sbody, sview = self._view_code(store)
        pad = "    " * self.indent
        self.window_sites += 2
        self.inline_sites += 2
        self.lines += [pad + text for text in lhead]
        self.lines += [pad + text for text in shead if text not in lhead]
        # The store's extent lines, then its view assigned from the load's.
        self.lines += [f"{pad}if {ltest} or {stest}:",
                       f"{pad}    {self._replay('view')}", f"{pad}else:"]
        self.lines += [f"{pad}    {text}" for text in sbody[:-1]]
        self.lines.append(f"{pad}    {sview}[...] = {lview}")

    def _view_code(self, win: _Window):
        """What :meth:`_emit_view` emits for ``win`` (see "Views"):
        ``(head, test, body, view)`` — the lines binding what the range
        ``test`` reads, the in-bounds lines and the view expression."""
        dt = self._dtype(win.elem)
        dtype = self.hoisted[dt]
        es = dtype.itemsize
        width, s, needed, delta = win.width, win.stride, win.needed, win.delta
        step = s * es
        addr = self.ref(win.first)
        trip, nest = self.trip, self.nest
        ln = self.hoist(len, key=("b", "len"))
        # The value's lanes, and the view's: up to the last slot's last
        # needed lane.
        count = self._live(width * trip.batch) if trip else width
        total = count if needed == width else count + needed - width \
            if trip is None else f"{count} - {width - needed}"
        gangs, rho, lead = ("1", "0", "") if trip is None else \
            ("_g", self._row_stride(win.first), "_R, _g") if nest \
            else ("_r", "0", "_r")
        mask = None if win.mask is None \
            else self.ref(win.mask, narrow=win.mask_narrow)
        value = None if win.load else self.ref(win.value, narrow=win.narrow)
        sliced = not lead or not nest and s == 1 and delta == width * es
        keep = offset = None
        if sliced:
            # One evenly spaced run of lanes: a slice of the typed view.
            shift = es.bit_length() - 1
            head = [f"_w = _mem.lanes[{_LANE_INDEX[dtype]}]",
                    f"_i = {addr} >> {shift}" if shift else f"_i = {addr}"]
            test = (f"_i < {NULL_GUARD >> shift} or"
                    f" _i + {count + win.reach - width if trip is None else total}"
                    f" > {ln}(_w)")
            if shift:
                test = f"{addr} & {es - 1} or {test}"
            span = total if s == 1 else s * (total - 1) + 1
            view = f"_w[_i:_i + {span}]" if s == 1 \
                else f"_w[_i:_i + {span}:{s}]"
            shape, part = count, "" if total == count else f"[:{total}]"
            src, where = value and value + part, mask
            if win.keep is not None or trip and needed < width:
                # Holes below the last lane needed: in a trip, also every
                # gang's lanes past its ``needed`` but the last gang's.
                slot = np.zeros(width, bool)
                slot[:needed] = True if win.keep is None else win.keep
                batch = trip.batch if trip else 1
                keep = self.hoist(
                    np.tile(slot, batch)[:batch * width + needed - width])
                if trip:
                    keep = self._view(f"{keep}[:{total}]")
            assign = "{} = {}"
        else:
            nd = self.hoist(np.ndarray, key=("np", "ndarray"))
            offset = f"(_R - 1) * {rho} + (_g - 1) * {delta}" if nest \
                else f"(_r - 1) * {delta}"
            head = ["_d = _mem.data"]
            test = (f"{addr} < {NULL_GUARD} or {addr} + {offset}"
                    f" + {win.reach * es} > {ln}(_d)")
            strides = f"{rho}, {delta}, {step}" if nest else f"{delta}, {step}"
            view = f"{nd}(({lead}, {needed}), {dt}, _d, {addr}, ({strides}))"
            shape = f"({lead}, {width})"
            part = "" if needed == width else f"[..., :{needed}]"
            if win.keep is not None:
                keep = self.hoist(win.keep)
            src = value if win.narrow or value is None \
                else f"{value}.reshape({lead}, {width}){part}"
            where = mask if win.mask_narrow or mask is None \
                else f"{mask}.reshape({lead}, {width})"
            assign = "{}[...] = {}"
        # A row tail's gangs are partial: its masks never set every lane.
        full = mask is None or trip is None or trip.header is not None
        if win.load:
            dst = self.name_of(win.value)
            if mask is None and keep is None and not part or full and mask:
                copy = ".flatten()" if not sliced else \
                    "" if self._cast_copies(win.value) else ".copy()"
                body = [f"{dst} = {view}{copy}"]
                if mask is None:
                    return head, test, body, view
            lanes = [f"{dst} = {self._np(np.zeros)}({shape}, {dt})",
                     f"{dst}{part} = {view}" if where is None and keep is None
                     else f"{self._np(np.copyto)}({dst}{part}, {view},"
                     f" where={where or keep})"]
            if not sliced:
                lanes.append(f"{dst} = {dst}.reshape(-1)")
            if full and mask:
                lanes = [f"if {self._cnz()}({mask}) == {count}:",
                         "    " + body[0], "else:"] \
                    + ["    " + text for text in lanes]
            return head, test, lanes, view
        end = (f"{addr} + {span * es}" if isinstance(span, int) else
               f"{addr} + ({span}) * {es}") if sliced else \
            f"{addr} + {offset} + {(s * (needed - 1) + 1) * es}"
        extent = ["if _e > _mem._extent:", "    _mem._extent = _e"]
        whole = [f"_e = {end}"] + extent + [
            assign.format(view, src) if keep is None else
            f"{self._np(np.copyto)}({view}, {src}, where={keep})"]
        if mask is None:
            return head, test, whole, view
        # A runtime mask: the extent rises to the end of its highest
        # active lane — inline where the mask's lanes lie in one run (a
        # slice, or one gang's mask for the last slot), else the highest
        # over every slot (the gangs' windows may interleave).
        if sliced or win.mask_narrow:
            last = f"{self._int()}({mask}.nonzero()[0][-1])"
            last = f"({last} + 1) * {es}" if s == 1 \
                else f"{last} * {step} + {es}"
        else:
            last = f"{self.hoist(_last_lane_end, key=('b', 'last_lane_end'))}" \
                f"({mask}, {width}, {gangs}, {rho}, {delta}, {es}, {step})"
        base = f"{addr} + {offset}" if win.mask_narrow else addr
        lanes = extent + [f"{self._np(np.copyto)}({view}, {src},"
                          f" where={where})"]
        if not full:  # a row tail: ``_last_lane_end`` is 0 for no lane
            body = [f"_e = {last}", "if _e:", f"    _e += {base}"]
            return head, test, body + ["    " + t for t in lanes], view
        body = [f"_nc = {self._cnz()}({mask})",
                f"if _nc == {width if win.mask_narrow else count}:"] \
            + ["    " + text for text in whole] + ["elif _nc:",
                                                  f"    _e = {base} + {last}"]
        return head, test, body + ["    " + t for t in lanes], view

    def _untile(self, value: Value, rows: int):
        """``(source, [tile])`` when ``value`` is a trip's tile — batching's
        repeat, gang by gang, of a one-gang vector defined before the loop
        — read only once; else ``(value, [])``."""
        if rows > 1 and getattr(value, "opcode", None) == "shuffle" \
                and "segments" not in value.attrs and len(value.uses) == 1:
            source, index = value.operands
            if isinstance(index, Constant) \
                    and index.value == tuple(range(source.type.count)) * rows:
                return source, [value]
        return value, []

    def _window_source(self, value: Value, rows: int):
        """A window store's value — ``shuffle(src, sel)``, or a tile of one
        (``narrow``: one gang's lanes) — as ``(src, sel, narrow,
        members)``, else ``None``."""
        value, tile = self._untile(value, rows)
        if getattr(value, "opcode", None) != "shuffle" or len(value.uses) != 1 \
                or not isinstance(value.operands[1], Constant) \
                or ("segments" in value.attrs) != (rows > 1 and not tile):
            return None
        return value.operands[0], value.operands[1], bool(tile), tile + [value]

    def _store_mask(self, store: Instruction, index: Value, rows: int):
        """A window store's mask as ``(valid, M, narrow)``: its static
        lanes (``M`` is ``None``), or ``and(shuffle(M, index), valid)`` —
        the window's share of the runtime mask ``M`` — or a tile of that
        (``narrow``); else ``None``."""
        bits = store.operands[2]
        valid = self._static_rows(bits, rows)
        if valid is not None:
            return valid, None, False
        bits, tile = self._untile(bits, rows)
        narrow = bool(tile)
        if getattr(bits, "opcode", None) != "and" or len(bits.uses) != 1:
            return None
        for lanes, valid in (bits.operands, bits.operands[::-1]):
            valid = self._static_rows(valid, 1 if narrow else rows)
            if valid is not None and getattr(lanes, "opcode", None) \
                    == "shuffle" and _same_lanes(lanes.operands[1], index) \
                    and ("segments" in lanes.attrs) == (rows > 1 and not narrow):
                return valid, lanes.operands[0], narrow
        return None

    def _store_window(self, head: Instruction):
        """``(window, members, inputs)`` when ``head`` starts a window
        store — vstores of ``shuffle(src, sel_j)`` at ``first + j·G``,
        under static masks or ``and(shuffle(M, sel_j), valid_j)``, that
        write each lane of ``src`` once, at a stride (the vectorizer's
        ``_emit_window_store``) — else ``None``."""
        value, first, _ = head.operands
        if getattr(value, "opcode", None) != "shuffle":
            return None
        count = value.type.count
        width = count // value.attrs["segments"] if "segments" in value.attrs \
            else value.operands[0].type.count
        rows = count // width
        delta = self._window_delta(head, width)
        if count % width or delta is None:
            return None
        insts = head.parent.instructions
        stores = [head]
        for n in range(self._order[head] + 1, len(insts)):
            ins = insts[n]
            if ins.opcode == "vstore" \
                    and self._window_addr(ins, first, len(stores) * width):
                stores.append(ins)
            elif ins.opcode in _MEMORY_OPS or ins.opcode == "call":
                break
        cover = np.zeros(width, np.int64)
        positions = np.zeros(width, np.int64)
        members, sources = [], set()
        for j, store in enumerate(stores):
            found = self._window_source(store.operands[0], rows)
            if found is None or store.operands[0].type != value.type \
                    or self._window_delta(store, width) != delta \
                    or len(found[1].value) != width:
                return None
            src, index, narrow, values = found
            found = self._store_mask(store, index, rows)
            if found is None:
                return None
            valid, mask, mask_narrow = found
            sources.add((id(src), narrow, id(mask), mask_narrow))
            sel = np.asarray(index.value, np.int64) % width
            np.add.at(cover, sel[valid], 1)
            positions[sel[valid]] = j * width + np.nonzero(valid)[0]
            members += values + ([store] if j else [])
        stride = self._stride_of(positions)
        if len(sources) != 1 or stride < 2 or not (cover == 1).all() \
                or not self._window_span(head, stores[-1], members):
            return None
        reach = len(stores) * width if mask is not None \
            else stride * (width - 1) + 1
        win = _Window(False, first, value.type.elem, width, stride, reach,
                      delta, src, narrow, mask, mask_narrow)
        return win, members, (first, src) if mask is None \
            else (first, src, mask)

    def emit_call(self, ins) -> None:
        callee = ins.operands[0]
        args = ", ".join(self.ref(o) for o in ins.operands[1:])
        if isinstance(callee, ExternalFunction):
            # Charges (the 'call' dispatch + ``ext:<name>`` leg, or the
            # batched narrow prototypes) live in the block prologue; only
            # the impl invocation remains here.
            impl = self.hoist(callee.impl, key=("ext", callee.name))
            self.line(f"{self.name_of(ins)} = {impl}({args})")
        else:
            # The callee charges ExecStats directly: flush the local
            # accumulators around the call and re-derive the headroom.
            # (An annotated call's narrow charges are in the prologue.)
            fref = self.callees.get(callee.name)
            if fref is None:
                fref = self.callees[callee.name] = f"_f{len(self.callees)}"
            self.line(_FLUSH)
            self.line(
                f"{self.name_of(ins)} = _exec({fref}, [{args}], depth + 1)"
            )
            self.line("_rem = _L - _s.instructions")

    def emit_pend(self, ins, ba) -> None:
        """Divergent-loop pending activity: the number of gangs with an
        active lane in the loop's continue-mask — each charges one more
        trip, as the unbatched build would — with the gang's lanes inlined
        as a literal.  Counting the active lanes first settles the common
        cases without a per-gang reduction: none, or more than all but
        one gang's lanes (every gang has one; a one-gang trip)."""
        mask = ins.operands[0]
        lid, batch = ba[0], ba[1]
        lanes = mask.type.count // batch
        ref, cnz = self.ref(mask), self._cnz()
        self.line(f"_na = {cnz}({ref})")
        self.line(f"_pend[{lid!r}] = _r if _na > {self._live(mask.type.count)}"
                  f" - {lanes} else {self._int()}({cnz}({ref}.reshape(-1,"
                  f" {lanes}).any(axis=1))) if _na else 0")

    # -- edges -------------------------------------------------------------------

    def emit_phi_moves(self, src: BasicBlock, dst: BasicBlock) -> None:
        """Parallel phi assignment for the ``src``→``dst`` edge.  Phi
        charges are edge-independent and live in ``dst``'s prologue."""
        phis = []
        for ins in dst.instructions:
            if ins.opcode != "phi":
                break
            phis.append(ins)
        if not phis:
            return
        targets = [self.name_of(p) for p in phis]
        exprs = [self.ref(p.phi_value_for(src)) for p in phis]
        self.line(f"{', '.join(targets)} = {', '.join(exprs)}")

    def emit_edge(
        self,
        src: BasicBlock,
        target: BasicBlock,
        stop: Optional[BasicBlock],
        commit: Optional[List[str]] = None,
    ) -> None:
        """Tail-position edge inside a suite: commit + moves + jump/region."""
        for text in commit or ():
            self.line(text)
        self.emit_phi_moves(src, target)
        k = self.kind(target, stop)
        if k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        elif k == "inline":
            self.emit_from(target, stop)
        # "stop": fall out of the suite.

    def _suite(self, emit_fn) -> None:
        self.indent += 1
        mark = len(self.lines)
        emit_fn()
        if len(self.lines) == mark:
            self.line("pass")
        self.indent -= 1

    # -- structure ---------------------------------------------------------------

    def emit_from(self, block: Optional[BasicBlock],
                  stop: Optional[BasicBlock]) -> None:
        """Emit the region starting at ``block`` until control reaches
        ``stop`` (not emitted), a jump, or a return."""
        while block is not None:
            if block is stop:
                return
            loop = self.loops_by_header.get(block)
            if loop is not None and block not in self.open_headers:
                block = self._emit_loop(loop, block, stop)
                continue
            block = self.emit_block(block, stop)

    def _emit_loop(self, loop: Loop, header: BasicBlock,
                   stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Emit one natural loop; returns the inline continuation block
        (for the caller's region walk) or ``None`` when the suite ends.

        Exit edges register on the loop's frame as they are emitted.  One
        distinct target lowers to plain ``break`` + inline continuation;
        several get a dispatch variable assigned at each break site and
        an ``if``/``elif`` exit merge after the loop, whose arms
        re-classify their target one loop level up (this is what retires
        the ``multi-exit-loop`` / ``multi-level-break`` /
        ``multi-level-continue`` bailouts)."""
        outer_trip, outer_nest = self.trip, self.nest
        term = header.instructions[-1]
        trip = self.fn_batched and term.attrs.get("batch_trip")
        if trip:
            self._emit_trip_entry(loop, trip)
        elif self.fn_batched and "row_nest" in term.attrs:
            self._emit_nest_entry(loop, term)
        frame = _LoopFrame(loop)
        self.line("while True:")
        self.open.append(frame)
        self.open_headers.add(header)
        self._suite(lambda: self.emit_from(header, None))
        self.open.pop()
        self.open_headers.discard(header)
        if trip:
            self._close_trip()
        self.trip, self.nest = outer_trip, outer_nest
        targets = frame.targets
        if not targets:
            return None  # infinite loop: nothing after is reachable
        if len(targets) == 1:
            exit_b = targets[0]
            k = self.kind(exit_b, stop)
            if k == "inline":
                return exit_b
            if k == "continue":
                self.line("continue")
            elif k == "break":
                self.emit_break(exit_b)
            return None
        # Dispatch-variable exit merge.
        var = f"_ex{self.exit_counter}"
        self.exit_counter += 1
        for li, ti in reversed(frame.breaks):
            text = self.lines[li]
            ind = text[: len(text) - len(text.lstrip())]
            self.lines.insert(li, f"{ind}{var} = {ti}")
        join = self.pdom.get(header)
        if (
            not isinstance(join, BasicBlock)
            or join in self.emitted
            or self.kind(join, stop) != "inline"
        ):
            join = None
        arm_stop = join if join is not None else stop
        last = len(targets) - 1
        for i, target in enumerate(targets):
            if i == 0:
                self.line(f"if {var} == 0:")
            elif i == last:
                self.line("else:")
            else:
                self.line(f"elif {var} == {i}:")
            self._suite(
                lambda t=target: self._emit_dispatch_arm(t, arm_stop)
            )
        return join

    def _emit_trip_entry(self, loop: Loop, trip: tuple) -> None:
        """Entering a batched gang loop: its trip state and one ``(rows,
        G·B)`` array per alloca it expands (read through a view); its
        views are unbound (in a row nest, from the nest's entry on: what
        they view is defined before the nest)."""
        if self.nest:
            rv = self.nest.rvs[0]
        else:
            rv = self._new_rv()
            self.line(f"{rv} = 0")
        self.trip = _Trip(*trip, loop.header, loop.blocks, rv)
        for block in loop.ordered_blocks():
            for ins in block.instructions:
                rows = ins.attrs.get("private")
                if rows is None:
                    continue
                base = _private_alloca(ins)
                if base not in self.trip.privates:
                    name = self.ref(base)
                    vtype = ins.type if ins.opcode == "vload" \
                        else ins.operands[0].type
                    row_bytes = ins.attrs["row_bytes"]
                    self.trip.privates[base] = (
                        rows, row_bytes, row_bytes // vtype.elem.size_bytes(),
                        self._view(f"_P{name}[:, :{self._live(vtype.count)}]"),
                        f"_F{name}")
                    self.line(f"_P{name} = {self._np(np.empty)}(({rows},"
                              f" {vtype.count}), {self._dtype(vtype.elem)})")

    def _emit_trip_count(self, term) -> None:
        """Entering a trip of the gang loop: ``_r``, the gangs it runs —
        B, or the ``r < B`` left for the predicated last trip — its live
        lanes ``_n``, the views at that width, and no private row stored
        yet."""
        gang, batch = term.attrs["batch_trip"]
        cond = term.operands[0]
        left = f"{self.ref(cond.operands[1])} - {self.ref(cond.operands[0])}"
        gangs = "_g" if self.nest else "_r"
        self.line(f"{gangs} = {batch} if {left} >= {gang * batch} else"
                  f" ({left} + {gang - 1}) >> {gang.bit_length() - 1}")
        if self.nest:
            # The trip runs those gangs of each row of the outer trip.
            self.line("_r = _R * _g")
        self.line(f"_n = _r * {gang}")
        self._mark()
        for rows, _, _, _, flags in self.trip.privates.values():
            self.line(f"{flags} = [0] * {rows}")

    def _emit_writeback(self) -> None:
        """End of a trip (the gang backedge): each expanded alloca's VM
        block gets the last active gang's stored rows."""
        wb = self.hoist(_private_writeback, key=("b", "writeback"))
        for base, (_, _, lanes, array, flags) in self.trip.privates.items():
            self.line(f"{wb}(_mem, {self.ref(base)}, {array}, {flags},"
                      f" {lanes})")

    # -- collapsed row nests -----------------------------------------------------

    def _form_expr(self, form: dict, stride: bool) -> str:
        """An affine form over the nest as Python: its value at the current
        row and gang 0, or (``stride``) its row-index part — the row
        stride."""
        row = self.ref(self.nest.row)
        terms = []
        for m, c in form.items():
            if m is GANG or (stride and not row_monomial(m)):
                continue  # gang 0; a stride keeps the row-index part
            if m is ONE:
                terms.append(str(c))
            elif m is ROW:
                terms.append(str(c) if stride else f"{c} * {row}")
            elif isinstance(m, tuple):  # the row index times an atom
                atom = f"{c} * {self.ref(m[1])}"
                terms.append(atom if stride else f"{atom} * {row}")
            else:
                terms.append(f"{c} * {self.ref(m)}")
        return f"({' + '.join(terms) or '0'})"

    def _row_stride(self, v: Value) -> str:
        """The signed row stride of ``v`` (an address or stored value in
        the nest): a local computed at nest entry, or ``0``."""
        nest = self.nest
        form = nest.form(v)
        part = frozenset((m, c) for m, c in form.items() if row_monomial(m))
        if not part:
            return "0"
        name = nest.strides.get(part)
        if name is None:
            name = nest.strides[part] = f"_rs{len(nest.strides)}"
            half = 1 << 63
            self.line(f"{name} = ({self._form_expr(form, True)} + {half:#x}"
                      f" & {_M64:#x}) - {half:#x}")
        return name

    def _emit_nest_entry(self, loop: Loop, term) -> None:
        """Entering a collapsed row nest: the row strides its accesses
        need, and ``_Rn``, the rows one outer trip runs — ``B // P`` when
        a row's P full gangs fit a trip and the zero-charge no-alias check
        (:func:`_rows_disjoint`) passes, else 1, the unbatched order."""
        gang, batch = term.attrs["row_nest"]
        nest = self.nest = _Nest(loop, gang, batch)
        gang_loop = self.loops_by_header[nest.gang_phi.parent]
        latch = loop.latches[0]
        runs = "True"  # whether the tail runs (its check is row-invariant)
        for block in loop.ordered_blocks():
            check = block.instructions[-1]
            if "row_tail" in check.attrs:
                cond = self.ref(check.operands[0])
                runs = cond if check.operands[2] is latch else f"not {cond}"
        entries = []
        for block in loop.ordered_blocks():
            in_tail = block not in gang_loop.blocks and \
                block.instructions[-1].attrs.get("batch_mult") != ROWS
            if in_tail:
                nest.tail.add(block)
            for ins in block.instructions:
                op = ins.opcode
                if op not in ("vload", "vstore", "atomicrmw", "store"):
                    continue
                addr = ins.operands[1 if op in ("vstore", "store") else 0]
                form = nest.form(addr)
                assert form is not None, ins
                if op in ("vload", "vstore"):
                    vtype = ins.type if op == "vload" else ins.operands[0].type
                    row = vtype.count // batch * vtype.elem.size_bytes()
                    step = ins.attrs.get("row_stride")
                    if block in gang_loop.blocks:
                        step = step if isinstance(step, int) else row
                        hi = f"(_Pn - 1) * {step} + {row} if _Pn else 0"
                    else:
                        hi = self._tail_reach(ins, vtype, batch)
                        hi = f"{hi} if {runs} else 0"
                else:
                    cell = ins.type if op == "atomicrmw" else ins.operands[0].type
                    hi = str(cell.size_bytes())
                    if in_tail:
                        hi = f"{hi} if {runs} else 0"
                    if op == "store" and row_dependent(nest.form(ins.operands[0])):
                        self._row_stride(ins.operands[0])
                entries.append(f"({self._form_expr(form, False)} & {_M64:#x},"
                               f" {self._row_stride(addr)}, {hi}, {op != 'vload'})")
        y, bound = self.ref(nest.row), self.ref(nest.bound)
        gbound = self.ref(nest.gang_phi.parent.instructions[-2].operands[1])
        check = self.hoist(_rows_disjoint, key=("b", "rows_disjoint"))
        self.row_checks = True
        nest.rvs = (self._new_rv(), self._new_rv())
        self.line(f"{nest.rvs[0]} = {nest.rvs[1]} = 0")
        self.line(f"_Pn = ({gbound} + {gang - 1}) >> {gang.bit_length() - 1}")
        self.line(f"_Rn = {bound} - {y} if {y} < {bound} else 0")
        self.line(f"if _Rn < 2 or _Pn > {batch}:")
        self.line("    _Rn = 1")
        self.line(f"elif {check}(_Rn, ({', '.join(entries)},)):")
        self.line(f"    _Rn = {batch} // _Pn if _Pn else {batch}")
        self.line("else:")
        self.line("    _Rn = _fb = 1")

    def _tail_reach(self, ins, vtype, batch: int) -> str:
        """The bytes a row tail's access reaches in one row: up to the
        last lane its mask can set — the same in every row when the mask
        is bounded by one computed before the nest (the tail's launch
        mask, see :func:`_mask_bound`) — else its width."""
        mask = ins.operands[1 if ins.opcode == "vload" else 2]
        width = vtype.count // batch
        es = vtype.elem.size_bytes()
        bound = _mask_bound(mask, self.nest.blocks, {})
        if bound is _EMPTY:
            return "0"
        if bound is None:
            return str(width * es)
        lanes = self._mask_lanes(bound, batch)
        if lanes is not None:
            return str(lanes[1] * es)
        end = self.hoist(_mask_end, key=("b", "mask_end"))
        return f"{es} * {end}({self.ref(bound)}, {width})"

    def _emit_dispatch_arm(self, target: BasicBlock,
                           stop: Optional[BasicBlock]) -> None:
        """One exit-merge arm: the break site already ran the edge's
        commits and phi moves, so only the control transfer remains."""
        k = self.kind(target, stop)
        if k == "inline":
            self.emit_from(target, stop)
        elif k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        # "stop": fall out of the arm into the join continuation.

    def _fold_cond(self, body, term):
        """The trailing body instruction, when it is a single-use scalar
        compare / mask reduction consumed only by this ``condbr`` and
        expressible as a raw truthy Python expression; ``None``
        otherwise."""
        if term.opcode != "condbr" or not body:
            return None
        cond = body[-1]
        if term.operands[0] is not cond or not _uses_exactly(cond, term, 0):
            return None
        op = cond.opcode
        if op in ("mask_any", "mask_all"):
            return cond
        if op not in ("icmp", "fcmp"):
            return None
        if isinstance(cond.operands[0].type, VectorType):
            return None
        pred = cond.attrs["pred"]
        if op == "fcmp":
            return cond if pred in _SCALAR_FCMP else None
        return cond

    def _fold_cond_expr(self, cond) -> str:
        """Raw truthy condition for a folded compare (charges stay in the
        block prologue; the 0/1 local is never materialized)."""
        op = cond.opcode
        if op == "mask_any":
            ba = cond.attrs.get("batch_activity") if self.fn_batched else None
            if ba is not None:
                # The pending gang-activity count is computed anyway and
                # is positive iff any lane is active: branch on it and
                # skip the extra .any() reduction entirely.
                self.emit_pend(cond, ba)
                return f"_pend[{ba[0]!r}]"
            return f"{self._cnz()}({self.ref(cond.operands[0])})"
        if op == "mask_all":
            ba = cond.attrs.get("batch_activity") if self.fn_batched else None
            if ba is not None:  # pragma: no cover - activity sits on mask_any
                self.emit_pend(cond, ba)
            n = cond.operands[0].type.count
            return f"{self._cnz()}({self.ref(cond.operands[0])}) == {n}"
        pred = cond.attrs["pred"]
        a = self.ref(cond.operands[0])
        b = self.ref(cond.operands[1])
        if op == "fcmp":
            return f"{a} {_SCALAR_FCMP[pred]} {b}"
        sym = _CMP_U.get(pred)
        if sym is not None:
            return f"{a} {sym} {b}"
        # XOR with the sign bit maps two's-complement order onto
        # unsigned order (same trick as the scalar inliner).
        sb = 1 << (getattr(cond.operands[0].type, "bits", 64) - 1)
        return f"({a} ^ {sb:#x}) {_CMP_S[pred]} ({b} ^ {sb:#x})"

    def emit_block(self, block: BasicBlock,
                   stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Emit one block's charges + body + terminator; returns the
        inline continuation block, or ``None`` when the suite ends here."""
        # Reducible control flow — all a PsimC program has — never
        # reaches a block twice.
        assert block not in self.emitted, block
        self.emitted.add(block)
        instrs = block.instructions
        if self.nest is not None and block is self.nest.header:
            # The rows this outer trip runs: R, the rows left, or 1 on
            # the last header visit (the exit test charges once).
            y, bound = self.ref(self.nest.row), self.ref(self.nest.bound)
            self.line(f"_R = 1 if {y} >= {bound} else ({bound} - {y}"
                      f" if {bound} - {y} < _Rn else _Rn)")
        self.emit_charges(block)
        nphi = 0
        while nphi < len(instrs) and instrs[nphi].opcode == "phi":
            nphi += 1
        body, term = instrs[nphi:-1], instrs[-1]
        fold = self._fold_cond(body, term)
        for ins in body[:-1] if fold is not None else body:
            if ins in self.absorbed:
                continue  # a window group's: its first access runs it
            op = ins.opcode
            ba = ins.attrs.get("batch_activity") if self.fn_batched else None
            if ba is not None:
                # A divergent backedge's mask_any the condbr does not fold:
                # the trip's gangs with an active lane, and whether any is.
                self.emit_pend(ins, ba)
                self.line(f"{self.name_of(ins)} = 1 if _pend[{ba[0]!r}] else 0")
                continue
            if op == "call":
                self.emit_call(ins)
            elif op in COMPUTE_OPS:
                self.emit_compute(ins)
            else:
                assert op in _MEMORY_OPS, op
                self.emit_memory(ins)
        if fold is not None and fold.opcode in ("icmp", "fcmp") \
                and all(map(self.is_known, fold.operands)):
            self.emit_compute(fold)  # known: the condbr takes one arm
            fold = None
        cond_expr = self._fold_cond_expr(fold) if fold is not None else None
        return self.emit_terminator(block, term, stop, cond_expr)

    def _unreachable_msg(self) -> str:
        return f"reached 'unreachable' in @{self.fn.name}"

    def emit_terminator(self, block: BasicBlock, term,
                        stop: Optional[BasicBlock],
                        cond_expr: Optional[str]) -> Optional[BasicBlock]:
        op = term.opcode
        if op == "ret":
            # A ret inside a batched body charges through the prologue
            # like any other annotated instruction.
            if term.operands:
                v = term.operands[0]
                r = self.ref(v)
                if isinstance(v.type, VectorType) and (
                    isinstance(v, (Constant, UndefValue))
                    or id(v) in self.known
                ):
                    # Shared constant payloads must not leak to callers
                    # who may mutate the returned array.
                    r = f"{r}.copy()"
                self.line(f"return {r}")
            else:
                self.line("return None")
            return None
        if op == "unreachable":
            self.line(f"raise _VMTrap({self._unreachable_msg()!r})")
            return None
        if op == "br" or cond_expr is None \
                and _BRANCH_FORMS.isdisjoint(term.attrs) \
                and self.is_known(term.operands[0]):
            # (A condbr whose condition the emitter knows takes one arm.)
            target = term.operands[0] if op == "br" else term.operands[
                1 if self.payload(term.operands[0]) else 2]
            if self.trip and target is self.trip.header:
                self._emit_writeback()
            self.emit_phi_moves(block, target)
            return self._goto(target, stop)
        assert op == "condbr", op
        cond = (
            cond_expr if cond_expr is not None
            else self.ref(term.operands[0])
        )
        commits: Optional[Tuple[List[str], List[str]]] = None
        backedge = (
            term.attrs.get("batch_backedge") if self.fn_batched else None
        )
        if backedge is not None:
            # Divergent-loop backedge: this block's prologue charged
            # with the *previous* iteration's activity; commit the
            # count the mask reduction just produced before the next
            # iteration (or reset the loop's state on exit).
            lid, taken_idx = backedge
            commit = [f"_act[{lid!r}] = _pend[{lid!r}]"]
            drop = [f"_act.pop({lid!r}, None)", f"_pend.pop({lid!r}, None)"]
            commits = (commit, drop) if taken_idx == 1 else (drop, commit)
        tail = self.nest is not None and "row_tail" in term.attrs
        if tail:
            # A row tail: one predicated trip of a gang per row.
            nest = self.nest
            self.trip = _Trip(nest.gang, nest.batch, None, nest.tail,
                              nest.rvs[1])
            self.line("_g = 1")
            self.line("_r = _R")
            self.line(f"_n = _R * {nest.gang}")
            self._mark()
        body = self.emit_condbr(
            block, cond, term.operands[1], term.operands[2], stop, commits
        )
        if tail:
            self._close_trip()
            self.trip = None
        if self.fn_batched and "batch_trip" in term.attrs:
            # The gang loop's header: the exit was a guarded break,
            # and what follows is its body.
            assert body is term.operands[1], block
            self._emit_trip_count(term)
        return body

    def _goto(self, target: BasicBlock,
              stop: Optional[BasicBlock]) -> Optional[BasicBlock]:
        """Unconditional transfer whose phi moves are already emitted."""
        k = self.kind(target, stop)
        if k == "inline":
            return target
        if k == "continue":
            self.line("continue")
        elif k == "break":
            self.emit_break(target)
        return None

    def emit_condbr(
        self,
        src: BasicBlock,
        cond: str,
        iftrue: BasicBlock,
        iffalse: BasicBlock,
        stop: Optional[BasicBlock],
        commits: Optional[Tuple[List[str], List[str]]],
    ) -> Optional[BasicBlock]:
        """Structured lowering of a conditional branch; returns the inline
        continuation (the join) or ``None`` when the suite ends here."""
        ctrue = commits[0] if commits else None
        cfalse = commits[1] if commits else None
        ka = self.kind(iftrue, stop)
        kb = self.kind(iffalse, stop)

        if ka == "inline" and kb == "inline":
            # Forward diamond: the join is the immediate postdominator.
            join = self.pdom.get(src)
            if (
                isinstance(join, BasicBlock)
                and self.kind(join, stop) == "inline"
            ):
                self.line(f"if {cond}:")
                self._suite(lambda: self.emit_edge(src, iftrue, join, ctrue))
                self.line("else:")
                self._suite(lambda: self.emit_edge(src, iffalse, join, cfalse))
                return join
            # No structural join (both arms return, or converge only at a
            # jump target): every path leaves its suite on its own.
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        if ka != "inline" and kb != "inline":
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        # Exactly one arm is inline.
        if ka == "inline":
            if kb == "stop":
                self.line(f"if {cond}:")
                self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
                self.line("else:")
                self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
                return None
            # False arm jumps; flatten: guard the jump, fall through inline.
            self.line(f"if not ({cond}):")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            for text in ctrue or ():
                self.line(text)
            self.emit_phi_moves(src, iftrue)
            return iftrue
        if ka == "stop":
            self.line(f"if {cond}:")
            self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
            self.line("else:")
            self._suite(lambda: self.emit_edge(src, iffalse, stop, cfalse))
            return None
        # True arm jumps; flatten.
        self.line(f"if {cond}:")
        self._suite(lambda: self.emit_edge(src, iftrue, stop, ctrue))
        for text in cfalse or ():
            self.line(text)
        self.emit_phi_moves(src, iffalse)
        return iffalse

    # -- entry -------------------------------------------------------------------

    def emit(self) -> Tuple[str, Dict[str, object]]:
        fn = self.fn
        size = sum(len(b.instructions) for b in fn.blocks)
        if size > MAX_CODEGEN_INSTRS:
            raise CodegenBailout("function-too-large")
        with np.errstate(all="ignore"):  # as generated code will run
            self._find_windows()
            self.emit_from(fn.entry, None)
        body: List[str] = []
        for text in self.lines:
            if _FLUSH not in text:
                if text:  # an empty view slot (see :meth:`_close_trip`)
                    body.append(text)
                continue
            # Internal-call flush: push the local accumulators into
            # ExecStats and reset them (the key set is only complete now).
            ind = text[: len(text) - len(text.lstrip())]
            body.append(f"{ind}_s.cycles += _cy")
            body.append(f"{ind}_s.instructions += _ni")
            body.append(f"{ind}_cy = 0.0")
            body.append(f"{ind}_ni = 0")
            for key, name in self.count_locals.items():
                body.append(f"{ind}if {name}:")
                body.append(f"{ind}    _c[{key!r}] = _c.get({key!r}, 0) + {name}")
                body.append(f"{ind}    {name} = 0")
        head: List[str] = []
        if fn.args:
            names = ", ".join(self.names[a] for a in fn.args)
            head.append(f"    {names}{',' if len(fn.args) == 1 else ''} = _args")
        head.append("    _s = _interp.stats")
        head.append("    _c = _s.counts")
        head.append("    _mem = _interp.memory")
        if self.callees:
            head.append("    _exec = _interp._exec_function")
            head.append("    _fns = _interp.module.functions")
            for callee, local in self.callees.items():
                head.append(f"    {local} = _fns[{callee!r}]")
        head.append("    _L = _interp.max_instructions")
        head.append("    _rem = _L - _s.instructions")
        head.append("    _mk = _mem._brk")
        head.append("    _cy = 0.0")
        head.append("    _ni = 0")
        if self.count_locals:
            head.append(
                "    " + " = ".join(self.count_locals.values()) + " = 0"
            )
        if self.row_checks:
            head.append("    _fb = 0")
        if self.activity:
            head.append("    _act = {}")
            head.append("    _pend = {}")
        tail = ["    finally:", "        _mem._brk = _mk"]
        if self.raises_fp_flags:
            # The inlined forms rely on the errstate the impls install
            # per call; integer-only kernels have nothing to silence.
            seterr = self.hoist(np.seterr, key=("np", "seterr"))
            head.append(f"    _es = {seterr}(all='ignore')")
            tail.append(f"        {seterr}(**_es)")
        head.append("    try:")
        tail += ["        _s.cycles += _cy", "        _s.instructions += _ni"]
        if self.row_checks:
            # A launch in which a row nest's no-alias check failed.
            tail.append("        _interp.row_fallbacks += _fb")
        for key, name in self.count_locals.items():
            tail.append(f"        if {name}:")
            tail.append(f"            _c[{key!r}] = _c.get({key!r}, 0) + {name}")
        params = ", ".join(f"{k}={k}" for k in self.hoisted)
        kinds: Dict[str, int] = {}
        for key in self._memo:
            kind = key[0] if isinstance(key, tuple) else "obj"
            kinds[kind] = kinds.get(kind, 0) + 1
        # What --dump-codegen (examples/fig*_report.py) reads back.
        summary = (
            f"    # folded={self.folded} inline={self.inline_sites}"
            f" slow={self.slow_sites}"
            + (f" windows={self.window_sites}" if self.window_sites else "")
            + (f" gathers={self.gather_sites}" if self.gather_sites else "")
            + " hoisted: "
            + " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        )
        source = (
            f"def _kfn(_interp, _args, depth, {params}):\n"
            + "\n".join([summary] + head + body + tail)
        )
        return source, self.hoisted


def lower_function(function: Function, machine, cost_model,
                   fingerprint=None):
    """The generated callable for ``function`` on ``machine`` under
    ``cost_model``: ``(kfn, origin)``, to be called as
    ``kfn(interp, argvals, depth)``.

    Raises :class:`CodegenBailout` when there is none: the emitter refused
    the function (its reason), or emission, ``compile()`` or binding
    raised (``error:<exception type>``).

    ``fingerprint`` is the compile key of the module ``function`` belongs
    to (``Module.fingerprint``), which fixes its IR.  With one, the
    outcome — ``(source, kfn)`` or the reason — is memoized in the
    bounded process-wide LRU under ``(fingerprint, function name,
    machine, cost model)``: a kernel compiled again, by another
    interpreter or after its module left the compile cache, emits,
    compiles and binds nothing (``origin == "cache"``).  Otherwise
    ``origin`` says where the code object came from (see
    :func:`compiled_code`).  Without a fingerprint (hand-built IR, a
    fault-plan build, the unbatched twin) each call emits afresh.
    """
    (_, kfn), origin = _lowered(function, machine, cost_model, fingerprint)
    return kfn, origin


def generated_source(function: Function, machine, cost_model,
                     fingerprint=None) -> str:
    """The Python source :func:`lower_function` binds for ``function``
    (from the code cache when ``fingerprint`` has it); raises
    :class:`CodegenBailout` like it."""
    return _lowered(function, machine, cost_model, fingerprint)[0][0]


def _lowered(function: Function, machine, cost_model, fingerprint):
    """``((source, kfn), origin)`` for :func:`lower_function`."""
    key = None
    if fingerprint is not None:
        key = (fingerprint, function.name, machine, cost_model)
        outcome = _CODE_CACHE.get(key)
        if outcome is not None:
            _CODE_CACHE.move_to_end(key)
            if type(outcome) is str:
                raise CodegenBailout(outcome)
            return outcome, "cache"
    try:
        source, bindings = _Emitter(function, machine, cost_model).emit()
        code, origin = compiled_code(source, function.name)
        outcome = (source, _bind(code, bindings))
        _show_source(*outcome)
    except CodegenBailout as exc:
        outcome = exc.reason
    except Exception as exc:  # an emitter bug, or a source compile() refuses
        outcome = f"error:{type(exc).__name__}"
    if key is not None:
        _remember(key, outcome)
    if type(outcome) is str:
        raise CodegenBailout(outcome)
    return outcome, origin


def _remember(key: tuple, outcome) -> None:
    """Enter ``outcome`` in the LRU, evicting past the cap."""
    _CODE_CACHE[key] = outcome
    while len(_CODE_CACHE) > CODE_CACHE_ENTRIES:
        _CODE_CACHE.popitem(last=False)


#: Generated-source filename → how many bound functions compiled under it
#: are alive; its :mod:`linecache` entry goes with the last of them.
_LIVE_SOURCES: Dict[str, int] = {}


def _show_source(source: str, kfn) -> None:
    """Show ``source`` to :mod:`linecache` under the filename ``kfn`` was
    compiled with, for as long as ``kfn`` (or another function bound from
    the same source) lives — every bound emission, cached or not."""
    filename = kfn.__code__.co_filename
    _LIVE_SOURCES[filename] = _LIVE_SOURCES.get(filename, 0) + 1
    # mtime None: ``linecache.checkcache`` leaves the entry alone.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    weakref.finalize(kfn, _hide_source, filename)


def _hide_source(filename: str) -> None:
    live = _LIVE_SOURCES.pop(filename) - 1
    if live:
        _LIVE_SOURCES[filename] = live
    else:
        linecache.cache.pop(filename, None)


def clear_code_cache() -> None:
    """Drop every memoized outcome (and its :mod:`linecache` entry).
    Functions already bound keep working; the next lowering of a kernel
    emits and compiles it again."""
    for outcome in _CODE_CACHE.values():
        if type(outcome) is not str:
            linecache.cache.pop(outcome[1].__code__.co_filename, None)
    _CODE_CACHE.clear()


def compiled_code(source: str, name: str) -> Tuple[object, str]:
    """Code object for a generated source: disk → compile.

    Returns ``(code, origin)`` with origin ``"disk"`` or ``"compiled"``
    for the ``vm.codegen.*`` counters.  ``name`` (the IR function's) goes
    into the filename a fresh compile gets.
    """
    code = diskcache.load_code(source)
    if code is not None:
        return code, "disk"
    digest = hashlib.sha256(source.encode()).hexdigest()[:8]
    code = compile(source, f"<repro-vm-codegen:{name}:{digest}>", "exec")
    diskcache.store_code(source, code)
    return code, "compiled"


def _bind(code, bindings: Dict[str, object]):
    """Bind a compiled code object to its emission's payloads: once per
    emission, for every interpreter that will ever run it."""
    # The bindings are evaluated as ``_kfn``'s default arguments out of a
    # throwaway *locals* dict; its globals hold nothing but builtins, so
    # the function is not reachable from its own globals (a cycle only
    # the cyclic collector could free).  Empty-ish builtins keep emitted
    # code honest (every name must be a hoisted binding), but numpy's
    # lazy C-level imports resolve __import__ through the *calling*
    # frame's builtins — leave it in or the first .sum()/.any() ever run
    # inside generated code dies with KeyError('__import__').
    scope = dict(bindings)
    exec(code, {"__builtins__": {"__import__": __import__}}, scope)
    return scope["_kfn"]
