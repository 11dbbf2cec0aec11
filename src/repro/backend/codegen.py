"""Whole-kernel codegen: one generated Python function per IR function.

The default tier of the three-tier VM (reference → predecoded →
codegen, see :mod:`repro.vm.interp`) and the only module in the tree
that generates source and calls ``compile()`` on it.  The predecoded
engine pays a Python-level fetch/decode step at every basic-block
boundary: a dict lookup for the decoded block, per-phi resolver calls,
tuple unpacks per body entry, and a terminator dispatch.  This module
retires that loop — at decode time it *linearizes* a function's
structurized CFG into a single generated Python function over the live
payloads; what it cannot express bails out to the predecoded engine,
and what traps replays there:

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
  call); everything else calls a pre-resolved :func:`_value_impl`
  closure.  A body that contains a float or an integer-division op runs
  under a saved/restored ``np.seterr(all="ignore")`` so the inlined
  forms match the impls' per-call ``errstate`` guards; an integer-only
  kernel can raise no floating-point flag and gets no ``seterr`` pair;
* memory accesses are specialized at emit time (see "Memory access"
  below): dtype, byte count and — when the mask is known — which lanes
  the access needs are resolved by the emitter, and the in-bounds case
  runs inline against the interpreter's buffer;
* gang-batched blocks inline their narrow-prototype charging
  (multiplicity × per-item cost) exactly as the reference engine
  interprets it; divergent-loop activity state lives in *specialized
  Python locals* (``_a0``/``_p0``) with the batch factor, gang width,
  and mask reshape emitted as literals (batch-factor specialization) —
  the activity-dict protocol only remains as a fallback for shapes the
  specializer cannot prove.

Accounting contract
-------------------

``ExecStats`` stays bit-identical to the reference engine for every run
that completes, and the trap-replay protocol covers the rest:

* a block's charges are a **static histogram of its IR**: what the
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
* batched blocks fold their narrow-prototype charges the same way,
  grouped by multiplicity spec: static multiplicities fold at emit time,
  divergent ones resolve through the specialized activity locals
  (activity is constant within a block — it only changes at backedge
  commits);
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
  rolls back on any ``VMTrap``/``MemoryError_`` (including the partial
  flush the ``finally`` performed on the way out), and re-runs on the
  predecoded twin (``codegen=False``), whose outcome is authoritative —
  the same contract gang batching established.  The interpreter arms the
  codegen engine *only* inside that wrapper, so fault-injected and
  sharded runs (which skip the wrapper) transparently use the decoded
  engine.

Bailout taxonomy
----------------

Linearization is best-effort: any shape the structurer cannot express as
native Python control flow raises :class:`CodegenBailout` with a reason
and the function falls back to the decoded engine.  Reasons are tallied
per interpreter and surface as ``vm.codegen.bailouts`` telemetry.

Retired (now compiled): ``multi-exit-loop``, ``multi-level-break`` and
``multi-level-continue`` (dispatch-variable exit merge), ``ret`` inside
batched bodies, and mixed annotated/plain batched blocks (charged
per-instruction exactly as the reference engine does).

Kept deliberately: ``function-too-large`` / ``deep-nesting`` (size
guards), ``block-re-emitted`` (irreducible control flow the dispatch
merge cannot structure), ``no-terminator`` / ``use-before-def``
(malformed IR), ``batched-internal-call`` (an *annotated* internal call
has no narrow-prototype emission), and ``injected-fault`` (fault plans
must not be double-counted through generated code).

Emit-time folding
-----------------

The emitter keeps a map of SSA values whose payload it knows
(:attr:`_Emitter.known`): IR ``Constant`` s, and any ``_COMPUTE_OPS``
instruction all of whose operands are known.  Such an instruction is
evaluated once, with its own :func:`_value_impl` closure — the single
definition of every op the folder evaluates — under
``errstate(all="ignore")``; the result is hoisted read-only (every
launch shares it) and no line is emitted.  An evaluation that raises is
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
``# folded=N inline=N slow=N hoisted: kind=N ...`` — that
``examples/fig5_report.py --dump-codegen KERNEL`` reads back.

Memory access
-------------

For ``load``/``store``/``atomicrmw`` the emitter resolves the cell's
``struct`` format from the IR type and emits one range test and the
access itself: ``unpack_from``/``pack_into`` on the byte buffer under
``16 <= addr and end <= len(_mem.data)``.

For ``vload``/``vstore`` it resolves lane dtype and count, and — when
the mask is *known* (a constant, or folded from constants) — how many
lanes are active, ``needed`` (one past the last active lane: bounds are
only required up to there, as in :class:`~repro.vm.memory.Memory`) and
whether there are holes below it.  The access is one range test in lane
units over ``needed`` lanes plus an alignment bit, then a slice of the
typed view ``_mem.lanes[i]``: all lanes → slice copy / slice assign; a
prefix → ``zeros`` + slice assign / ``values[:needed]``; holes →
``copyto(..., where=KEEP)`` with the hoisted keep-vector; no active
lane → ``zeros`` / nothing at all, the address never validated.  A
*runtime* mask joins the range test (``count_nonzero(mask) == count``)
and takes the all-active form.

Whatever the test rejects — NULL page, out of bounds, an address past
the physical buffer, a misaligned packed address, a runtime mask with
a lane clear — and every form that is not resolved at emit time
(gather, scatter, i1 cells) calls the one implementation in
:class:`~repro.vm.memory.Memory`, with the *original* mask: it owns
trap text, lane order, trap-before-any-write, growth and the
``faultinject`` hook (``load_lanes``/``store_lanes`` take a pre-resolved
dtype; gather/scatter under a known all-true mask pass ``None`` for
it).  The inline paths skip the fault hook: generated code runs only
under ``Interpreter._run_replayable``, which ``Interpreter.run`` never
enters while a fault plan is armed.

Caching and ownership
---------------------

A generated function is a pure function of *(function, machine, cost
model)*: it takes the interpreter as its first argument and reads
``stats``, ``memory``, ``max_instructions`` (and ``_exec_function`` when
it makes internal calls) from it in the prologue; everything else —
payloads, impls, dtypes — binds once, at ``exec`` time, through default
arguments.  So one emission serves every interpreter: the entry on
``Function._emissions`` (``(machine, cost_model, fingerprint, source,
kfn, reason)``) owns the bound callable (and through it the code
object), the compile cache hands every caller the same frozen module,
identity finds the entry, and a second ``Interpreter`` over the same
module does no emission work at all.  Entries live exactly as long as
their module — no process-global table references IR — and a generated
function references no interpreter, so there is no cycle to avoid.
Module → function → emission → (code, callable); interpreters own only
stats and memory.

Entries carry a **batch fingerprint** — the ``batched`` attr plus the
count of annotated instructions — so a bailout or emission memoized
against one batching configuration of a *mutable* function never
answers for another (an attrs-only mutation is invisible to identity).
A frozen function cannot change, and freezing drops whatever was emitted
while it was mutable, so its entries need no fingerprint walk.

Source → code object is a bounded process-wide LRU
(:data:`CODE_CACHE_ENTRIES`), persisted across processes by
:mod:`repro.diskcache` (``store_code``/``load_code``).  Each source
compiles under its own filename, ``<repro-vm-codegen:NAME:DIGEST8>``,
registered with :mod:`linecache` for as long as the LRU holds it, so
profiles name the kernel and tracebacks show the emitted line.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
import struct
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import diskcache
from ..ir.cfg import Loop, find_loops, reverse_postorder
from ..ir.instructions import (
    ATOMIC_RMW_OPS,
    CAST_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    Instruction,
    REDUCE_OPS,
    UNARY_OPS,
)
from ..ir.module import BasicBlock, ExternalFunction, Function
from ..ir.types import FloatType, IntType, VectorType
from ..ir.values import Constant, UndefValue, Value
from ..vm.interp import (
    ExecutionLimitExceeded,
    _constant_payload,
    _undef_payload,
    batch_charge_items,
    reduce_lanes,
)
from ..vm.memory import LANE_DTYPES, NULL_GUARD
from ..vm.nputil import (
    as_unsigned,
    count_nonzero,
    elem_dtype,
    mask_int,
    signed_dtype,
    signed_view,
    to_signed,
)
from ..vm.ops import (
    VMTrap,
    _c_float,
    eval_scalar_cast,
    eval_scalar_unop,
    eval_vector_cast,
    eval_vector_fcmp,
    eval_vector_icmp,
    eval_vector_unop,
    round_float,
    scalar_binop_impl,
    scalar_fcmp_impl,
    scalar_icmp_impl,
    vector_binop_impl,
)

__all__ = ["CodegenBailout", "lower_function", "forget_emission",
           "compiled_code", "clear_code_cache"]

#: Emission refuses functions above this static instruction count — the
#: generated source would dwarf the decode win and slow ``compile()``.
MAX_CODEGEN_INSTRS = 8000

#: Emission refuses nesting deeper than this (the CPython tokenizer caps
#: indentation at 100 levels; structured kernels sit far below this).
MAX_NESTING = 40

#: Virtual exit node for the postdominator computation.
_EXIT = object()

#: Marker line expanded into an accumulator flush+reset in :meth:`emit`
#: (the full set of counter locals is only known once emission finishes).
_FLUSH = "\x00flush"

#: Most generated sources the process keeps compiled at once.  The whole
#: fig4 + fig5 suite, batched and unbatched, is under 200 sources.
CODE_CACHE_ENTRIES = 512

#: Generated source → compiled code object, least recently used first
#: (the source embeds no payloads, so the code is shareable).
_CODE_CACHE: "OrderedDict[str, object]" = OrderedDict()

_BINOPS = INT_BINOPS | FLOAT_BINOPS

#: Every body opcode :func:`_value_impl` can compute: all of them except
#: ``call`` (calls re-enter the interpreter, see ``emit_call``) and the
#: memory ops (``emit_memory`` writes those against ``_mem``).
_COMPUTE_OPS = frozenset(
    _BINOPS | UNARY_OPS | CAST_OPS | REDUCE_OPS
    | {
        "icmp", "fcmp", "select", "fma", "gep", "broadcast",
        "extractelement", "insertelement", "shuffle", "shuffle2", "sad",
        "mask_any", "mask_all", "mask_popcnt",
    }
)

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
#: Vector fcmp inlines the ordered-mask form of ops.eval_vector_fcmp;
#: unlike the scalar table, ``one`` is safe here (the explicit
#: ``~(isnan|isnan)`` mask owns the NaN behaviour, not the operator).
_VEC_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
             "ogt": ">", "oge": ">="}
#: Vector casts that are a single ``.astype`` in ops.eval_vector_cast.
_VEC_CAST_ASTYPE = frozenset(
    ("ptrtoint", "inttoptr", "trunc", "zext", "fptrunc", "fpext", "uitofp")
)

#: Integer compare predicate → operator, shared by the scalar inliner,
#: the vector inliner and the condbr-condition fold (signed forms apply
#: after a sign-bit XOR, or to a signed view of the lanes).
_CMP_U = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
          "ugt": ">", "uge": ">="}
_CMP_S = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
#: Ordered *scalar* fcmp preds where the Python operator already yields
#: False on NaN, matching eval_scalar_fcmp's unordered→0 rule ("one" is
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
    """This function's CFG or opcode mix cannot be linearized; the caller
    falls back to the decoded engine and records ``reason``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _budget_trap(interp, fname: str):
    """Raise the budget trap exactly as the dispatch loops word it."""
    limit = interp.max_instructions
    raise ExecutionLimitExceeded(f"exceeded {limit} instructions in @{fname}")


def _uses_exactly(value: Value, user, idx: int) -> bool:
    """True iff ``value`` has exactly one use: operand ``idx`` of ``user``."""
    uses = value.uses
    return len(uses) == 1 and uses[0][0] is user and uses[0][1] == idx


def _binop_impl(instr: Instruction):
    """One pre-resolved 2-arg callable for a scalar or vector binop."""
    if isinstance(instr.type, VectorType):
        return vector_binop_impl(instr.opcode, instr.type.elem)
    return scalar_binop_impl(instr.opcode, instr.type)


def _value_impl(instr: Instruction):
    """A value-level callable ``fn(*operand_payloads) -> payload``.

    Unlike :meth:`Interpreter._decode_instr` thunks, these do not read
    ``env`` — the emitter wires operands itself (every SSA value is a
    Python local).  Defined for every ``_COMPUTE_OPS`` opcode; operands
    map positionally.  The closures depend on the instruction alone.
    """
    op = instr.opcode
    ops = instr.operands
    vec = isinstance(instr.type, VectorType)

    if op in _BINOPS:
        return _binop_impl(instr)
    if op in UNARY_OPS:
        if vec:
            elem = instr.type.elem
            return lambda a: eval_vector_unop(op, elem, a)
        t = instr.type
        return lambda a: eval_scalar_unop(op, t, a)
    if op == "icmp":
        pred = instr.attrs["pred"]
        src_t = ops[0].type
        if isinstance(src_t, VectorType):
            elem = src_t.elem
            return lambda a, b: eval_vector_icmp(pred, elem, a, b)
        return scalar_icmp_impl(pred, src_t)
    if op == "fcmp":
        pred = instr.attrs["pred"]
        if isinstance(ops[0].type, VectorType):
            return lambda a, b: eval_vector_fcmp(pred, a, b)
        return scalar_fcmp_impl(pred)
    if op in CAST_OPS:
        from_t, to_t = ops[0].type, instr.type
        if isinstance(to_t, VectorType):
            from_e, to_e = from_t.elem, to_t.elem
            return lambda v: eval_vector_cast(op, from_e, to_e, v)
        return lambda v: eval_scalar_cast(op, from_t, to_t, v)
    if op == "select":
        if isinstance(ops[0].type, VectorType) or vec:
            return lambda c, a, b: np.where(c, a, b)
        return lambda c, a, b: a if c else b
    if op == "fma":
        if vec:
            return lambda a, b, c: a * b + c
        t = instr.type
        return lambda a, b, c: round_float(t, round_float(t, a * b) + c)
    if op == "gep":
        bits = ops[1].type.bits
        esize = instr.type.pointee.size_bytes()
        return lambda base, idx: mask_int(
            base + to_signed(idx, bits) * esize, 64
        )
    if op == "broadcast":
        count = instr.type.count
        dtype = elem_dtype(instr.type.elem)
        return lambda s: np.full(count, s, dtype=dtype)
    if op == "extractelement":
        if instr.type.is_float:
            return lambda v, i: float(v[int(i) % len(v)])
        return lambda v, i: int(v[int(i) % len(v)])
    if op == "insertelement":
        def _insert(v, i, e):
            v = v.copy()
            v[int(i) % len(v)] = e
            return v
        return _insert
    if op == "shuffle":
        return lambda a, i: a[i.astype(np.int64) % len(a)]
    if op == "shuffle2":
        def _shuffle2(lo, hi, i):
            both = np.concatenate([lo, hi])
            return both[i.astype(np.int64) % len(both)]
        return _shuffle2
    if op == "sad":
        def _sad(a, b):
            diffs = np.abs(
                a.astype(np.int64) - b.astype(np.int64)
            ).reshape(-1, 8).sum(axis=1)
            return diffs.astype(np.uint64)
        return _sad
    if op in REDUCE_OPS:
        return lambda v: reduce_lanes(op, instr, v)
    if op == "mask_any":
        return lambda m: 1 if count_nonzero(m) else 0
    if op == "mask_all":
        return lambda m: 1 if count_nonzero(m) == len(m) else 0
    if op == "mask_popcnt":
        return lambda m: int(count_nonzero(m))

    raise NotImplementedError(f"codegen: opcode {op}")


def _postdominators(function: Function) -> Dict[BasicBlock, object]:
    """Immediate postdominators of the reachable CFG (Cooper–Harvey–
    Kennedy on the reverse graph, with a virtual exit joining every
    ``ret``/``unreachable`` block).  Blocks that cannot reach an exit
    (infinite loops) are absent from the result.
    """
    reachable = reverse_postorder(function)
    reachable_set = set(reachable)
    exits = [
        b for b in reachable
        if b.instructions and b.instructions[-1].opcode in ("ret", "unreachable")
    ]
    # Reverse-graph successors: CFG predecessors (restricted to reachable).
    rsucc: Dict[object, List[object]] = {
        b: [p for p in b.predecessors if p in reachable_set] for b in reachable
    }
    rsucc[_EXIT] = list(exits)

    # Postorder of the reverse graph from the virtual exit (iterative).
    visited: Set[object] = {_EXIT}
    postorder: List[object] = []
    stack: List[Tuple[object, object]] = [(_EXIT, iter(rsucc[_EXIT]))]
    while stack:
        _node, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, iter(rsucc[nxt])))
                advanced = True
                break
        if not advanced:
            postorder.append(stack.pop()[0])
    rpo = postorder[::-1]
    index = {b: i for i, b in enumerate(rpo)}
    ipdom: Dict[object, object] = {_EXIT: _EXIT}

    def intersect(b1: object, b2: object) -> object:
        while b1 is not b2:
            while index[b1] > index[b2]:
                b1 = ipdom[b1]
            while index[b2] > index[b1]:
                b2 = ipdom[b2]
        return b1

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is _EXIT:
                continue
            # Reverse-graph predecessors: CFG successors (+ the virtual
            # exit edge for exit blocks).
            preds: List[object] = [
                s for s in block.successors
                if s in reachable_set and ipdom.get(s) is not None
            ]
            if block.instructions and block.instructions[-1].opcode in (
                "ret", "unreachable"
            ):
                preds.append(_EXIT)
            if not preds:
                continue
            new = preds[0]
            for p in preds[1:]:
                new = intersect(p, new)
            if ipdom.get(block) is not new:
                ipdom[block] = new
                changed = True
    ipdom.pop(_EXIT, None)
    return ipdom


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
        self._cost = functools.partial(cost_model.cost, machine=machine)
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
        #: An internal call was emitted: the prologue binds ``_exec``.
        self.calls_internal = False
        self._memo: Dict[object, str] = {}
        #: ``id(value)`` → payload known at emit time (see "Emit-time
        #: folding"): folded instructions, and constants once something
        #: asked for their payload.  Knownness itself never builds one;
        #: identity keys spare constants their by-value hash and compare.
        self.known: Dict[int, object] = {}
        self.folded = 0
        #: Inline / ``Memory``-only access sites, for the source header.
        self.inline_sites = 0
        self.slow_sites = 0
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
        self.pdom = _postdominators(function)
        #: Counter key → integer accumulator local (``_k0``…).
        self.count_locals: Dict[str, str] = {}
        self.exit_counter = 0
        self._scan_batch_shapes()

    # -- divergent-activity specialization ---------------------------------------

    def _scan_batch_shapes(self) -> None:
        """Decide whether divergent-loop activity state can live in
        specialized Python locals instead of the ``_act``/``_pend`` dict
        protocol.

        Locals mode needs every loop id to commit from exactly one loop's
        latch and every multiplicity-spec tail to be consistent; a *clean*
        lid (its loop's only exiting edge is the committing latch) is
        additionally re-initialized at loop entry so reads collapse to
        the bare local.  Anything the scan cannot prove falls back to the
        dict protocol, which mirrors the reference engine move for move.
        """
        self.act_ok = False
        self.lid_act: Dict[str, str] = {}
        self.lid_pend: Dict[str, str] = {}
        self.lid_clean: Dict[str, bool] = {}
        self.lid_tail: Dict[str, tuple] = {}
        self.loop_lid_entries: Dict[BasicBlock, List[str]] = {}
        if not self.fn_batched:
            return
        ok = True
        lids_seen: Set[str] = set()
        tails: Dict[str, tuple] = {}
        for b in self.fn.blocks:
            for ins in b.instructions:
                bm = ins.attrs.get("batch_mult")
                if isinstance(bm, tuple):
                    for x in bm:
                        if isinstance(x, str):
                            lids_seen.add(x)
                    first = bm[0]
                    if isinstance(first, str):
                        prev = tails.get(first)
                        if prev is None:
                            tails[first] = bm[1:]
                        elif prev != bm[1:]:
                            ok = False
                ba = ins.attrs.get("batch_activity")
                if ba is not None:
                    lids_seen.add(ba[0])
                be = ins.attrs.get("batch_backedge")
                if be is not None:
                    lids_seen.add(be[0])
        committed: Set[str] = set()
        entries: Dict[BasicBlock, List[str]] = {}
        clean: Dict[str, bool] = {}
        for loop in self.loops_by_header.values():
            latches = loop.latches
            exiting = set(loop.exiting_blocks())
            for latch in latches:
                if not latch.instructions:
                    continue
                be = latch.instructions[-1].attrs.get("batch_backedge")
                if be is None:
                    continue
                lid = be[0]
                if lid in committed:
                    ok = False  # one lid committed by two loops
                committed.add(lid)
                entries.setdefault(loop.header, []).append(lid)
                clean[lid] = len(latches) == 1 and exiting == {latch}
        # Every lid a spec can *read* must have a commit site.
        for lid in lids_seen:
            if lid not in committed:
                ok = False
        if not ok:
            return
        self.act_ok = True
        self.lid_tail = tails
        self.lid_clean = clean
        self.loop_lid_entries = entries
        for n, lid in enumerate(sorted(lids_seen)):
            self.lid_act[lid] = f"_a{n}"
            self.lid_pend[lid] = f"_p{n}"

    def _mult_expr(self, spec: tuple) -> str:
        """Runtime multiplicity of a divergent spec (mirrors
        ``Interpreter._batch_mult``: first live lid wins, the trailing
        static B backstops)."""
        if self.act_ok:
            x = spec[0]
            if isinstance(x, int):
                return str(x)
            a = self.lid_act[x]
            if self.lid_clean.get(x):
                # Entry-init makes the local total: committed activity
                # while iterating, the chain fallback otherwise.
                return a
            return f"({a} if {a} is not None else {self._mult_expr(spec[1:])})"
        lids: List[str] = []
        tail = 0
        for x in spec:
            if isinstance(x, int):
                tail = x
                break
            lids.append(x)
        expr = repr(tail)
        for lid in reversed(lids):
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
        dt = elem_dtype(elem)
        return self.hoist(dt, key=("dt", dt.str))

    def _type(self, t) -> str:
        return self.hoist(t, key=("t", id(t)))

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

    def ref(self, v: Value) -> str:
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
        raise CodegenBailout("use-before-def")

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

    def _ext_cost(self, callee: ExternalFunction, arg_types) -> float:
        cost = callee.cost
        if callable(cost):
            cost = cost(self.machine, list(arg_types))
        return float(cost)

    def emit_charges(self, block: BasicBlock) -> None:
        """One merged charge prologue for everything the block executes.

        The reference engines' per-instruction charges (including the
        decoded engine's phi sweep and the batched engine's narrow
        prototypes × multiplicity) fold into at most one cycles add, one
        instruction add, one counter-local update per distinct key, one
        multiplicity resolve per divergent spec, and one budget check —
        all against the function-local accumulators.  Instructions
        without batch annotations charge plainly even inside a batched
        function, mirroring the reference engine's per-instruction gate
        (this is what the remainder loop and mixed blocks rely on).
        Completed-run totals are bit-identical (dyadic costs sum exactly
        under any association; counts commute); a trap's exact
        trap-point stats come from the replay.
        """
        cost = self._cost
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
                items = batch_charge_items(ins, self.machine, cost)
                spec = ins.attrs["batch_mult"]
                if isinstance(spec, tuple) and isinstance(spec[0], int):
                    spec = spec[0]  # outside every divergent loop: literal B
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
                op = ins.opcode
                # The engines hardcode phi charges at 0.0 cycles.
                cycles += 0.0 if op == "phi" else cost(ins)
                instrs += 1
                counts[op] = counts.get(op, 0) + 1
                if op == "call":
                    callee = ins.operands[0]
                    if isinstance(callee, ExternalFunction):
                        label = f"ext:{callee.name}"
                        cycles += self._ext_cost(
                            callee, (o.type for o in ins.operands[1:])
                        )
                        instrs += 1
                        counts[label] = counts.get(label, 0) + 1
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
            self.line(f"if {mref}:")
            self.indent += 1
            if gcycles:
                self.line(f"_cy += {gcycles!r} * {mref}")
            self.line(f"_ni += {ginstrs} * {mref}")
            for key, n in gcounts.items():
                mult = mref if n == 1 else f"{n} * {mref}"
                self.line(f"{self._count_local(key)} += {mult}")
            self.indent -= 1
            checked = True
        if checked:
            self.line("if _ni > _rem:")
            self.line("    _trap(_interp, _fname)")

    # -- value emission ----------------------------------------------------------

    def _vec_expr(self, ins, argrefs) -> Optional[str]:
        """Emit a vector op as a raw numpy expression, or ``None``.

        The vector analogue of :meth:`_scalar_expr`: every
        template is the exact expression the ops.py impl evaluates
        (the per-call ``errstate`` guards are covered by the generated
        function's body-wide ``np.seterr(all="ignore")``); anything
        subtle — shifts, trapping division, saturating forms,
        float→int casts — falls back to the impl closure.
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
                sv = self._np(signed_view)
                return f"({sv}({a}) {sym} {sv}({b}))"
            sym = _VEC_FCMP.get(pred)
            if sym is None:
                return None
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
            if op in ("smin", "smax"):
                npf = self._np(np.minimum if op == "smin" else np.maximum)
                sv = self._np(signed_view)
                au = self._np(as_unsigned)
                return f"{au}({npf}({sv}({a}), {sv}({b})))"
            return None
        if op == "fneg":
            return f"(-{argrefs[0]})"
        if op == "fabs":
            return f"{self._np(np.abs)}({argrefs[0]})"
        if op == "fsqrt":
            return f"{self._np(np.sqrt)}({argrefs[0]})"
        if op == "not":
            return f"(~{argrefs[0]})"
        if op == "iabs":
            sv = self._np(signed_view)
            au = self._np(as_unsigned)
            return f"{au}({self._np(np.abs)}({sv}({argrefs[0]})))"
        if op == "fma":
            a, b, c = argrefs
            return f"({a} * {b} + {c})"
        if op == "shuffle":
            n = ins.operands[0].type.count
            index = ins.operands[1]
            if self.is_known(index):
                return f"{argrefs[0]}[{self._selector(index, n)}]"
            i64 = self.hoist(np.int64, key=("np", "int64"))
            return f"{argrefs[0]}[{argrefs[1]}.astype({i64}) % {n}]"
        if op in _VEC_CAST_ASTYPE or op in ("bitcast", "sext", "sitofp"):
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
                return f"{self._np(signed_view)}({v}).astype({dt})"
            if op == "sext":
                if getattr(from_e, "bits", 0) == 1:
                    return None
                sdt = signed_dtype(elem)
                sd = self.hoist(sdt, key=("sdt", np.dtype(sdt).str))
                sv = self._np(signed_view)
                au = self._np(as_unsigned)
                return f"{au}({sv}({v}).astype({sd}))"
            return f"{v}.astype({dt})"
        return None

    def _scalar_expr(self, instr: Instruction, argrefs) -> Optional[str]:
        """Emit a scalar op as a plain expression, or ``None`` to fall back.

        Skips the impl-lambda call layer (and for f32 floats the
        round_float wrapper) for the ops that dominate benchsuite
        dispatch.  Every template is bit-identical to the ops.py impl;
        vectors and anything subtle (shifts, division, signed-overflowing
        casts to float, ...) fall back to :func:`_value_impl`.
        """
        op = instr.opcode
        t = instr.type
        if isinstance(t, VectorType):
            return None
        # Mask reductions: scalar-typed with one vector operand; they gate
        # every divergent-loop backedge, so skipping the closure layer
        # matters.  Same values as the _value_impl lambdas.
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
        if dtype.kind == "u" and dtype.itemsize == 8:
            self.line(f"{dst} = {self._np(np.full)}({t.count}, {scalar},"
                      f" {self._dtype(t.elem)})")
        else:
            self.line(f"{dst} = {self._np(np.empty)}({t.count},"
                      f" {self._dtype(t.elem)})")
            self.line(f"{dst}.fill({scalar})")

    def _fold(self, ins: Instruction) -> bool:
        """Evaluate ``ins``, whose operands are all known, now: the value
        joins :attr:`known` (arrays read-only: every launch will share it)
        and no line is emitted.  The block's charge prologue still counts
        the instruction.  Evaluation goes through the instruction's own
        :func:`_value_impl` under the errstate generated code runs in
        (:meth:`emit` installs it around the whole walk); an evaluation
        that raises (a trapping division by a zero lane, an overflow) is
        left to run time, which raises it there."""
        try:
            value = _value_impl(ins)(*map(self.payload, ins.operands))
        except Exception:
            return False
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self.known[id(ins)] = value
        self.folded += 1
        return True

    def emit_compute(self, ins) -> None:
        known = self.known
        for o in ins.operands:  # the common answer is "no", on the first
            if not isinstance(o, Constant) and id(o) not in known:
                break
        else:
            if self._fold(ins):
                return
        argrefs = [self.ref(o) for o in ins.operands]
        if ins.opcode == "broadcast":
            self._emit_broadcast(ins, argrefs[0])
            return
        expr = self._scalar_expr(ins, argrefs)
        if expr is None:
            expr = self._vec_expr(ins, argrefs)
        if expr is None:
            impl = self.hoist(_value_impl(ins), key=("impl", id(ins)))
            expr = f"{impl}({', '.join(argrefs)})"
        self.line(f"{self.name_of(ins)} = {expr}")

    # -- memory access (see "Memory access" in the module docstring) -------------

    def _mask_lanes(self, mask: Value) -> Optional[Tuple[int, int]]:
        """``(active, needed)`` of a mask known at emit time — how many
        lanes are set, and one past the last set lane — or ``None`` for a
        runtime mask.  Reads a constant's lanes without building its
        payload."""
        if isinstance(mask, Constant):
            lanes = mask.value
        elif id(mask) in self.known:
            lanes = self.known[id(mask)].tolist()
        else:
            return None
        count = len(lanes)
        if all(lanes):
            return count, count
        needed = count
        while needed and not lanes[needed - 1]:
            needed -= 1
        return count - lanes.count(0), needed

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
        elif op == "store":
            self._emit_cell(ins, ops[0].type, self.ref(ops[1]),
                            store=self.ref(ops[0]))
        elif op == "atomicrmw":
            rmw = ins.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                # The decoded engine raises the VMTrap for it.
                raise CodegenBailout("atomicrmw-op")
            t = ops[1].type
            old, x = self.name_of(ins), self.ref(ops[1])
            new = _int_binop_expr(rmw, t.bits, old, x) \
                if isinstance(t, IntType) else None
            if new is None:
                impl = self.hoist(scalar_binop_impl(rmw, t),
                                  key=("rmw", rmw, id(t)))
                new = f"{impl}({old}, {x})"
            self._emit_cell(ins, t, self.ref(ops[0]), store=new)
        elif op == "vload":
            self._emit_packed(ins, ins.type, self.ref(ops[0]), ops[1])
        elif op == "vstore":
            self._emit_packed(ins, ops[0].type, self.ref(ops[1]), ops[2],
                              store=self.ref(ops[0]))
        elif op == "gather":
            self.slow_sites += 1
            self.line(
                f"{self.name_of(ins)} = _mem.gather({self.ref(ops[0])},"
                f" {self._type(ins.type.elem)},"
                f" {self._mask_ref(ops[1], self._mask_lanes(ops[1]))})"
            )
        else:  # scatter
            self.slow_sites += 1
            self.line(
                f"_mem.scatter({self.ref(ops[1])}, {self._type(ops[0].type.elem)},"
                f" {self.ref(ops[0])},"
                f" {self._mask_ref(ops[2], self._mask_lanes(ops[2]))})"
            )

    def _emit_cell(self, ins, t, addr: str, store: Optional[str] = None) -> None:
        """A scalar ``load`` (``store`` is None), ``store``, or — when
        ``store`` reads this instruction's own name — ``atomicrmw``:
        one range test, then ``struct`` straight on the byte buffer."""
        loads = ins.opcode != "store"
        dst = self.name_of(ins) if loads else None
        tref = self._type(t)
        slow: List[str] = []
        if loads:
            slow.append(f"{dst} = _mem.load_scalar({addr}, {tref})")
        if store is not None:
            slow.append(f"_mem.store_scalar({addr}, {tref}, {store})")
        fmt = _CELL_FORMAT.get(elem_dtype(t).str[1:])
        if fmt is None:
            self.slow_sites += 1
            for text in slow:
                self.line(text)
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
        self.indent += 1
        for text in slow:
            self.line(text)
        self.indent -= 1

    def _emit_packed(self, ins, vtype, addr: str, mask: Value,
                     store: Optional[str] = None) -> None:
        """``vload`` (``store`` is None) or ``vstore``: one range test in
        lane units over the lanes the access needs, then a slice of the
        typed view.  A mask known at emit time decides ``needed`` (one
        past its last active lane), whether there are holes below it, and
        whether there is an access at all; a runtime mask joins the test
        (``count_nonzero(mask) == count``) and takes the all-active form.
        Whatever the test rejects calls ``Memory`` with the original
        mask."""
        dtype = elem_dtype(vtype.elem)
        dt = self._dtype(vtype.elem)
        count = vtype.count
        lanes = self._mask_lanes(mask)
        active, needed = lanes if lanes is not None else (count, count)
        mref = self._mask_ref(mask, lanes)
        if store is None:
            dst = self.name_of(ins)
            slow = f"{dst} = _mem.load_lanes({addr}, {dt}, {count}, {mref})"
        else:
            slow = f"_mem.store_lanes({addr}, {dt}, {store}, {mref})"
        self.inline_sites += 1
        if not needed:
            # No active lane: the address is never validated.
            if store is None:
                self.line(f"{dst} = {self._np(np.zeros)}({count}, {dt})")
            return
        shift = dtype.itemsize.bit_length() - 1
        ln = self.hoist(len, key=("b", "len"))
        test = f"_i < {NULL_GUARD >> shift} or _i + {needed} > {ln}(_w)"
        if shift:
            test = f"{addr} & {dtype.itemsize - 1} or {test}"
        if lanes is None:
            test += f" or {self._cnz()}({mref}) != {count}"
        span = f"_w[_i:_i + {needed}]"
        part = "" if needed == count else f"[:{needed}]"
        keep = None
        if active != needed:  # holes below the last active lane
            whole = self.payload(mask)
            keep = whole[:needed].copy()
            keep.setflags(write=False)
            keep = self.hoist(keep, key=("keep", id(whole)))
        if store is not None:
            inline = [f"_e = {addr} + {needed * dtype.itemsize}",
                      "if _e > _mem._extent:",
                      "    _mem._extent = _e",
                      f"{span} = {store}{part}" if keep is None else
                      f"{self._np(np.copyto)}({span}, {store}{part},"
                      f" where={keep})"]
        elif not part and keep is None:
            copy = "" if self._cast_copies(ins) else ".copy()"
            inline = [f"{dst} = {span}{copy}"]
        else:
            inline = [f"{dst} = {self._np(np.zeros)}({count}, {dt})",
                      f"{dst}{part} = {span}" if keep is None else
                      f"{self._np(np.copyto)}({dst}{part}, {span},"
                      f" where={keep})"]
        pad = "    " * self.indent
        self.lines += [
            f"{pad}_w = _mem.lanes[{_LANE_INDEX[dtype]}]",
            f"{pad}_i = {addr} >> {shift}" if shift else f"{pad}_i = {addr}",
            f"{pad}if {test}:",
            f"{pad}    {slow}",
            f"{pad}else:",
        ]
        pad += "    "
        self.lines += [pad + text for text in inline]

    def _cast_copies(self, load: Instruction) -> bool:
        """The loaded slice's only use is an ``.astype`` cast later in the
        same block with no store or call in between: the cast makes the
        copy, so the load may hand it the live view."""
        uses = load.uses
        if len(uses) != 1:
            return False
        user = uses[0][0]
        if not (isinstance(user, Instruction) and user.parent is load.parent
                and user.opcode in _VEC_CAST_ASTYPE):
            return False
        block = load.parent.instructions
        between = block[block.index(load) + 1:block.index(user)]
        return all(i.opcode in _COMPUTE_OPS or i.opcode == "vload"
                   for i in between)

    def emit_call(self, ins) -> None:
        callee = ins.operands[0]
        args = ", ".join(self.ref(o) for o in ins.operands[1:])
        if isinstance(callee, ExternalFunction):
            # Charges (the 'call' dispatch + ``ext:<name>`` leg, or the
            # batched narrow prototypes) live in the block prologue; only
            # the impl invocation remains here.
            impl = self.hoist(callee.impl, key=("ext", callee.name))
            self.line(f"{self.name_of(ins)} = {impl}({args})")
        elif self.fn_batched and "batch_mult" in ins.attrs:
            raise CodegenBailout("batched-internal-call")
        else:
            # The callee charges ExecStats directly: flush the local
            # accumulators around the call and re-derive the headroom.
            fref = self.hoist(callee, key=("fn", callee.name))
            self.calls_internal = True
            self.line(_FLUSH)
            self.line(
                f"{self.name_of(ins)} = _exec({fref}, [{args}], depth + 1)"
            )
            self.line("_rem = _L - _s.instructions")

    def emit_pend(self, ins, ba) -> None:
        """Divergent-loop pending activity: the lane mask's per-gang
        any-reduction, with the batch factor inlined as a literal
        (specializing :func:`gang_activity_count`)."""
        mask = self.ref(ins.operands[0])
        lid, batch = ba[0], ba[1]
        expr = (f"{self._int()}({self._cnz()}("
                f"{mask}.reshape({batch}, -1).any(axis=1)))")
        p = self.lid_pend.get(lid)
        if p is not None:
            self.line(f"{p} = {expr}")
        else:
            self.line(f"_pend[{lid!r}] = {expr}")

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
        if self.indent > MAX_NESTING:
            raise CodegenBailout("deep-nesting")
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
        for lid in self.loop_lid_entries.get(header, ()):
            # Divergent-activity entry init: makes the committed local
            # total over the loop body (see _scan_batch_shapes).
            if self.lid_clean.get(lid):
                tail = self.lid_tail.get(lid)
                if tail is not None:
                    self.line(f"{self.lid_act[lid]} = {self._mult_expr(tail)}")
        frame = _LoopFrame(loop)
        self.line("while True:")
        self.open.append(frame)
        self.open_headers.add(header)
        self._suite(lambda: self.emit_from(header, None))
        self.open.pop()
        self.open_headers.discard(header)
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
                p = self.lid_pend.get(ba[0])
                return p if p is not None else f"_pend[{ba[0]!r}]"
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
        if block in self.emitted:
            raise CodegenBailout("block-re-emitted")
        self.emitted.add(block)
        instrs = block.instructions
        if not instrs or not instrs[-1].is_terminator:
            raise CodegenBailout("no-terminator")
        self.emit_charges(block)
        nphi = 0
        while nphi < len(instrs) and instrs[nphi].opcode == "phi":
            nphi += 1
        body, term = instrs[nphi:-1], instrs[-1]
        fold = self._fold_cond(body, term)
        emit_n = len(body) - 1 if fold is not None else len(body)
        for ins in body[:emit_n]:
            op = ins.opcode
            if op == "call":
                self.emit_call(ins)
            elif op in _COMPUTE_OPS:
                self.emit_compute(ins)
            elif op in _MEMORY_OPS:
                self.emit_memory(ins)
            else:
                raise CodegenBailout(f"opcode:{op}")
            if self.fn_batched:
                ba = ins.attrs.get("batch_activity")
                if ba is not None:
                    self.emit_pend(ins, ba)
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
        if op == "br":
            self.emit_phi_moves(block, term.operands[0])
            return self._goto(term.operands[0], stop)
        if op == "condbr":
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
                a = self.lid_act.get(lid)
                if a is not None:
                    commit = [f"{a} = {self.lid_pend[lid]}"]
                    drop = [] if self.lid_clean.get(lid) else [f"{a} = None"]
                else:
                    commit = [f"_act[{lid!r}] = _pend[{lid!r}]"]
                    drop = [
                        f"_act.pop({lid!r}, None)",
                        f"_pend.pop({lid!r}, None)",
                    ]
                commits = (commit, drop) if taken_idx == 1 else (drop, commit)
            return self.emit_condbr(
                block, cond, term.operands[1], term.operands[2], stop, commits
            )
        raise CodegenBailout(f"terminator:{op}")

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
            self.emit_from(fn.entry, None)
        body: List[str] = []
        for text in self.lines:
            if _FLUSH not in text:
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
        if self.calls_internal:
            head.append("    _exec = _interp._exec_function")
        head.append("    _L = _interp.max_instructions")
        head.append("    _rem = _L - _s.instructions")
        head.append("    _mk = _mem._brk")
        head.append("    _cy = 0.0")
        head.append("    _ni = 0")
        if self.count_locals:
            head.append(
                "    " + " = ".join(self.count_locals.values()) + " = 0"
            )
        if self.fn_batched:
            if self.act_ok:
                unclean = [
                    self.lid_act[lid]
                    for lid in sorted(self.lid_act)
                    if not self.lid_clean.get(lid)
                ]
                if unclean:
                    head.append("    " + " = ".join(unclean) + " = None")
            else:
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
            f" slow={self.slow_sites} hoisted: "
            + " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        )
        source = (
            f"def _kfn(_interp, _args, depth, {params}):\n"
            + "\n".join([summary] + head + body + tail)
        )
        return source, self.hoisted


def _batch_fingerprint(function: Function) -> tuple:
    """Batching configuration visible to emission: the ``batched`` attr
    (the batch factor, or ``None``) and the number of annotated
    instructions.  Attrs-only mutations — stripping or re-running the
    batch pass on the same unfrozen module — keep the function's
    identity, which alone would replay a stale emission (or worse, a
    stale *bailout*) for a configuration it never saw."""
    n = 0
    for b in function.blocks:
        for ins in b.instructions:
            if "batch_mult" in ins.attrs:
                n += 1
    return (function.attrs.get("batched"), n)


def forget_emission(function: Function) -> None:
    """Drop ``function``'s cached emissions: its IR was mutated in place,
    which object identity cannot see."""
    function._emissions = None


def lower_function(function: Function, machine, cost_model):
    """The generated callable for ``function`` on ``machine`` under
    ``cost_model``: ``(kfn, origin)``, to be called as
    ``kfn(interp, argvals, depth)``.

    Raises :class:`CodegenBailout` when the function cannot be
    linearized.  Emissions (and bailouts) hang off the function object
    itself (``Function._emissions``: a list of ``(machine, cost_model,
    fingerprint, source, kfn, reason)``), so they are found by identity —
    the compile cache hands every caller of a kernel the same frozen
    module — and live exactly as long as their module: nothing
    process-global references a ``Function`` or its ``Instruction`` s.
    Finding an entry is all a second interpreter over the same kernel
    pays (``origin == "cache"``); otherwise ``origin`` says where the code
    object came from (see :func:`compiled_code`).  A mutable function's
    entries match on the batch fingerprint too, which keeps a bailout
    memoized against one batching configuration from suppressing emission
    for another; a frozen function's entries were all made after it froze
    (``Function._freeze`` drops earlier ones), so they need no walk.
    """
    entries = function._emissions
    if entries is None:
        entries = function._emissions = []
    fingerprint = None if function.frozen else _batch_fingerprint(function)
    for entry_machine, entry_cost_model, fp, _, kfn, reason in entries:
        if (
            entry_machine is machine
            and entry_cost_model is cost_model
            and fp == fingerprint
        ):
            if reason is not None:
                raise CodegenBailout(reason)
            return kfn, "cache"
    try:
        source, bindings = _Emitter(function, machine, cost_model).emit()
    except CodegenBailout as exc:
        entries.append(
            (machine, cost_model, fingerprint, None, None, exc.reason)
        )
        raise
    code, origin = compiled_code(source, function.name)
    kfn = _bind(code, bindings)
    entries.append((machine, cost_model, fingerprint, source, kfn, None))
    return kfn, origin


def _register(source: str, code) -> None:
    """Enter ``code`` in the LRU (evicting past the cap) and show its
    source to :mod:`linecache` under the filename it was compiled with."""
    _CODE_CACHE[source] = code
    filename = code.co_filename
    # mtime None: ``linecache.checkcache`` leaves the entry alone.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    while len(_CODE_CACHE) > CODE_CACHE_ENTRIES:
        _, evicted = _CODE_CACHE.popitem(last=False)
        linecache.cache.pop(evicted.co_filename, None)


def clear_code_cache() -> None:
    """Drop every compiled source (and its :mod:`linecache` entry).
    Functions already bound keep working; the next emission of the same
    source compiles again."""
    for code in _CODE_CACHE.values():
        linecache.cache.pop(code.co_filename, None)
    _CODE_CACHE.clear()


def compiled_code(source: str, name: str) -> Tuple[object, str]:
    """Code object for a generated source: process cache → disk → compile.

    Returns ``(code, origin)`` with origin in ``{"cache", "disk",
    "compiled"}`` for the ``vm.codegen.*`` counters.  ``name`` (the IR
    function's) goes into the filename a fresh compile gets.
    """
    code = _CODE_CACHE.get(source)
    if code is not None:
        _CODE_CACHE.move_to_end(source)
        return code, "cache"
    code = diskcache.load_code(source)
    if code is not None:
        _register(source, code)
        return code, "disk"
    digest = hashlib.sha256(source.encode()).hexdigest()[:8]
    code = compile(source, f"<repro-vm-codegen:{name}:{digest}>", "exec")
    _register(source, code)
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
