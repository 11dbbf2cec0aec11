"""The VM: a direct interpreter for the IR with cycle cost accounting.

Executes scalar *and* vector IR (one unified engine), so the same machine
runs the un-vectorized baseline, the auto-vectorized code, the ispc-mode
output, the Parsimony output, and the hand-written intrinsics kernels —
exactly the five configurations the paper measures (§5).

Every dynamically executed instruction is charged by the
:class:`~repro.backend.costmodel.CostModel` on the configured
:class:`~repro.backend.machine.Machine`; ``run()`` returns the result plus
:class:`~repro.backend.machine.ExecStats` with cycles and per-opcode
counts.

Execution engines
-----------------

Two, bit-identical in results, ``ExecStats``, trap identity and
trap-point stats:

* **whole-kernel codegen** (the default): each function linearized into
  one generated Python function by :mod:`repro.backend.codegen` — the
  only module that generates source.  It runs only under
  :meth:`Interpreter._run_replayable`, and there is one way out of it:
  a trap, a failed zero-charge check, or a function without generated
  code (:class:`~repro.backend.codegen.CodegenBailout`, batched or not)
  rolls the launch back and replays it whole on the reference engine,
  in the interpreter that launched it: from its rolled-back stats,
  attribution, memory and instruction budget, counted once in
  ``codegen_stats["replays"]``.  A launch never mixes engines, and an
  interpreter that recorded a bailout runs its later launches on the
  reference engine outright;
* the **reference engine** (``codegen=False``): the opcode-string
  dispatch loop, charging per instruction in charge-then-execute order.
  It interprets *unbatched* IR only, and is the executable
  specification codegen is compared against.  Its replay outcome is
  authoritative.

What the engines share is the per-instruction record: what an
instruction charges is :func:`~repro.backend.costmodel.charge_items`,
what a compute opcode evaluates to is :func:`~repro.vm.ops.value_impl`.
The reference engine holds one ``(charge items, impl)`` record per
instruction (:meth:`Interpreter._record`); codegen folds, and calls for
what it does not inline, the same impls, and charges the same items.
What they do not share is control flow (a dispatch loop over blocks vs
structured Python loops), memory access (``Memory`` calls vs inline
buffer fast paths) and charge timing (per instruction vs one merged
prologue per block), so the differential check between them still
compares two executions.

Gang batching (:mod:`repro.backend.batch`) promises outputs and
``ExecStats`` equal to the unbatched build, so that build is the spec of
batched IR.  Batched IR runs only as generated code; every other launch
of a batched module — ``codegen=False``, a run while a fault plan is
armed, a replay — runs the module's
:func:`~repro.backend.batch.unbatched_twin` on the reference engine.

``predecode=False`` is an older spelling of ``codegen=False``, kept for
callers that still pass it.

Ownership
---------

Generated code belongs to the compile key, not to a module or an
interpreter::

    codegen._CODE_CACHE (bounded LRU): (Module.fingerprint, function
        name, machine, cost model) ──► (source, the one bound callable)
        or the reason there is none          (no IR, no interpreter)

    Interpreter ──► Memory, ExecStats              (plain data)
        ├──► _codegen_fns: Function ──► that callable (a reference; a
        │        function without a fingerprint gets its own emission)
        └──► module (shared, frozen; never references an interpreter)
                 └──► its unbatched twin, once built (the same)

A generated function takes the interpreter as an argument and reads its
stats, its memory and (by name) its module's internal callees in the
prologue, so it references no interpreter and no IR at all: a second
interpreter over the same module — or over a recompile of the same
kernel — binds by looking the callable up.  References run one way, so
an interpreter — and its :class:`~repro.vm.memory.Memory`, whose buffer
is as large as what the launch touched, not the 4 MB it may address — is
reclaimed by reference counting the moment its last user drops it,
without waiting for the cyclic collector.  Nothing an interpreter owns may hold it strongly:
helpers that need no interpreter state (:func:`~repro.vm.ops.value_impl`
and its impls) are module-level functions, not bound methods.

Both engines assume the module is not mutated once execution has started
(the driver's ``compile_*`` results are frozen, so they cannot be);
call :meth:`Interpreter.clear_decode_cache` after transforming a function
of a hand-built module that has already run (this drops the
interpreter's compiled functions, instruction records and bailouts).
Constant payloads are shared across dynamic uses in generated code — no
opcode mutates its operand arrays, so this is observationally equivalent
to the reference engine's fresh-per-use arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faultinject
from ..backend.costmodel import DEFAULT_COST_MODEL, CostModel, charge_items
from ..backend.machine import AVX512, ExecStats, Machine
from ..diagnostics import ExecutionError
from ..ir.instructions import ATOMIC_RMW_OPS, Instruction
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..ir.values import Argument, Constant, UndefValue, Value
from .memory import Memory, MemoryError_
from .nputil import elem_dtype, mask_int
from .ops import (
    COMPUTE_OPS,
    VMTrap,
    round_float,
    scalar_binop_impl,
    value_impl,
)

__all__ = ["Interpreter", "VMTrap", "ExecutionLimitExceeded"]


class ExecutionLimitExceeded(VMTrap):
    """The dynamic instruction budget was exhausted (likely infinite loop)."""


class _Replay(Exception):
    """The launch cannot finish in generated code — a function has none,
    or a zero-charge check of a batched trip failed: it rolls back and
    replays whole on the reference engine, as after a trap."""


def _holds_batched_ir(module: Module) -> bool:
    return any(f.attrs.get("batched") for f in module.functions.values())


_MAX_CALL_DEPTH = 256


class Interpreter:
    """Executes functions from one module against a flat memory."""

    def __init__(
        self,
        module: Module,
        machine: Machine = AVX512,
        cost_model: Optional[CostModel] = None,
        memory: Optional[Memory] = None,
        max_instructions: int = 500_000_000,
        predecode: bool = True,
        codegen: bool = True,
    ):
        self.module = module
        self.machine = machine
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.memory = memory or Memory()
        self.max_instructions = max_instructions
        #: Whole-kernel codegen engine (see :mod:`repro.backend.codegen`);
        #: off, every launch runs on the reference engine (a batched
        #: module's on its unbatched twin), which is also the replay
        #: target.
        self.codegen = bool(codegen) and predecode
        self.stats = ExecStats()
        #: (caller, callee) -> inclusive cycles / dynamic calls along that
        #: edge, the one attribution table (:meth:`hotspots` derives the
        #: per-function view).  The root edge uses caller name ``"<root>"``.
        self.edge_cycles: Dict[Tuple[str, str], float] = {}
        self.edge_calls: Dict[Tuple[str, str], int] = {}
        self._call_stack: List[str] = []
        #: Instruction -> its reference-engine record, ``(charge items,
        #: impl)`` (see :meth:`_record`), for the module and its twin.
        self._records: Dict[Instruction, tuple] = {}
        #: Launches in which a collapsed row nest's no-alias check failed,
        #: so the nest ran one row per trip (see :mod:`repro.backend.batch`).
        self.row_fallbacks = 0
        #: Function -> its generated callable (a fingerprinted module's is
        #: owned by the code cache and shared with every other interpreter).
        self._codegen_fns: Dict[Function, object] = {}
        #: ``vm.codegen.*`` counters.  compiles/cache_hits/disk_hits are
        #: binding artifacts; calls/replays are run counters
        #: (:meth:`reset_stats` zeroes only the latter).  ``replays``
        #: counts every replay, on the module or on its unbatched twin.
        self.codegen_stats: Dict[str, int] = {
            "compiles": 0, "cache_hits": 0, "disk_hits": 0,
            "calls": 0, "replays": 0,
        }
        #: Bailout reason -> count (binding artifact).  Once it holds one,
        #: every launch runs on the reference engine.
        self.codegen_bailouts: Dict[str, int] = {}
        #: True only while executing under :meth:`_run_replayable`: the
        #: generated code's block-merged charges are exact for completed
        #: runs but approximate at trap points, so the codegen engine
        #: requires the replay umbrella.
        self._codegen_armed = False

    # -- public API -----------------------------------------------------------------

    def run(self, function, *args):
        """Execute ``function`` (a ``Function`` or name) with Python args."""
        if isinstance(function, str):
            function = self.module.get(function)
        if len(args) != len(function.args):
            raise TypeError(
                f"@{function.name} takes {len(function.args)} args, got {len(args)}"
            )
        argvals = [
            _coerce_arg(a.type, v) for a, v in zip(function.args, args)
        ]
        if self.codegen and not self.codegen_bailouts \
                and not faultinject.active():
            return self._run_replayable(function, argvals)
        return self._run_reference(function, argvals)

    def _run_replayable(self, function: Function, argvals: List):
        """Top-level run of the codegen engine, with the trap-replay
        contract.

        Any trap (a genuine kernel trap, a budget trap, or a spurious
        batched-only trap from a finished gang's unmasked lanes), and any
        :class:`_Replay` (a function without generated code, a batched
        trip's failed zero-charge check), rolls the VM back to the
        pre-run state (an extent-bounded :meth:`Memory.snapshot`, not a
        copy of the whole image) and replays the call wholesale, in this
        interpreter, on the reference engine (:meth:`_run_reference`).
        The replay continues from the rolled-back stats, attribution and
        instruction budget, and its outcome — result or trap — is
        authoritative, so trap identity, trap-point ``ExecStats``, and
        attribution all match the reference engine bit-for-bit.  Never
        entered under active fault injection: replaying would double-fire
        one-shot fault plans.
        """
        memory = self.memory
        rollback = memory.snapshot()
        stats = self.stats
        snap = (
            stats.cycles, stats.instructions, dict(stats.counts),
            dict(self.edge_cycles), dict(self.edge_calls),
        )
        self._codegen_armed = self.codegen
        try:
            return self._exec_function(function, argvals, depth=0)
        except (VMTrap, MemoryError_, _Replay):
            memory.restore(rollback)
            stats.cycles, stats.instructions = snap[0], snap[1]
            for live, saved in ((stats.counts, snap[2]),
                                (self.edge_cycles, snap[3]),
                                (self.edge_calls, snap[4])):
                live.clear()
                live.update(saved)
        finally:
            self._codegen_armed = False
        self.codegen_stats["replays"] += 1
        return self._run_reference(function, argvals)

    def _run_reference(self, function: Function, argvals: List):
        """Run the call on the reference engine, in this interpreter: on
        the module's :func:`~repro.backend.batch.unbatched_twin` —
        compiled now if this is its first use — or, when the module is
        not batched, on the module itself."""
        # (Imported here: backend.batch sits above the VM.)
        from ..backend.batch import unbatched_twin

        twin = unbatched_twin(self.module)
        if twin is not None:
            function = twin.get(function.name)
        elif _holds_batched_ir(self.module):
            raise ExecutionError(
                f"module {self.module.name!r} holds batched IR but no"
                " unbatched recipe: batched IR runs only as generated"
                " code, and the reference engine needs the unbatched"
                " build (compile_parsimony leaves its recipe in"
                " attrs['unbatched_recipe'])"
            )
        return self._exec_function(function, argvals, depth=0)

    def reset_stats(self) -> ExecStats:
        """Zero all counters in place (``self.stats`` stays the same object).

        Reusing one interpreter for several timed runs without calling this
        silently accumulates cycles from earlier runs into every
        measurement.
        """
        stats = self.stats
        stats.cycles = 0.0
        stats.instructions = 0
        stats.counts.clear()
        self.edge_cycles.clear()
        self.edge_calls.clear()
        self.row_fallbacks = 0
        self.codegen_stats["calls"] = 0
        self.codegen_stats["replays"] = 0
        return stats

    def clear_decode_cache(self) -> None:
        """Drop compiled functions (with their cached emissions) and
        instruction records, after mutating the module.

        Only a mutable function can have changed, and it has no
        fingerprint: only this interpreter memoized its emission.
        """
        self._records.clear()
        self._codegen_fns.clear()
        self.codegen_bailouts.clear()
        for key in ("compiles", "cache_hits", "disk_hits"):
            self.codegen_stats[key] = 0

    def hotspots(self) -> List[Dict[str, object]]:
        """Per-function cycle attribution, hottest first (for telemetry;
        ties in first-completion order).

        Each entry carries the function's exclusive cycles — its in-edges'
        inclusive cycles minus its out-edges' — and calls (its in-edges'),
        plus its incoming call edges (``callers``: caller name → inclusive
        cycles and dynamic calls along that edge; the entry function's
        caller is ``"<root>"``).
        """
        incoming: Dict[str, Dict[str, Dict[str, object]]] = {}
        outgoing: Dict[str, float] = {}
        for (caller, callee), cycles in self.edge_cycles.items():
            incoming.setdefault(callee, {})[caller] = {
                "inclusive_cycles": cycles,
                "calls": self.edge_calls[caller, callee],
            }
            outgoing[caller] = outgoing.get(caller, 0.0) + cycles
        entries = [
            {
                "function": name,
                "exclusive_cycles": sum(
                    e["inclusive_cycles"] for e in callers.values()
                ) - outgoing.get(name, 0.0),
                "calls": sum(e["calls"] for e in callers.values()),
                "callers": callers,
            }
            for name, callers in incoming.items()
        ]
        entries.sort(key=lambda e: -e["exclusive_cycles"])
        return entries

    def call_edges(self) -> List[Dict[str, object]]:
        """Caller→callee cycle edges, heaviest first (for telemetry)."""
        return [
            {
                "caller": caller,
                "callee": callee,
                "inclusive_cycles": cycles,
                "calls": self.edge_calls.get((caller, callee), 0),
            }
            for (caller, callee), cycles in sorted(
                self.edge_cycles.items(), key=lambda kv: -kv[1]
            )
        ]

    # -- execution ---------------------------------------------------------------------

    def _exec_function(self, function: Function, argvals: List, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise VMTrap(f"call depth exceeded calling @{function.name}")
        stats = self.stats
        cycles_at_entry = stats.cycles
        name = function.name
        stack = self._call_stack
        caller = stack[-1] if stack else "<root>"
        stack.append(name)
        try:
            if self._codegen_armed:
                # Armed only inside _run_replayable: the generated code
                # bulk-charges per block, so its trap-point stats are
                # approximate and a replay on the reference engine must be
                # standing by.  Fault-injected runs skip the wrapper and
                # therefore run on the reference engine.
                kfn = self._codegen_fns.get(function) \
                    or self._codegen_lower(function)
                self.codegen_stats["calls"] += 1
                return kfn(self, argvals, depth)
            return self._exec_reference(function, argvals, depth)
        finally:
            stack.pop()
            edge = (caller, name)
            ec = self.edge_cycles
            ec[edge] = ec.get(edge, 0.0) + (stats.cycles - cycles_at_entry)
            en = self.edge_calls
            en[edge] = en.get(edge, 0) + 1

    # -- whole-kernel codegen engine -------------------------------------------------

    def _codegen_lower(self, function: Function):
        """``function``'s generated callable (emitted, compiled and bound
        the first time per compile key), noting where it came from in
        ``codegen_stats`` (``compiles`` / ``cache_hits`` / ``disk_hits``;
        an emission bound earlier in the process is a cache hit).

        Without one — any failure, memoized with its reason by
        :func:`~repro.backend.codegen.lower_function` — the reason lands
        in ``codegen_bailouts`` and :class:`_Replay` sends the launch to
        the reference engine: codegen is an accelerator, never a
        requirement.
        """
        from ..backend import codegen as _cg

        module = self.module
        fingerprint = module.fingerprint \
            if module.functions.get(function.name) is function else None
        try:
            kfn, origin = _cg.lower_function(
                function, self.machine, self.cost_model, fingerprint
            )
        except _cg.CodegenBailout as exc:
            bailouts = self.codegen_bailouts
            bailouts[exc.reason] = bailouts.get(exc.reason, 0) + 1
            raise _Replay(exc.reason) from None
        key = {"cache": "cache_hits", "disk": "disk_hits"}.get(
            origin, "compiles"
        )
        self.codegen_stats[key] += 1
        self._codegen_fns[function] = kfn
        return kfn

    def codegen_report(self) -> Dict[str, object]:
        """Whole-kernel codegen summary (``vm.codegen.*`` in telemetry)."""
        return {
            "enabled": self.codegen,
            "compiles": self.codegen_stats["compiles"],
            "cache_hits": self.codegen_stats["cache_hits"],
            "disk_hits": self.codegen_stats["disk_hits"],
            "calls": self.codegen_stats["calls"],
            "replays": self.codegen_stats["replays"],
            "row_fallbacks": self.row_fallbacks,
            "bailouts": dict(self.codegen_bailouts),
        }

    # -- reference engine ------------------------------------------------------------

    def _exec_reference(self, function: Function, argvals: List, depth: int):
        if function.attrs.get("batched"):
            raise ExecutionError(
                f"the reference engine interprets unbatched IR only; run"
                f" @{function.name}'s module through Interpreter.run, which"
                f" replays a batched module on its unbatched twin"
            )
        env: Dict[Value, object] = dict(zip(function.args, argvals))
        stack_mark = self.memory._brk  # frame-local alloca discipline
        block = function.entry
        prev: Optional[BasicBlock] = None
        stats = self.stats
        counts = stats.counts
        limit = self.max_instructions
        records = self._records
        value = self._value
        try:
            while True:
                instructions = block.instructions
                # Evaluate phis in parallel against the incoming edge.
                n_phi = 0
                if instructions and instructions[0].opcode == "phi":
                    phi_vals = []
                    for instr in instructions:
                        if instr.opcode != "phi":
                            break
                        n_phi += 1
                        phi_vals.append(
                            value(env, instr.phi_value_for(prev))
                        )
                        key, cycles = (records.get(instr)
                                       or self._record(instr))[0][0]
                        stats.cycles += cycles
                        stats.instructions += 1
                        counts[key] = counts.get(key, 0) + 1
                        if stats.instructions > limit:
                            raise ExecutionLimitExceeded(
                                f"exceeded {limit} instructions"
                                f" in @{function.name}"
                            )
                    for instr, val in zip(instructions[:n_phi], phi_vals):
                        env[instr] = val
                for instr in instructions[n_phi:]:
                    items, impl = records.get(instr) or self._record(instr)
                    key, cycles = items[0]
                    stats.cycles += cycles
                    stats.instructions += 1
                    counts[key] = counts.get(key, 0) + 1
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
                    if impl is not None:
                        env[instr] = impl(
                            *[value(env, o) for o in instr.operands])
                        continue
                    op = instr.opcode
                    if op == "br":
                        prev, block = block, instr.operands[0]
                        break
                    if op == "condbr":
                        cond = value(env, instr.operands[0])
                        target = instr.operands[1] if cond else instr.operands[2]
                        prev, block = block, target
                        break
                    if op == "ret":
                        if instr.operands:
                            return value(env, instr.operands[0])
                        return None
                    if op == "unreachable":
                        raise VMTrap(f"reached 'unreachable' in @{function.name}")
                    env[instr] = self._exec_instr(env, instr, items, depth)
        finally:
            self.memory._brk = stack_mark

    def _record(self, instr: Instruction) -> tuple:
        """``instr``'s record, built on its first execution: what it
        charges (:func:`~repro.backend.costmodel.charge_items`) and, for a
        compute opcode, what it computes (:func:`~repro.vm.ops.value_impl`;
        ``None`` for the memory, call and control opcodes the engine
        executes itself).  Keyed by the instruction object (identity
        hash): unlike ``id()``, a live key can never be recycled to alias
        a different instruction.  A ``vload``/``vstore``'s impl is its
        memory access, its operands in order, the lane dtype resolved."""
        op = instr.opcode
        impl = None
        if op in COMPUTE_OPS:
            impl = value_impl(instr)
        elif op == "vload":
            load, dt, n = (self.memory.load_lanes,
                           elem_dtype(instr.type.elem), instr.type.count)
            impl = lambda addr, mask: load(addr, dt, n, mask)
        elif op == "vstore":
            store = self.memory.store_lanes
            dt = elem_dtype(instr.operands[0].type.elem)
            impl = lambda values, addr, mask: store(addr, dt, values, mask)
        record = self._records[instr] = (
            charge_items(instr, self.machine, self.cost_model), impl)
        return record

    def _exec_instr(self, env: Dict, instr: Instruction, items: tuple,
                    depth: int):
        """The memory and call opcodes (compute opcodes run their record's
        impl; ``items`` are the instruction's charges)."""
        op = instr.opcode
        ops = instr.operands
        value = self._value
        memory = self.memory

        if op == "load":
            return memory.load_scalar(value(env, ops[0]), instr.type)
        if op == "store":
            memory.store_scalar(value(env, ops[1]), ops[0].type,
                                value(env, ops[0]))
            return None
        if op == "alloca":
            size = instr.type.pointee.size_bytes() * instr.attrs.get("count", 1)
            return memory.alloc(max(size, 1))
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            addr = value(env, ops[0])
            val = value(env, ops[1])
            t = instr.type
            old = memory.load_scalar(addr, t)
            memory.store_scalar(addr, t, scalar_binop_impl(rmw, t)(old, val))
            return old
        if op == "gather":
            return memory.gather(value(env, ops[0]), instr.type.elem,
                                 value(env, ops[1]))
        if op == "scatter":
            memory.scatter(value(env, ops[1]), ops[0].type.elem,
                           value(env, ops[0]), value(env, ops[2]))
            return None
        if op == "call":
            callee = ops[0]
            args = [value(env, o) for o in ops[1:]]
            if isinstance(callee, ExternalFunction):
                # The ``ext:`` leg charges at the call, after the
                # ``call`` item's budget check.
                key, cycles = items[1]
                stats = self.stats
                stats.cycles += cycles
                stats.instructions += 1
                stats.counts[key] = stats.counts.get(key, 0) + 1
                return callee.impl(*args)
            return self._exec_function(callee, args, depth + 1)

        raise NotImplementedError(f"interpreter: opcode {op}")

    # -- helpers --------------------------------------------------------------------

    def _value(self, env: Dict, value: Value):
        if isinstance(value, (Instruction, Argument)):
            return env[value]
        if isinstance(value, Constant):
            return _constant_payload(value)
        if isinstance(value, UndefValue):
            return _undef_payload(value.type)
        if isinstance(value, (BasicBlock, Function, ExternalFunction)):
            return value
        raise TypeError(f"cannot evaluate {value!r}")


def _constant_payload(const: Constant):
    type = const.type
    if isinstance(type, VectorType):
        return np.array(const.value, dtype=elem_dtype(type.elem))
    if type.is_float:
        return round_float(type, const.value)
    return const.value


def _undef_payload(type: Type):
    if isinstance(type, VectorType):
        return np.zeros(type.count, dtype=elem_dtype(type.elem))
    if type.is_float:
        return 0.0
    return 0


def _coerce_arg(type: Type, value):
    if isinstance(type, VectorType):
        return np.asarray(value, dtype=elem_dtype(type.elem))
    if isinstance(type, FloatType):
        return round_float(type, float(value))
    if isinstance(type, (IntType, PointerType)):
        return mask_int(int(value), getattr(type, "bits", 64))
    raise TypeError(f"cannot pass argument of type {type}")
