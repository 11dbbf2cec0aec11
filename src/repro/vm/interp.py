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

Three tiers, bit-identical in results, ``ExecStats``, trap identity and
trap-point stats; each one falls back to the tier above it in this list:

* the **reference engine** (``predecode=False``): the opcode-string
  dispatch loop, kept as the executable specification every other tier
  is compared against;
* the **pre-decoded engine** (``codegen=False``): each basic block is
  decoded once, on first entry, into a :class:`_DecodedBlock` — a list of
  ``(instr, opcode, cost, thunk)`` tuples whose thunks have already
  resolved the opcode dispatch, operand lookups, cost-model query, and
  type-directed specialization.  It charges per instruction in the
  reference engine's charge-then-execute order, so it is what codegen
  traps replay on, what a codegen bailout runs, and what shard workers
  and fault-injected runs execute (gang-batched blocks included, see
  :meth:`Interpreter._decode_batch_block`);
* **whole-kernel codegen** (the default): each function linearized into
  one generated Python function by :mod:`repro.backend.codegen` — the
  only module that generates source.  It is tried first and only under
  :meth:`Interpreter._run_replayable`; a function it cannot express
  (:class:`~repro.backend.codegen.CodegenBailout`) runs pre-decoded, and
  any trap rolls the launch back and replays it on the pre-decoded twin,
  whose outcome is authoritative.

Ownership
---------

Generated code belongs to the module, not to an interpreter::

    Module ──► Function ──► _emissions: one entry per (machine, cost
                   model) ──► (code object, the one bound callable)

    Interpreter ──► Memory, ExecStats              (plain data)
        ├──► _codegen_fns: Function ──► that callable (a reference, or
        │        ``None`` for a sticky bailout; nothing is built here)
        ├──► _decoded: thunks ──► resolvers, Memory, ExecStats.charge;
        │        the internal-call thunk holds weakref(Interpreter)
        ├──► _fallback_interp: the replay twin ──► the same Memory
        └──► module (shared, frozen; never references an interpreter)

A generated function takes the interpreter as an argument and reads its
stats and memory in the prologue, so it references no interpreter at
all, and a second interpreter over the same module binds by looking the
callable up.  References run one way, so an interpreter — and its
:class:`~repro.vm.memory.Memory`, whose buffer is as large as what the
launch touched, not the 4 MB it may address — is reclaimed by reference
counting the moment its last user drops it, without waiting for the
cyclic collector.  Nothing an interpreter owns may hold it strongly:
the predecoded internal-call thunk holds a weak reference, and helpers
that need no interpreter state (:func:`reduce_lanes`) are module-level
functions, not bound methods.

All engines assume the module is not mutated once execution has started
(the driver's ``compile_*`` results are frozen, so they cannot be);
call :meth:`Interpreter.clear_decode_cache` after transforming a function
of a hand-built module that has already run (this also drops compiled
functions and the replay twin).  Constant payloads are shared across dynamic uses in the decoded
and codegen engines — no opcode mutates its operand arrays, so this is
observationally equivalent to the reference engine's fresh-per-use arrays.
"""

from __future__ import annotations

import operator
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faultinject
from ..backend.costmodel import DEFAULT_COST_MODEL, CostModel
from ..backend.machine import AVX512, ExecStats, Machine
from ..ir.instructions import (
    ATOMIC_RMW_OPS,
    CAST_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    Instruction,
    REDUCE_OPS,
    UNARY_OPS,
)
from ..ir.module import BasicBlock, ExternalFunction, Function, Module
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..ir.values import Argument, Constant, UndefValue, Value
from .memory import Memory, MemoryError_
from .nputil import elem_dtype, mask_int, to_signed
from .ops import (
    VMTrap,
    gang_activity_count,
    eval_scalar_binop,
    eval_scalar_cast,
    eval_scalar_fcmp,
    eval_scalar_icmp,
    eval_scalar_unop,
    eval_vector_binop,
    eval_vector_cast,
    eval_vector_fcmp,
    eval_vector_icmp,
    eval_vector_unop,
    round_float,
    scalar_binop_impl,
    scalar_fcmp_impl,
    scalar_icmp_impl,
)

__all__ = ["Interpreter", "VMTrap", "ExecutionLimitExceeded"]


class ExecutionLimitExceeded(VMTrap):
    """The dynamic instruction budget was exhausted (likely infinite loop)."""


_MAX_CALL_DEPTH = 256

#: Sentinel distinguishing "never attempted" from a sticky ``None``
#: bailout in the per-function codegen memo.
_CODEGEN_UNCOMPILED = object()

# Terminator kinds in decoded form.
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_T_UNREACHABLE = 3


class _DecodedBlock:
    """One basic block, decoded for the fast engine.

    ``phis``  — list of ``(instr, {pred_block: resolver})``;
    ``body``  — list of ``(instr, opcode, cost, thunk)`` for the non-phi,
    non-terminator instructions, where ``thunk(env, depth)`` computes the
    value;
    ``term``  — ``(_T_BR, cost, opcode, target)`` |
    ``(_T_CONDBR, cost, opcode, cond_resolver, iftrue, iffalse)`` |
    ``(_T_RET, cost, opcode, resolver_or_None)`` |
    ``(_T_UNREACHABLE, cost, opcode)``;
    ``batch`` — ``None`` for ordinary blocks, else the gang-batched decode
    ``(phis, body, term)`` described at :meth:`Interpreter._decode_batch_block`
    (and the other fields are unused).
    """

    __slots__ = ("phis", "body", "term", "batch")

    def __init__(self, phis, body, term, batch=None):
        self.phis = phis
        self.body = body
        self.term = term
        self.batch = batch


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
        self.predecode = predecode
        #: Whole-kernel codegen engine (see :mod:`repro.backend.codegen`):
        #: linearized functions bypass the dispatch loop entirely.  Rides
        #: on top of predecode (the decoded engine stays the bailout and
        #: trap-replay fallback).
        self.codegen = bool(codegen) and predecode
        self.stats = ExecStats()
        #: Exclusive (self-only) cycles per function name, for hot-spot telemetry.
        self.func_cycles: Dict[str, float] = {}
        #: Dynamic call count per function name.
        self.func_calls: Dict[str, int] = {}
        #: (caller, callee) -> inclusive cycles / dynamic calls along that edge.
        #: The root edge uses caller name ``"<root>"``.
        self.edge_cycles: Dict[Tuple[str, str], float] = {}
        self.edge_calls: Dict[Tuple[str, str], int] = {}
        self._call_stack: List[str] = []
        self._child_cycles = 0.0
        self._cost_cache: Dict[Instruction, float] = {}
        self._decoded: Dict[Function, Dict[BasicBlock, _DecodedBlock]] = {}
        #: Trap replays on the unbatched twin this run (see :meth:`run`).
        self.batch_replays = 0
        self._fallback_interp: Optional["Interpreter"] = None
        self._batch_cache: Dict[Instruction, tuple] = {}
        #: Function -> its generated callable (owned by the function's
        #: emission, shared with every other interpreter), or ``None``
        #: (sticky) when emission bailed out.
        self._codegen_fns: Dict[Function, object] = {}
        #: ``vm.codegen.*`` counters.  compiles/cache_hits/disk_hits are
        #: decode artifacts; calls/replays are run counters
        #: (:meth:`reset_stats` zeroes only the latter).
        self.codegen_stats: Dict[str, int] = {
            "compiles": 0, "cache_hits": 0, "disk_hits": 0,
            "calls": 0, "replays": 0,
        }
        #: Bailout reason -> count (decode artifact).
        self.codegen_bailouts: Dict[str, int] = {}
        #: True only while executing under :meth:`_run_replayable`: the
        #: generated code's block-merged charges are exact for completed
        #: runs but approximate at trap points, so the codegen engine
        #: requires the replay umbrella.
        self._codegen_armed = False
        #: When set (a ``repro.shard._ShardRun``), the top-level decoded
        #: dispatch loop executes only this shard's slice of every matched
        #: gang loop and rolls serial charges back on shards > 0 — see
        #: :mod:`repro.shard`.  ``None`` = normal full execution.
        self.shard = None

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
        if (
            (self.codegen or "unbatched_recipe" in self.module.attrs)
            and not faultinject.active() and self.shard is None
        ):
            # A batched module and the codegen engine both run under the
            # trap-replay contract.  Sharded runs bypass it: a shard that
            # traps fails the whole launch over to the supervisor's full
            # in-process rerun, which takes this path and is authoritative.
            return self._run_replayable(function, argvals, args)
        return self._exec_function(function, argvals, depth=0)

    def _run_replayable(self, function: Function, argvals: List, args):
        """Top-level run with the gang-batching trap-replay contract.

        Any :class:`ExecutionError` raised while running a batched module
        (a genuine kernel trap, a budget trap, or a spurious batched-only
        trap from a finished gang's unmasked lanes) rolls the VM back to
        the pre-run state (an extent-bounded :meth:`Memory.snapshot`,
        not a copy of the whole image) and replays the call wholesale on
        the module's :func:`~repro.backend.batch.unbatched_twin` — compiled
        now if this is its first trap — or, when the module is not
        batched, on the module itself (the fallback interpreter always
        runs with ``codegen=False``, i.e. the predecoded twin).  The replay's
        outcome — result or trap — is authoritative, so trap identity,
        trap-point ``ExecStats``, and attribution all match the fallback
        engine bit-for-bit.  Skipped under active fault injection: the
        driver never batches then, and replaying would double-fire
        one-shot fault plans.
        """
        memory = self.memory
        rollback = memory.snapshot()
        stats = self.stats
        snap = (
            stats.cycles, stats.instructions, dict(stats.counts),
            dict(self.func_cycles), dict(self.func_calls),
            dict(self.edge_cycles), dict(self.edge_calls),
            self._child_cycles,
        )
        self._codegen_armed = self.codegen
        try:
            return self._exec_function(function, argvals, depth=0)
        except (VMTrap, MemoryError_):
            memory.restore(rollback)
            stats.cycles, stats.instructions = snap[0], snap[1]
            stats.counts.clear()
            stats.counts.update(snap[2])
            for live, saved in (
                (self.func_cycles, snap[3]), (self.func_calls, snap[4]),
                (self.edge_cycles, snap[5]), (self.edge_calls, snap[6]),
            ):
                live.clear()
                live.update(saved)
            self._child_cycles = snap[7]
            # (Imported here: backend.batch sits above the VM.)
            from ..backend.batch import unbatched_twin

            twin = unbatched_twin(self.module) or self.module
            if twin is self.module:
                self.codegen_stats["replays"] += 1
            else:
                self.batch_replays += 1
            fb = self._fallback_interp
            if fb is None:
                fb = self._fallback_interp = Interpreter(
                    twin,
                    machine=self.machine,
                    cost_model=self.cost_model,
                    memory=memory,
                    max_instructions=self.max_instructions,
                    predecode=self.predecode,
                    codegen=False,
                )
            fb.reset_stats()
            try:
                return fb.run(function.name, *args)
            finally:
                # Merge whatever the replay charged — including a trap's
                # partial charges — into this interpreter's counters.
                stats.merge(fb.stats)
                for live, other in (
                    (self.func_cycles, fb.func_cycles),
                    (self.edge_cycles, fb.edge_cycles),
                ):
                    for k, v in other.items():
                        live[k] = live.get(k, 0.0) + v
                for live, other in (
                    (self.func_calls, fb.func_calls),
                    (self.edge_calls, fb.edge_calls),
                ):
                    for k, v in other.items():
                        live[k] = live.get(k, 0) + v
                self._child_cycles += fb._child_cycles
        finally:
            self._codegen_armed = False

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
        self.func_cycles.clear()
        self.func_calls.clear()
        self.edge_cycles.clear()
        self.edge_calls.clear()
        self._child_cycles = 0.0
        self.batch_replays = 0
        self.codegen_stats["calls"] = 0
        self.codegen_stats["replays"] = 0
        return stats

    def clear_decode_cache(self) -> None:
        """Drop decoded blocks, compiled functions (with their cached
        emissions) and cached costs, after mutating the module.

        The trap-replay twin goes too: it decoded the same module into
        its own caches, and replays are authoritative.
        """
        self._decoded.clear()
        self._cost_cache.clear()
        self._batch_cache.clear()
        self._fallback_interp = None
        if self._codegen_fns:
            from ..backend.codegen import forget_emission

            for function in self._codegen_fns:
                forget_emission(function)
            self._codegen_fns.clear()
        self.codegen_bailouts.clear()
        for key in ("compiles", "cache_hits", "disk_hits"):
            self.codegen_stats[key] = 0

    def hotspots(self) -> List[Dict[str, object]]:
        """Per-function cycle attribution, hottest first (for telemetry).

        Each entry carries the function's exclusive cycles plus its incoming
        call edges (``callers``: caller name → inclusive cycles and dynamic
        calls along that edge; the entry function's caller is ``"<root>"``).
        """
        incoming: Dict[str, Dict[str, Dict[str, object]]] = {}
        for (caller, callee), cycles in self.edge_cycles.items():
            incoming.setdefault(callee, {})[caller] = {
                "inclusive_cycles": cycles,
                "calls": self.edge_calls.get((caller, callee), 0),
            }
        return [
            {
                "function": name,
                "exclusive_cycles": cycles,
                "calls": self.func_calls.get(name, 0),
                "callers": incoming.get(name, {}),
            }
            for name, cycles in sorted(
                self.func_cycles.items(), key=lambda kv: -kv[1]
            )
        ]

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
        saved_child_cycles = self._child_cycles
        self._child_cycles = 0.0
        name = function.name
        stack = self._call_stack
        caller = stack[-1] if stack else "<root>"
        stack.append(name)
        try:
            if self._codegen_armed:
                # Armed only inside _run_replayable: the generated code
                # bulk-charges per block, so its trap-point stats are
                # approximate and a replay on the predecoded twin must be
                # standing by.  Sharded and fault-injected runs skip the
                # wrapper and therefore transparently use the decoded
                # engine.
                kfn = self._codegen_fns.get(
                    function, _CODEGEN_UNCOMPILED
                )
                if kfn is _CODEGEN_UNCOMPILED:
                    kfn = self._codegen_lower(function)
                if kfn is not None:
                    self.codegen_stats["calls"] += 1
                    return kfn(self, argvals, depth)
            if self.predecode:
                return self._exec_decoded(function, argvals, depth)
            return self._exec_reference(function, argvals, depth)
        finally:
            stack.pop()
            inclusive = stats.cycles - cycles_at_entry
            exclusive = inclusive - self._child_cycles
            fc = self.func_cycles
            fc[name] = fc.get(name, 0.0) + exclusive
            calls = self.func_calls
            calls[name] = calls.get(name, 0) + 1
            edge = (caller, name)
            ec = self.edge_cycles
            ec[edge] = ec.get(edge, 0.0) + inclusive
            en = self.edge_calls
            en[edge] = en.get(edge, 0) + 1
            self._child_cycles = saved_child_cycles + inclusive

    # -- whole-kernel codegen engine -------------------------------------------------

    def _codegen_lower(self, function: Function):
        """Look up (first time per module: emit, compile and bind)
        ``function``'s generated callable, or ``None``.

        Bailouts are sticky per function (the reason lands in
        ``codegen_bailouts``); successes report where the code came from
        in ``codegen_stats`` (``compiles`` / ``cache_hits`` /
        ``disk_hits``; an emission another interpreter already bound is a
        cache hit).  Emission failures of *any* kind degrade to the
        decoded engine — codegen is an accelerator, never a requirement.
        """
        from ..backend import codegen as _cg

        bailouts = self.codegen_bailouts
        kfn = None
        try:
            faultinject.maybe_fail("codegen", function.name)
            kfn, origin = _cg.lower_function(
                function, self.machine, self.cost_model
            )
        except _cg.CodegenBailout as exc:
            bailouts[exc.reason] = bailouts.get(exc.reason, 0) + 1
        except faultinject.InjectedFault:
            bailouts["injected-fault"] = bailouts.get("injected-fault", 0) + 1
        except Exception as exc:  # defensive: an emitter bug must not trap
            reason = f"error:{type(exc).__name__}"
            bailouts[reason] = bailouts.get(reason, 0) + 1
        else:
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
            "bailouts": dict(self.codegen_bailouts),
        }

    # -- pre-decoded engine ---------------------------------------------------------

    def _exec_decoded(self, function: Function, argvals: List, depth: int):
        decoded = self._decoded.get(function)
        if decoded is None:
            decoded = self._decoded[function] = {}
        env: Dict[Value, object] = dict(zip(function.args, argvals))
        memory = self.memory
        stack_mark = memory._brk  # frame-local alloca discipline
        stats = self.stats
        counts = stats.counts
        limit = self.max_instructions
        block = function.entry
        prev: Optional[BasicBlock] = None
        if function.attrs.get("batched"):
            # Per-frame divergent-loop gang-activity state (see
            # ``_exec_batch_block``): loop id -> committed / pending count.
            activity: Dict[str, int] = {}
            pending: Dict[str, int] = {}
        else:
            activity = pending = None  # type: ignore[assignment]
        shard = self.shard
        ctl = (shard.controller(function, self)
               if shard is not None and depth == 0 else None)
        try:
            while True:
                if ctl is not None:
                    jump = ctl.step(block, prev, env)
                    if jump is not None:
                        prev, block = jump
                        continue
                d = decoded.get(block)
                if d is None:
                    d = decoded[block] = self._decode_block(block, function)
                if d.batch is not None:
                    done, payload = self._exec_batch_block(
                        d.batch, env, depth, function, prev, activity, pending
                    )
                    if done:
                        if ctl is not None:
                            ctl.finish()
                        return payload
                    prev, block = block, payload
                    continue
                phis = d.phis
                if phis:
                    # Evaluate phis in parallel against the incoming edge.
                    phi_vals = []
                    for _, edges in phis:
                        resolver = edges.get(prev)
                        if resolver is None:
                            raise KeyError(
                                f"phi has no incoming edge from block {prev.name}"
                            )
                        phi_vals.append(resolver(env))
                        stats.cycles += 0.0
                        stats.instructions += 1
                        counts["phi"] = counts.get("phi", 0) + 1
                        if stats.instructions > limit:
                            raise ExecutionLimitExceeded(
                                f"exceeded {limit} instructions in @{function.name}"
                            )
                    for (instr, _), val in zip(phis, phi_vals):
                        env[instr] = val
                for instr, opcode, cost, thunk in d.body:
                    stats.cycles += cost
                    stats.instructions += 1
                    counts[opcode] = counts.get(opcode, 0) + 1
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
                    env[instr] = thunk(env, depth)
                term = d.term
                kind = term[0]
                stats.cycles += term[1]
                stats.instructions += 1
                opcode = term[2]
                counts[opcode] = counts.get(opcode, 0) + 1
                if stats.instructions > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} instructions in @{function.name}"
                    )
                if kind == _T_BR:
                    prev, block = block, term[3]
                elif kind == _T_CONDBR:
                    prev = block
                    block = term[4] if term[3](env) else term[5]
                elif kind == _T_RET:
                    if ctl is not None:
                        ctl.finish()
                    resolver = term[3]
                    return resolver(env) if resolver is not None else None
                else:
                    raise VMTrap(f"reached 'unreachable' in @{function.name}")
        finally:
            memory._brk = stack_mark

    # -- decoding --------------------------------------------------------------------

    def _decode_block(self, block: BasicBlock, function: Function) -> _DecodedBlock:
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            raise VMTrap(
                f"block {block.name} in @{function.name} has no terminator"
            )
        if any("batch_mult" in instr.attrs for instr in instructions):
            return self._decode_batch_block(block, function)
        phis = []
        i = 0
        while i < len(instructions) and instructions[i].opcode == "phi":
            instr = instructions[i]
            edges = {
                pred: self._resolver(value)
                for value, pred in instr.phi_incoming()
            }
            phis.append((instr, edges))
            i += 1
        body_instrs = instructions[i:-1]
        term_instr = instructions[-1]
        body = [
            (instr, instr.opcode, self._cost(instr), self._decode_instr(instr))
            for instr in body_instrs
        ]
        cost = self._cost(term_instr)
        op = term_instr.opcode
        tops = term_instr.operands
        if op == "br":
            term: Tuple = (_T_BR, cost, op, tops[0])
        elif op == "condbr":
            term = (
                _T_CONDBR, cost, op, self._resolver(tops[0]), tops[1], tops[2]
            )
        elif op == "ret":
            if tops:
                resolver = self._resolver(tops[0])
                if isinstance(tops[0], (Constant, UndefValue)) and isinstance(
                    tops[0].type, VectorType
                ):
                    # Shared constant payloads must not leak to callers who
                    # may mutate the returned array.
                    inner = resolver
                    resolver = lambda env: inner(env).copy()
                term = (_T_RET, cost, op, resolver)
            else:
                term = (_T_RET, cost, op, None)
        elif op == "unreachable":
            term = (_T_UNREACHABLE, cost, op)
        else:
            raise NotImplementedError(f"interpreter: terminator {op}")
        return _DecodedBlock(phis, body, term)

    # -- gang-batched blocks ----------------------------------------------------------
    #
    # Blocks annotated by ``repro.backend.batch`` execute B gangs per VM
    # step.  Each annotated instruction carries narrow charge prototypes
    # (``batch_charges``) and a multiplicity spec (``batch_mult``): the
    # number of unbatched-engine executions one batched step stands for.
    # A spec is an int (static multiplicity — loop-invariant code charges
    # ×B, header bookkeeping ×0) or a tuple of divergent-loop ids ending
    # in the static B; the VM resolves the first id with a live activity
    # count, so code under a divergent loop charges once per gang that
    # would still be iterating in the unbatched engine.

    def _batch_info(self, instr: Instruction):
        """``(charge_items, multspec)`` for an annotated instruction.

        ``charge_items`` is a tuple of ``(counts_key, narrow_cost)``; an
        external-call prototype contributes the unbatched engine's two
        charges (``call`` dispatch + the narrow ``ext:`` cost)."""
        cached = self._batch_cache.get(instr)
        if cached is not None:
            return cached
        info = (
            batch_charge_items(instr, self.machine, self._cost),
            instr.attrs["batch_mult"],
        )
        self._batch_cache[instr] = info
        return info

    @staticmethod
    def _batch_mult(spec, activity) -> int:
        if type(spec) is int:
            return spec
        for lid in spec:
            if type(lid) is int:
                return lid
            live = activity.get(lid)
            if live is not None:
                return live
        return 0  # pragma: no cover - specs always end in the static B

    def _batch_thunk(self, instr: Instruction):
        """Value thunk for a batched instruction.  Identical to the plain
        decode except for external calls, whose normal thunk charges the
        wide ``ext:`` cost internally — batched charging comes exclusively
        from the narrow prototypes."""
        if instr.opcode == "call" and isinstance(
            instr.operands[0], ExternalFunction
        ):
            impl = instr.operands[0].impl
            arg_resolvers = [self._resolver(o) for o in instr.operands[1:]]
            return lambda env, depth: impl(*[r(env) for r in arg_resolvers])
        return self._decode_instr(instr)

    def _decode_batch_block(self, block: BasicBlock, function: Function):
        """Decode an annotated block into ``(phis, body, term)``:

        ``phis`` — ``(instr, {pred: resolver}, items, multspec)``;
        ``body`` — ``(instr, items, multspec, thunk, activity)`` where
        ``activity`` is ``None`` or ``(loop_id, B, mask_resolver)`` for
        the divergent-loop ``mask_any``;
        ``term`` — ``(_T_BR, items, multspec, target)`` |
        ``(_T_CONDBR, items, multspec, cond_resolver, iftrue, iffalse,
        backedge_or_None)`` | ``(_T_UNREACHABLE, items, multspec)``.
        """
        instructions = block.instructions
        phis = []
        i = 0
        while instructions[i].opcode == "phi":
            instr = instructions[i]
            edges = {
                pred: self._resolver(value)
                for value, pred in instr.phi_incoming()
            }
            items, spec = self._batch_info(instr)
            phis.append((instr, edges, items, spec))
            i += 1
        body = []
        for instr in instructions[i:-1]:
            items, spec = self._batch_info(instr)
            act = None
            ba = instr.attrs.get("batch_activity")
            if ba is not None:
                act = (ba[0], ba[1], self._resolver(instr.operands[0]))
            body.append((instr, items, spec, self._batch_thunk(instr), act))
        term_instr = instructions[-1]
        items, spec = self._batch_info(term_instr)
        op = term_instr.opcode
        tops = term_instr.operands
        if op == "br":
            term: Tuple = (_T_BR, items, spec, tops[0])
        elif op == "condbr":
            term = (
                _T_CONDBR, items, spec, self._resolver(tops[0]),
                tops[1], tops[2], term_instr.attrs.get("batch_backedge"),
            )
        elif op == "unreachable":
            term = (_T_UNREACHABLE, items, spec)
        else:  # pragma: no cover - legality forbids ret/other inside the loop
            raise NotImplementedError(f"interpreter: batched terminator {op}")
        return _DecodedBlock((), (), None, batch=(tuple(phis), tuple(body), term))

    def _exec_batch_block(self, batch, env, depth, function, prev,
                          activity, pending):
        """Run one batched block; returns ``(False, next_block)`` or
        ``(True, return_value)``.

        Charging per instruction: each narrow charge item is applied
        ``m`` times at once (``cycles += cost·m`` is exact — the cost
        table is dyadic), with a single budget check per instruction.
        Prefix sums of the unbatched engine's charge sequence are a
        superset, so a budget crossing happens here iff the unbatched
        engine traps; the replay protocol then reproduces its exact trap
        point.
        """
        stats = self.stats
        counts = stats.counts
        limit = self.max_instructions
        phis, body, term = batch
        if phis:
            vals = []
            for instr, edges, items, spec in phis:
                resolver = edges.get(prev)
                if resolver is None:
                    raise KeyError(
                        f"phi has no incoming edge from block {prev.name}"
                    )
                vals.append(resolver(env))
                m = self._batch_mult(spec, activity)
                if m:
                    for key, cost in items:
                        stats.cycles += cost * m
                        stats.instructions += m
                        counts[key] = counts.get(key, 0) + m
                    if stats.instructions > limit:
                        raise ExecutionLimitExceeded(
                            f"exceeded {limit} instructions in @{function.name}"
                        )
            for (instr, _, _, _), val in zip(phis, vals):
                env[instr] = val
        for instr, items, spec, thunk, act in body:
            m = self._batch_mult(spec, activity)
            if m:
                for key, cost in items:
                    stats.cycles += cost * m
                    stats.instructions += m
                    counts[key] = counts.get(key, 0) + m
                if stats.instructions > limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} instructions in @{function.name}"
                    )
            env[instr] = thunk(env, depth)
            if act is not None:
                pending[act[0]] = gang_activity_count(act[2](env), act[1])
        kind = term[0]
        m = self._batch_mult(term[2], activity)
        if m:
            for key, cost in term[1]:
                stats.cycles += cost * m
                stats.instructions += m
                counts[key] = counts.get(key, 0) + m
            if stats.instructions > limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} instructions in @{function.name}"
                )
        if kind == _T_BR:
            return False, term[3]
        if kind == _T_CONDBR:
            target = term[4] if term[3](env) else term[5]
            backedge = term[6]
            if backedge is not None:
                # Divergent-loop backedge: the condbr charged with the
                # *previous* iteration's activity above; commit the count
                # the mask_any just computed before the next iteration
                # (or drop the loop's state on exit).
                lid, taken_idx = backedge
                if target is (term[4] if taken_idx == 1 else term[5]):
                    activity[lid] = pending[lid]
                else:
                    activity.pop(lid, None)
                    pending.pop(lid, None)
            return False, target
        raise VMTrap(f"reached 'unreachable' in @{function.name}")

    def _resolver(self, value: Value):
        """A 1-arg callable ``resolver(env)`` producing the operand's payload."""
        if isinstance(value, (Instruction, Argument)):
            return operator.itemgetter(value)
        if isinstance(value, Constant):
            payload = _constant_payload(value)
            return lambda env: payload
        if isinstance(value, UndefValue):
            payload = _undef_payload(value.type)
            return lambda env: payload
        if isinstance(value, (BasicBlock, Function, ExternalFunction)):
            return lambda env: value
        raise TypeError(f"cannot evaluate {value!r}")

    def _decode_instr(self, instr: Instruction):
        """Compile one non-phi, non-terminator instruction into a thunk.

        The thunk signature is ``thunk(env, depth) -> payload``; opcode
        dispatch, operand resolution strategy, cost lookup, and
        type-directed specialization all happen here, once per static
        instruction.
        """
        op = instr.opcode
        ops = instr.operands
        vec = isinstance(instr.type, VectorType)

        if op in INT_BINOPS or op in FLOAT_BINOPS:
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            if vec:
                elem = instr.type.elem
                return lambda env, depth: eval_vector_binop(op, elem, a(env), b(env))
            impl = scalar_binop_impl(op, instr.type)
            return lambda env, depth: impl(a(env), b(env))
        if op in UNARY_OPS:
            a = self._resolver(ops[0])
            if vec:
                elem = instr.type.elem
                return lambda env, depth: eval_vector_unop(op, elem, a(env))
            t = instr.type
            return lambda env, depth: eval_scalar_unop(op, t, a(env))
        if op == "icmp":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            pred = instr.attrs["pred"]
            src_t = ops[0].type
            if isinstance(src_t, VectorType):
                elem = src_t.elem
                return lambda env, depth: eval_vector_icmp(pred, elem, a(env), b(env))
            impl = scalar_icmp_impl(pred, src_t)
            return lambda env, depth: impl(a(env), b(env))
        if op == "fcmp":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            pred = instr.attrs["pred"]
            if isinstance(ops[0].type, VectorType):
                return lambda env, depth: eval_vector_fcmp(pred, a(env), b(env))
            impl = scalar_fcmp_impl(pred)
            return lambda env, depth: impl(a(env), b(env))
        if op in CAST_OPS:
            v = self._resolver(ops[0])
            from_t, to_t = ops[0].type, instr.type
            if isinstance(to_t, VectorType):
                from_e, to_e = from_t.elem, to_t.elem
                return lambda env, depth: eval_vector_cast(op, from_e, to_e, v(env))
            return lambda env, depth: eval_scalar_cast(op, from_t, to_t, v(env))
        if op == "select":
            cond = self._resolver(ops[0])
            a = self._resolver(ops[1])
            b = self._resolver(ops[2])
            if isinstance(ops[0].type, VectorType) or vec:
                return lambda env, depth: np.where(cond(env), a(env), b(env))
            return lambda env, depth: a(env) if cond(env) else b(env)
        if op == "fma":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            c = self._resolver(ops[2])
            if vec:
                return lambda env, depth: a(env) * b(env) + c(env)
            t = instr.type
            return lambda env, depth: round_float(
                t, round_float(t, a(env) * b(env)) + c(env)
            )

        # -- memory -------------------------------------------------------------------
        memory = self.memory
        if op == "load":
            addr = self._resolver(ops[0])
            t = instr.type
            return lambda env, depth: memory.load_scalar(addr(env), t)
        if op == "store":
            value = self._resolver(ops[0])
            addr = self._resolver(ops[1])
            t = ops[0].type
            def _store(env, depth):
                memory.store_scalar(addr(env), t, value(env))
                return None
            return _store
        if op == "gep":
            base = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            bits = ops[1].type.bits
            esize = instr.type.pointee.size_bytes()
            return lambda env, depth: mask_int(
                base(env) + to_signed(idx(env), bits) * esize, 64
            )
        if op == "alloca":
            size = max(
                instr.type.pointee.size_bytes() * instr.attrs.get("count", 1), 1
            )
            return lambda env, depth: memory.alloc(size)
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            addr = self._resolver(ops[0])
            val = self._resolver(ops[1])
            t = ops[1].type
            impl = scalar_binop_impl(rmw, t)
            def _atomicrmw(env, depth):
                a = addr(env)
                old = memory.load_scalar(a, t)
                memory.store_scalar(a, t, impl(old, val(env)))
                return old
            return _atomicrmw

        # -- vector -------------------------------------------------------------------
        if op == "broadcast":
            scalar = self._resolver(ops[0])
            count = instr.type.count
            dtype = elem_dtype(instr.type.elem)
            return lambda env, depth: np.full(count, scalar(env), dtype=dtype)
        if op == "extractelement":
            v = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            if instr.type.is_float:
                def _extract(env, depth):
                    a = v(env)
                    return float(a[int(idx(env)) % len(a)])
            else:
                def _extract(env, depth):
                    a = v(env)
                    return int(a[int(idx(env)) % len(a)])
            return _extract
        if op == "insertelement":
            v = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            elt = self._resolver(ops[2])
            def _insert(env, depth):
                a = v(env).copy()
                a[int(idx(env)) % len(a)] = elt(env)
                return a
            return _insert
        if op == "shuffle":
            src = self._resolver(ops[0])
            idx = self._resolver(ops[1])
            def _shuffle(env, depth):
                a = src(env)
                return a[idx(env).astype(np.int64) % len(a)]
            return _shuffle
        if op == "shuffle2":
            lo = self._resolver(ops[0])
            hi = self._resolver(ops[1])
            idx = self._resolver(ops[2])
            def _shuffle2(env, depth):
                both = np.concatenate([lo(env), hi(env)])
                return both[idx(env).astype(np.int64) % len(both)]
            return _shuffle2
        if op == "vload":
            addr = self._resolver(ops[0])
            mask = self._resolver(ops[1])
            dtype, count = elem_dtype(instr.type.elem), instr.type.count
            return lambda env, depth: memory.load_lanes(
                addr(env), dtype, count, mask(env)
            )
        if op == "vstore":
            value = self._resolver(ops[0])
            addr = self._resolver(ops[1])
            mask = self._resolver(ops[2])
            dtype = elem_dtype(ops[0].type.elem)
            def _vstore(env, depth):
                memory.store_lanes(addr(env), dtype, value(env), mask(env))
                return None
            return _vstore
        if op == "gather":
            addrs = self._resolver(ops[0])
            mask = self._resolver(ops[1])
            elem = instr.type.elem
            return lambda env, depth: memory.gather(addrs(env), elem, mask(env))
        if op == "scatter":
            value = self._resolver(ops[0])
            addrs = self._resolver(ops[1])
            mask = self._resolver(ops[2])
            elem = ops[0].type.elem
            def _scatter(env, depth):
                memory.scatter(addrs(env), elem, value(env), mask(env))
                return None
            return _scatter
        if op == "sad":
            a = self._resolver(ops[0])
            b = self._resolver(ops[1])
            def _sad(env, depth):
                diffs = np.abs(
                    a(env).astype(np.int64) - b(env).astype(np.int64)
                ).reshape(-1, 8).sum(axis=1)
                return diffs.astype(np.uint64)
            return _sad
        if op in REDUCE_OPS:
            v = self._resolver(ops[0])
            return lambda env, depth: reduce_lanes(op, instr, v(env))
        if op == "mask_any":
            m = self._resolver(ops[0])
            return lambda env, depth: 1 if bool(m(env).any()) else 0
        if op == "mask_all":
            m = self._resolver(ops[0])
            return lambda env, depth: 1 if bool(m(env).all()) else 0
        if op == "mask_popcnt":
            m = self._resolver(ops[0])
            return lambda env, depth: int(m(env).sum())

        # -- calls --------------------------------------------------------------------
        if op == "call":
            callee = ops[0]
            arg_resolvers = [self._resolver(o) for o in ops[1:]]
            if isinstance(callee, ExternalFunction):
                cost = callee.cost
                if callable(cost):
                    cost = cost(self.machine, [o.type for o in ops[1:]])
                cost = float(cost)
                label = f"ext:{callee.name}"
                impl = callee.impl
                charge = self.stats.charge
                def _ext_call(env, depth):
                    charge(label, cost)
                    return impl(*[r(env) for r in arg_resolvers])
                return _ext_call
            # Weak: the interpreter owns this thunk (see "Ownership").
            this = weakref.ref(self)
            def _call(env, depth):
                return this()._exec_function(
                    callee, [r(env) for r in arg_resolvers], depth + 1
                )
            return _call

        raise NotImplementedError(f"interpreter: opcode {op}")

    # -- reference engine ------------------------------------------------------------

    def _exec_reference(self, function: Function, argvals: List, depth: int):
        env: Dict[Value, object] = dict(zip(function.args, argvals))
        stack_mark = self.memory._brk  # frame-local alloca discipline
        block = function.entry
        prev: Optional[BasicBlock] = None
        stats = self.stats
        counts = stats.counts
        batched = function.attrs.get("batched")
        # Divergent-loop gang-activity state; see _exec_batch_block.
        activity: Dict[str, int] = {}
        pending: Dict[str, int] = {}

        def charge_batched(instr) -> None:
            items, spec = self._batch_info(instr)
            m = self._batch_mult(spec, activity)
            if m:
                for key, cost in items:
                    stats.cycles += cost * m
                    stats.instructions += m
                    counts[key] = counts.get(key, 0) + m
                if stats.instructions > self.max_instructions:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self.max_instructions} instructions"
                        f" in @{function.name}"
                    )

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
                            self._value(env, instr.phi_value_for(prev))
                        )
                        if batched and "batch_mult" in instr.attrs:
                            charge_batched(instr)
                        else:
                            stats.charge("phi", 0.0)
                            if stats.instructions > self.max_instructions:
                                raise ExecutionLimitExceeded(
                                    f"exceeded {self.max_instructions} instructions"
                                    f" in @{function.name}"
                                )
                    for instr, val in zip(instructions[:n_phi], phi_vals):
                        env[instr] = val
                for instr in instructions[n_phi:]:
                    annotated = batched and "batch_mult" in instr.attrs
                    if annotated:
                        charge_batched(instr)
                    else:
                        stats.charge(instr.opcode, self._cost(instr))
                        if stats.instructions > self.max_instructions:
                            raise ExecutionLimitExceeded(
                                f"exceeded {self.max_instructions} instructions in @{function.name}"
                            )
                    op = instr.opcode
                    if op == "br":
                        prev, block = block, instr.operands[0]
                        break
                    if op == "condbr":
                        cond = self._value(env, instr.operands[0])
                        target = instr.operands[1] if cond else instr.operands[2]
                        if annotated:
                            backedge = instr.attrs.get("batch_backedge")
                            if backedge is not None:
                                lid, taken_idx = backedge
                                if target is instr.operands[taken_idx]:
                                    activity[lid] = pending[lid]
                                else:
                                    activity.pop(lid, None)
                                    pending.pop(lid, None)
                        prev, block = block, target
                        break
                    if op == "ret":
                        if instr.operands:
                            return self._value(env, instr.operands[0])
                        return None
                    if op == "unreachable":
                        raise VMTrap(f"reached 'unreachable' in @{function.name}")
                    if annotated and op == "call" and isinstance(
                        instr.operands[0], ExternalFunction
                    ):
                        # Batched charging comes from the narrow prototypes;
                        # bypass the impl path that charges the wide cost.
                        env[instr] = instr.operands[0].impl(
                            *[self._value(env, o) for o in instr.operands[1:]]
                        )
                    else:
                        env[instr] = self._exec_instr(env, instr, depth)
                    ba = instr.attrs.get("batch_activity") if annotated else None
                    if ba is not None:
                        pending[ba[0]] = gang_activity_count(
                            self._value(env, instr.operands[0]), ba[1]
                        )
        finally:
            self.memory._brk = stack_mark

    def _exec_instr(self, env: Dict, instr: Instruction, depth: int):
        op = instr.opcode
        ops = instr.operands
        vec = isinstance(instr.type, VectorType)

        if op in INT_BINOPS or op in FLOAT_BINOPS:
            a = self._value(env, ops[0])
            b = self._value(env, ops[1])
            if vec:
                return eval_vector_binop(op, instr.type.elem, a, b)
            return eval_scalar_binop(op, instr.type, a, b)
        if op in UNARY_OPS:
            a = self._value(env, ops[0])
            if vec:
                return eval_vector_unop(op, instr.type.elem, a)
            return eval_scalar_unop(op, instr.type, a)
        if op == "icmp":
            a, b = self._value(env, ops[0]), self._value(env, ops[1])
            src_t = ops[0].type
            if isinstance(src_t, VectorType):
                return eval_vector_icmp(instr.attrs["pred"], src_t.elem, a, b)
            return eval_scalar_icmp(instr.attrs["pred"], src_t, a, b)
        if op == "fcmp":
            a, b = self._value(env, ops[0]), self._value(env, ops[1])
            if isinstance(ops[0].type, VectorType):
                return eval_vector_fcmp(instr.attrs["pred"], a, b)
            return eval_scalar_fcmp(instr.attrs["pred"], a, b)
        if op in CAST_OPS:
            v = self._value(env, ops[0])
            from_t, to_t = ops[0].type, instr.type
            if isinstance(to_t, VectorType):
                return eval_vector_cast(op, from_t.elem, to_t.elem, v)
            return eval_scalar_cast(op, from_t, to_t, v)
        if op == "select":
            cond = self._value(env, ops[0])
            a, b = self._value(env, ops[1]), self._value(env, ops[2])
            if isinstance(ops[0].type, VectorType) or vec:
                return np.where(cond, a, b)
            return a if cond else b
        if op == "fma":
            a, b, c = (self._value(env, o) for o in ops)
            if vec:
                return a * b + c
            return round_float(instr.type, round_float(instr.type, a * b) + c)

        # -- memory -------------------------------------------------------------------
        if op == "load":
            return self.memory.load_scalar(self._value(env, ops[0]), instr.type)
        if op == "store":
            value = self._value(env, ops[0])
            self.memory.store_scalar(self._value(env, ops[1]), ops[0].type, value)
            return None
        if op == "gep":
            base = self._value(env, ops[0])
            idx = self._value(env, ops[1])
            idx = to_signed(idx, ops[1].type.bits)
            return mask_int(base + idx * instr.type.pointee.size_bytes(), 64)
        if op == "alloca":
            size = instr.type.pointee.size_bytes() * instr.attrs.get("count", 1)
            return self.memory.alloc(max(size, 1))
        if op == "atomicrmw":
            rmw = instr.attrs["op"]
            if rmw not in ATOMIC_RMW_OPS:
                raise VMTrap(f"atomicrmw: unsupported op {rmw!r}")
            addr = self._value(env, ops[0])
            val = self._value(env, ops[1])
            old = self.memory.load_scalar(addr, ops[1].type)
            new = eval_scalar_binop(rmw, ops[1].type, old, val)
            self.memory.store_scalar(addr, ops[1].type, new)
            return old

        # -- vector -------------------------------------------------------------------
        if op == "broadcast":
            scalar = self._value(env, ops[0])
            return np.full(instr.type.count, scalar, dtype=elem_dtype(instr.type.elem))
        if op == "extractelement":
            v = self._value(env, ops[0])
            idx = self._value(env, ops[1])
            lane = v[int(idx) % len(v)]
            return float(lane) if instr.type.is_float else int(lane)
        if op == "insertelement":
            v = self._value(env, ops[0]).copy()
            idx = self._value(env, ops[1])
            v[int(idx) % len(v)] = self._value(env, ops[2])
            return v
        if op == "shuffle":
            src = self._value(env, ops[0])
            idx = self._value(env, ops[1]).astype(np.int64) % len(src)
            return src[idx]
        if op == "shuffle2":
            both = np.concatenate(
                [self._value(env, ops[0]), self._value(env, ops[1])]
            )
            idx = self._value(env, ops[2]).astype(np.int64) % len(both)
            return both[idx]
        if op == "vload":
            addr = self._value(env, ops[0])
            mask = self._value(env, ops[1])
            return self.memory.load_packed(addr, instr.type.elem, instr.type.count, mask)
        if op == "vstore":
            value = self._value(env, ops[0])
            addr = self._value(env, ops[1])
            mask = self._value(env, ops[2])
            self.memory.store_packed(addr, ops[0].type.elem, value, mask)
            return None
        if op == "gather":
            addrs = self._value(env, ops[0])
            mask = self._value(env, ops[1])
            return self.memory.gather(addrs, instr.type.elem, mask)
        if op == "scatter":
            value = self._value(env, ops[0])
            addrs = self._value(env, ops[1])
            mask = self._value(env, ops[2])
            self.memory.scatter(addrs, ops[0].type.elem, value, mask)
            return None
        if op == "sad":
            a = self._value(env, ops[0]).astype(np.int64)
            b = self._value(env, ops[1]).astype(np.int64)
            diffs = np.abs(a - b).reshape(-1, 8).sum(axis=1)
            return diffs.astype(np.uint64)
        if op in REDUCE_OPS:
            return reduce_lanes(op, instr, self._value(env, ops[0]))
        if op == "mask_any":
            return 1 if bool(self._value(env, ops[0]).any()) else 0
        if op == "mask_all":
            return 1 if bool(self._value(env, ops[0]).all()) else 0
        if op == "mask_popcnt":
            return int(self._value(env, ops[0]).sum())

        # -- calls --------------------------------------------------------------------
        if op == "call":
            callee = ops[0]
            args = [self._value(env, o) for o in ops[1:]]
            if isinstance(callee, ExternalFunction):
                cost = callee.cost
                if callable(cost):
                    cost = cost(self.machine, [o.type for o in ops[1:]])
                self.stats.charge(f"ext:{callee.name}", float(cost))
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

    def _cost(self, instr: Instruction) -> float:
        # Keyed by the instruction object (identity hash): unlike id(), a
        # live key can never be recycled to alias a different instruction.
        cost = self._cost_cache.get(instr)
        if cost is None:
            cost = self.cost_model.cost(instr, self.machine)
            self._cost_cache[instr] = cost
        return cost


def batch_charge_items(instr: Instruction, machine: Machine, cost) -> tuple:
    """The narrow charges one annotated instruction stands for: a tuple
    of ``(counts_key, narrow_cost)``, ``cost`` being ``instr -> cycles``
    (all engines, and the code generator, charge from this)."""
    items = []
    for proto in instr.attrs["batch_charges"]:
        if proto.opcode == "call":
            callee = proto.operands[0]
            ext_cost = callee.cost
            if callable(ext_cost):
                ext_cost = ext_cost(
                    machine, [o.type for o in proto.operands[1:]]
                )
            items.append(("call", cost(proto)))
            items.append((f"ext:{callee.name}", float(ext_cost)))
        else:
            items.append((proto.opcode, cost(proto)))
    return tuple(items)


def reduce_lanes(op: str, instr: Instruction, v: np.ndarray):
    """A horizontal ``reduce_*`` over one vector payload (all engines)."""
    elem = instr.operands[0].type.elem
    if op == "reduce_add":
        if elem.is_float:
            return round_float(instr.type, float(np.sum(v, dtype=v.dtype)))
        if elem.bits == 1:
            return 1 if bool(np.bitwise_xor.reduce(v)) else 0
        return int(np.add.reduce(v, dtype=v.dtype))
    if op in ("reduce_min_s", "reduce_max_s"):
        from .nputil import from_signed, signed_view

        sv = signed_view(v)
        r = int(sv.min() if op.endswith("min_s") else sv.max())
        return from_signed(r, elem.bits)
    if op == "reduce_min_u":
        r = v.min()
        return float(r) if elem.is_float else int(r)
    if op == "reduce_max_u":
        r = v.max()
        return float(r) if elem.is_float else int(r)
    if op == "reduce_and":
        if elem.bits == 1:
            return 1 if bool(v.all()) else 0
        return int(np.bitwise_and.reduce(v))
    if op == "reduce_or":
        if elem.bits == 1:
            return 1 if bool(v.any()) else 0
        return int(np.bitwise_or.reduce(v))
    raise NotImplementedError(op)


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
