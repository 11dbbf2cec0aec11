"""``repro.shard`` — supervised multi-process sharded kernel execution.

Splits one kernel launch's gang range into ``k`` contiguous shards and
runs them on a pool of forked worker processes under a supervisor that
survives every realistic worker failure — crash, hang, corruption, lost
message — while producing **bitwise-identical** results (outputs *and*
aggregated :class:`~repro.backend.machine.ExecStats`) to the in-process
engine.

How a shard executes
--------------------

Workers do not receive a rewritten module.  Each worker runs the *whole*
kernel through the ordinary decoded engine with a
:class:`_ShardController` installed on the interpreter
(``Interpreter.shard``).  The controller intercepts every block dispatch
at depth 0:

* at the header of a matched gang loop it computes the loop's unit count
  ``U = ceil((bound - init) / step)`` and this shard's owned slice
  ``[U*s//k, U*(s+1)//k)`` (the last shard additionally owns the final
  exit evaluation of the header);
* **owned units** execute normally and are charged normally;
* **unowned units** are *skimmed*: the induction value is advanced
  directly in the environment and control re-enters the header, charging
  nothing — the header is therefore evaluated exactly once per owned
  unit, and ``U + 1`` times globally across the pool, matching the
  in-process engine;
* **serial code** (everything outside matched loops) executes in every
  shard — its memory writes are recomputed identically, which keeps each
  worker's image self-consistent — but is *charged* only by shard 0:
  shards > 0 snapshot the counters when leaving owned code and roll the
  serial charges back at the next owned unit.

Because every per-unit cost in the model is a dyadic rational
(0.5/1/2/8/9/20 and power-of-two bandwidth terms), float cycle sums are
exact and order-independent, so the supervisor's shard-order merge
reproduces the in-process totals bit-for-bit.

Supervision
-----------

The supervisor forks one worker per pool slot (the initial memory image
and module travel by copy-on-write, nothing is pickled), dispatches
shards in ascending order over duplex pipes, and enforces a per-shard
deadline (:func:`shard_timeout`).  Workers heartbeat from a daemon
thread.  A dead, hung, or corrupt worker is killed and reaped, its
staged writes are discarded, and the shard is re-dispatched with
exponential backoff to a healthy (possibly respawned) worker, at most
``max_attempts`` times.  A shard that exhausts its attempts — or a pool
that cannot keep any worker alive — *degrades*: the supervisor drains
the remaining shards in-process through the very same
:func:`_execute_shard` code path, so results stay bitwise identical and
the launch never errors.  A genuine kernel error inside a shard fails
the whole launch over to one authoritative full in-process rerun.

Shard results ship as validated deltas: the worker diffs its final
memory against the initial image, stages the changed byte ranges with a
CRC, and the supervisor applies validated deltas to the pristine image
in shard order — the same order the in-process engine wrote them.

Worker-site fault injection (``worker_crash`` / ``worker_hang`` /
``worker_corrupt`` / ``ipc_drop`` — see :mod:`repro.faultinject`) is
decided *supervisor-side* at dispatch and shipped with the job, so plan
state survives the worker it kills and a bounded plan lets the retry
succeed.

Limitations (documented contract):

* only loops matching the (relaxed) gang-loop shape are sharded; a
  launch with no such loop, a non-void kernel, atomics, the reference
  engine, or non-worker fault sites armed runs in-process and records a
  ``rejected`` shard report;
* serial code must not *read* memory written by gang iterations (the
  SPMD contract already forbids it; every benchsuite kernel complies);
* a launch that would trip the instruction budget in-process may not
  trip it sharded (each shard gets its own budget);
* the whole-kernel codegen engine (:mod:`repro.backend.codegen`) is
  disarmed under a shard controller: codegen only arms inside the
  replayable wrapper, which sharded runs bypass, so workers execute the
  decoded engine — the controller's per-dispatch interception has no
  seam in a compiled kernel body.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import diskcache, faultinject
from .backend.machine import AVX512, ExecStats, Machine
from .diagnostics import ExecutionError, ReproError, emit_warning
from .ir.cfg import DominatorTree, Loop, dominator_tree, find_loops
from .ir.instructions import Instruction
from .ir.module import Function, Module
from .ir.types import IntType, VectorType
from .ir.values import Argument, Constant
from .vm.interp import Interpreter
from .vm.memory import Memory, MemorySnapshot

__all__ = [
    "MAX_SHARDS",
    "DEFAULT_TIMEOUT",
    "ShardPlan",
    "ShardResult",
    "shard_count",
    "shard_timeout",
    "run_sharded",
]

#: Hard ceiling on the shard count (beyond this the skim overhead of the
#: serial replays dwarfs any parallelism).
MAX_SHARDS = 64

#: Default per-shard deadline in seconds.
DEFAULT_TIMEOUT = 30.0

#: Dispatch attempts per shard before it degrades to an in-process drain.
MAX_ATTEMPTS = 3

#: Base of the exponential re-dispatch backoff, seconds.
BACKOFF_BASE = 0.02

#: Adjacent dirty byte ranges closer than this are merged into one delta
#: segment (fewer, larger copies).
_MERGE_GAP = 64

_WORKER_SITE_ORDER = ("worker_crash", "worker_hang", "worker_corrupt", "ipc_drop")


# -- environment knobs ---------------------------------------------------------


def shard_count() -> int:
    """``REPRO_SHARDS`` (0 = off).  Unparsable or out-of-range values emit
    a structured :class:`~repro.diagnostics.ReproWarning` and fall back to
    a safe default — they never take the run down."""
    raw = os.environ.get("REPRO_SHARDS", "")
    if not raw:
        return 0
    try:
        count = int(raw)
    except ValueError:
        emit_warning(
            f"unparsable REPRO_SHARDS value {raw!r} (expected an integer); "
            "sharding stays off",
            stage="shard",
            detail={"variable": "REPRO_SHARDS", "value": raw},
        )
        return 0
    if count < 0:
        emit_warning(
            f"out-of-range REPRO_SHARDS={count} (expected 0..{MAX_SHARDS}); "
            "sharding stays off",
            stage="shard",
            detail={"variable": "REPRO_SHARDS", "value": raw},
        )
        return 0
    if count > MAX_SHARDS:
        emit_warning(
            f"out-of-range REPRO_SHARDS={count}; clamping to {MAX_SHARDS}",
            stage="shard",
            detail={"variable": "REPRO_SHARDS", "value": raw},
        )
        return MAX_SHARDS
    return count


def shard_timeout() -> float:
    """``REPRO_SHARD_TIMEOUT`` per-shard deadline in seconds (default
    ``DEFAULT_TIMEOUT``); unparsable or non-positive values emit a
    :class:`~repro.diagnostics.ReproWarning` and use the default."""
    raw = os.environ.get("REPRO_SHARD_TIMEOUT", "")
    if not raw:
        return DEFAULT_TIMEOUT
    try:
        timeout = float(raw)
    except ValueError:
        emit_warning(
            f"unparsable REPRO_SHARD_TIMEOUT value {raw!r} (expected seconds); "
            f"using {DEFAULT_TIMEOUT}",
            stage="shard",
            detail={"variable": "REPRO_SHARD_TIMEOUT", "value": raw},
        )
        return DEFAULT_TIMEOUT
    if not math.isfinite(timeout) or timeout <= 0:
        emit_warning(
            f"out-of-range REPRO_SHARD_TIMEOUT={raw} (expected > 0 seconds); "
            f"using {DEFAULT_TIMEOUT}",
            stage="shard",
            detail={"variable": "REPRO_SHARD_TIMEOUT", "value": raw},
        )
        return DEFAULT_TIMEOUT
    return timeout


# -- gang-loop matching --------------------------------------------------------


class _LoopDesc:
    """One shardable gang loop: the values the controller needs at run time."""

    __slots__ = (
        "header", "phi", "icmp", "inc", "step", "mask",
        "init", "bound", "latch", "exit_block", "members", "resolvers",
    )

    def __init__(self, header, phi, icmp, inc, step, mask, init, bound,
                 latch, exit_block, members):
        self.header = header
        self.phi = phi
        self.icmp = icmp
        self.inc = inc
        self.step = step
        self.mask = mask
        self.init = init
        self.bound = bound
        self.latch = latch
        self.exit_block = exit_block
        self.members = members
        self.resolvers = None  # built lazily from the first interpreter


def _loop_invariant(value, loop: Loop, dt: DominatorTree, entry_pred) -> bool:
    """True when ``value`` is resolvable at the loop's entry edge: a
    constant, an argument, or an instruction defined outside the loop in a
    block dominating the entry predecessor."""
    if isinstance(value, (Constant, Argument)):
        return True
    if isinstance(value, Instruction):
        parent = value.parent
        return (
            parent is not None
            and parent not in loop.blocks
            and dt.dominates(parent, entry_pred)
        )
    return False


def _match_shard_loop(loop: Loop, dt: DominatorTree) -> Optional[_LoopDesc]:
    """The gang-loop shape :mod:`repro.backend.batch` matches, relaxed to
    any loop-invariant init/bound (batching requires ``init == 0``), and
    tightened to single-exit so skimming cannot skip a break."""
    header = loop.header
    if set(loop.exiting_blocks()) != {header}:
        return None
    latches = loop.latches
    if len(latches) != 1:
        return None
    latch = latches[0]
    phis = header.phis()
    if len(phis) != 1:
        return None
    phi = phis[0]
    if isinstance(phi.type, VectorType) or not isinstance(phi.type, IntType):
        return None
    rest = header.non_phi_instructions()
    if len(rest) != 2:
        return None
    cmp_, term = rest
    if (
        cmp_.opcode != "icmp"
        or cmp_.attrs.get("pred") != "ult"
        or cmp_.operands[0] is not phi
    ):
        return None
    if term.opcode != "condbr" or term.operands[0] is not cmp_:
        return None
    if term.operands[1] not in loop.blocks or term.operands[2] in loop.blocks:
        return None
    exit_block = term.operands[2]
    entry_preds = [b for b in header.predecessors if b not in loop.blocks]
    if len(entry_preds) != 1:
        return None
    entry_pred = entry_preds[0]
    bound = cmp_.operands[1]
    if not _loop_invariant(bound, loop, dt, entry_pred):
        return None
    try:
        inc = phi.phi_value_for(latch)
    except KeyError:
        return None
    if not (
        isinstance(inc, Instruction)
        and inc.opcode == "add"
        and inc.parent in loop.blocks
        and inc.operands[0] is phi
    ):
        return None
    step = inc.operands[1]
    if not isinstance(step, Constant) or isinstance(step.type, VectorType):
        return None
    step_value = int(step.as_signed())
    if step_value < 2:  # gang loops stride by the gang size; plain
        return None     # step-1 loops carry no independence guarantee
    try:
        init = phi.phi_value_for(entry_pred)
    except KeyError:
        return None
    if not _loop_invariant(init, loop, dt, entry_pred):
        return None
    mask = (1 << phi.type.bits) - 1
    return _LoopDesc(
        header, phi, cmp_, inc, step_value, mask, init, bound,
        latch, exit_block, frozenset(loop.blocks),
    )


def _find_shard_loops(function: Function) -> Dict[object, _LoopDesc]:
    """Top-level matched gang loops of ``function``, keyed by header.

    Only loops with no ancestor are candidates: a gang loop nested in an
    outer (serial) loop re-enters — each entry may read memory that the
    *previous* entry's other shards wrote (a stencil's timestep loop),
    which a worker that skimmed those units never computed.  Such kernels
    reject and run in-process rather than risk a wrong answer.
    """
    dt = dominator_tree(function)
    descs: Dict[object, _LoopDesc] = {}
    for loop in find_loops(function, dt):  # sorted outer-first by depth
        if loop.parent is not None:
            continue
        desc = _match_shard_loop(loop, dt)
        if desc is not None:
            descs[desc.header] = desc
    return descs


class ShardPlan:
    """Per-module shard analysis: matched gang loops per function (lazy)
    plus launch legality for one kernel."""

    def __init__(self, module: Module, function_name: str):
        self.module = module
        self.function_name = function_name
        self._loops: Dict[Function, Dict[object, _LoopDesc]] = {}

    def loops_for(self, function: Function) -> Dict[object, _LoopDesc]:
        cached = self._loops.get(function)
        if cached is None:
            cached = self._loops[function] = _find_shard_loops(function)
        return cached

    def rejection_reasons(self) -> List[str]:
        """Why this launch cannot shard (empty = legal)."""
        reasons: List[str] = []
        kernel = self.module.functions.get(self.function_name)
        if kernel is None:
            return [f"no function @{self.function_name} in the module"]
        for fn in self.module.functions.values():
            for block in fn.blocks:
                for instr in block.instructions:
                    if instr.opcode == "atomicrmw":
                        reasons.append(
                            "atomics require a serialized cross-gang order"
                        )
                        break
                else:
                    continue
                break
            else:
                continue
            break
        for block in kernel.blocks:
            term = block.terminator
            if term is not None and term.opcode == "ret" and term.operands:
                reasons.append("kernel returns a value")
                break
        if not self.loops_for(kernel):
            reasons.append("no shardable gang loops in the kernel")
        return reasons


# -- the per-shard controller --------------------------------------------------


class _ShardRun:
    """What ``Interpreter.shard`` holds: which slice of the launch this
    interpreter executes."""

    __slots__ = ("plan", "index", "count")

    def __init__(self, plan: ShardPlan, index: int, count: int):
        self.plan = plan
        self.index = index
        self.count = count

    def controller(self, function: Function, interp: Interpreter):
        return _ShardController(
            self.plan.loops_for(function), self.index, self.count, interp
        )


class _ShardController:
    """Intercepts block dispatch at depth 0 (see module docstring).

    ``keep`` tracks whether counter charges since the last snapshot belong
    to this shard (owned gang units) or are serial replays to roll back.
    Shard 0 keeps everything and never snapshots.
    """

    __slots__ = (
        "descs", "index", "count", "interp",
        "state", "cur_members", "keep", "snap",
    )

    def __init__(self, descs, index, count, interp):
        self.descs = descs
        self.index = index
        self.count = count
        self.interp = interp
        #: header -> (init, bound, lo, hi, units) for the current entry
        self.state: Dict[object, Tuple[int, int, int, int, int]] = {}
        self.cur_members = None
        self.keep = True
        self.snap = None
        if index:
            # Charges start as serial (the kernel prologue) — snapshot the
            # zeroed counters so they can be rolled back.
            self._snapshot()
            self.keep = False

    def _snapshot(self) -> None:
        interp = self.interp
        stats = interp.stats
        self.snap = (
            stats.cycles, stats.instructions, dict(stats.counts),
            dict(interp.func_cycles), dict(interp.func_calls),
            dict(interp.edge_cycles), dict(interp.edge_calls),
            interp._child_cycles,
        )

    def _restore(self) -> None:
        interp = self.interp
        stats = interp.stats
        snap = self.snap
        stats.cycles, stats.instructions = snap[0], snap[1]
        stats.counts.clear()
        stats.counts.update(snap[2])
        for live, saved in (
            (interp.func_cycles, snap[3]), (interp.func_calls, snap[4]),
            (interp.edge_cycles, snap[5]), (interp.edge_calls, snap[6]),
        ):
            live.clear()
            live.update(saved)
        interp._child_cycles = snap[7]

    def step(self, block, prev, env):
        """Called at the top of the dispatch loop for every block.

        Returns ``None`` to execute ``block`` normally, or ``(prev, block)``
        to jump instead (nothing charged).
        """
        desc = self.descs.get(block)
        if desc is None:
            # Serial (or inner-body) block.  Transitioning out of owned
            # loop code on shards > 0 snapshots, so the serial charges
            # that follow can be rolled back at the next owned unit.
            if self.index and self.keep and (
                self.cur_members is None or block not in self.cur_members
            ):
                self._snapshot()
                self.keep = False
                self.cur_members = None
            return None
        st = self.state.get(block)
        if st is None or prev is not desc.latch:
            # (Re-)entering the loop: resolve init/bound for this entry.
            resolvers = desc.resolvers
            if resolvers is None:
                interp = self.interp
                resolvers = desc.resolvers = (
                    interp._resolver(desc.init), interp._resolver(desc.bound)
                )
            init = resolvers[0](env)
            bound = resolvers[1](env)
            units = (
                (bound - init + desc.step - 1) // desc.step
                if bound > init else 0
            )
            count = self.count
            lo = units * self.index // count
            hi = (
                units * (self.index + 1) // count
                if self.index < count - 1
                else units + 1  # the last shard owns the exit evaluation
            )
            st = self.state[block] = (init, bound, lo, hi, units)
            base = init
        else:
            base = env[desc.inc]
        init, bound, lo, hi, units = st
        if base < bound:
            unit = (base - init) // desc.step
            if lo <= unit < hi:
                # Owned unit: roll back pending serial charges, then let
                # the header (and body) execute and charge normally.
                if self.index and not self.keep:
                    self._restore()
                    self.keep = True
                self.cur_members = desc.members
                return None
            # Unowned unit: skim.  Advance the induction value exactly as
            # the (add phi, step) would and re-enter the header, charging
            # nothing.
            env[desc.inc] = (base + desc.step) & desc.mask
            return (desc.latch, block)
        # base >= bound: the final exit evaluation of the header.
        if lo <= units < hi:
            # Owned (last shard): execute the header normally — it charges
            # the phi + icmp + condbr of the exit test, as in-process.
            if self.index and not self.keep:
                self._restore()
                self.keep = True
            self.cur_members = desc.members
            return None
        # Unowned exit: materialize the values the exit edge carries and
        # jump straight to the exit block, charging nothing.
        env[desc.phi] = base
        env[desc.icmp] = 0
        return (block, desc.exit_block)

    def finish(self) -> None:
        """Called once at function return: drop trailing serial charges."""
        if self.index and not self.keep:
            self._restore()
            self.keep = True


# -- shard execution (shared by workers and the local drain) -------------------


def _memory_delta(initial: MemorySnapshot, memory: Memory):
    """Dirty byte ranges of ``memory`` vs ``initial`` plus a CRC over the
    (ranges, bytes) staging payload."""
    # Above the snapshot's extent the launch image was all zero, and
    # above the live extent it still is.
    kept = initial.image.size
    final = memory.image(max(memory.extent, kept))
    dirty = np.concatenate((
        np.flatnonzero(initial.image != final[:kept]),
        kept + np.flatnonzero(final[kept:]),
    ))
    if dirty.size == 0:
        return [], b"", zlib.crc32(b"")
    breaks = np.flatnonzero(np.diff(dirty) > _MERGE_GAP)
    starts = dirty[np.concatenate(([0], breaks + 1))]
    ends = dirty[np.concatenate((breaks, [dirty.size - 1]))] + 1
    ranges = [(int(s), int(e)) for s, e in zip(starts, ends)]
    blob = b"".join(final[s:e].tobytes() for s, e in ranges)
    head = np.asarray(ranges, dtype=np.int64).tobytes()
    return ranges, blob, zlib.crc32(blob, zlib.crc32(head))


def _delta_crc(ranges, blob) -> int:
    head = np.asarray(ranges, dtype=np.int64).tobytes() if ranges else b""
    return zlib.crc32(blob, zlib.crc32(head)) if ranges else zlib.crc32(b"")


def _execute_shard(interp: Interpreter, plan: ShardPlan, index: int,
                   count: int, function_name: str, args,
                   initial: MemorySnapshot) -> Dict[str, object]:
    """Run one shard on ``interp`` (memory already restored to ``initial``)
    and package counters + staged memory delta.

    Every shard executes the kernel once, so the root call is decremented
    here and re-added exactly once by the supervisor's merge.
    """
    interp.reset_stats()
    interp.shard = _ShardRun(plan, index, count)
    try:
        interp.run(function_name, *args)
    finally:
        interp.shard = None
    stats = interp.stats
    ranges, blob, crc = _memory_delta(initial, interp.memory)
    func_calls = dict(interp.func_calls)
    func_calls[function_name] = func_calls.get(function_name, 1) - 1
    edge_calls = dict(interp.edge_calls)
    root = ("<root>", function_name)
    edge_calls[root] = edge_calls.get(root, 1) - 1
    return {
        "shard": index,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "counts": dict(stats.counts),
        "func_cycles": dict(interp.func_cycles),
        "func_calls": func_calls,
        "edge_cycles": dict(interp.edge_cycles),
        "edge_calls": edge_calls,
        "ranges": ranges,
        "blob": blob,
        "crc": crc,
    }


# -- the worker process --------------------------------------------------------


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a sanitized stand-in that
    keeps the type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecutionError(
            f"{type(exc).__name__}: {exc}",
            stage="vm",
            detail={"unpicklable_type": type(exc).__name__},
        )


def _worker_main(conn, spec: Dict[str, object]) -> None:
    """Entry point of one forked shard worker.

    ``spec`` travels by fork (copy-on-write), never pickled.  The worker
    heartbeats from a daemon thread, executes one job at a time, and obeys
    the fault directive shipped with each job.
    """
    import threading

    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except (OSError, ValueError):
                return False

    def _heartbeat() -> None:
        while not stop.wait(spec["hb"]):
            _send(("hb", os.getpid()))

    threading.Thread(target=_heartbeat, daemon=True).start()

    module = None
    recipe = spec.get("recipe")
    if recipe is not None:
        # Warm start: recompile through the driver so the disk cache is
        # exercised; any failure falls back to the fork-inherited module.
        try:
            if "pickled" in recipe:
                module = diskcache.loads_module(recipe["pickled"])
            else:
                from .driver import compile_parsimony

                module = compile_parsimony(
                    recipe["source"],
                    module_name=recipe.get("module_name", "parsimony"),
                )
        except Exception:
            module = None
    if module is None:
        module = spec["module"]

    initial: MemorySnapshot = spec["initial"]
    memory = Memory(size=initial.size)
    interp = Interpreter(
        module,
        machine=spec["machine"],
        cost_model=spec["cost_model"],
        memory=memory,
    )
    plan = ShardPlan(module, spec["function"])
    args = spec["args"]
    function_name = spec["function"]

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "quit":
                break
            _, index, count, directive = msg
            memory.restore(initial)
            try:
                payload = _execute_shard(
                    interp, plan, index, count, function_name, args, initial
                )
            except BaseException as exc:  # ship kernel errors, never die
                _send(("err", index, _picklable_error(exc)))
                continue
            if directive == "worker_crash":
                os._exit(137)  # computed but never shipped: SIGKILL stand-in
            if directive == "worker_corrupt":
                # Flip a staged byte *after* the CRC was computed, so the
                # supervisor must catch the mismatch.
                if payload["blob"]:
                    blob = bytearray(payload["blob"])
                    blob[0] ^= 0xFF
                    payload["blob"] = bytes(blob)
                else:
                    payload["crc"] ^= 1
            if directive == "worker_hang":
                time.sleep(3600.0)  # the supervisor's deadline reaps us
            if directive == "ipc_drop":
                continue  # computed but the message is "lost"
            _send(("ok", index, payload))
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


# -- results -------------------------------------------------------------------


class ShardResult:
    """What :func:`run_sharded` returns — duck-compatible with the slice of
    :class:`~repro.vm.interp.Interpreter` the benchsuite runner reads
    (``stats`` / ``hotspots()`` / ``batch_replays``)."""

    def __init__(self, stats: ExecStats, func_cycles, func_calls,
                 edge_cycles, edge_calls, report: Dict[str, object],
                 returned=None, batch_replays: int = 0):
        self.stats = stats
        self.func_cycles = func_cycles
        self.func_calls = func_calls
        self.edge_cycles = edge_cycles
        self.edge_calls = edge_calls
        self.report = report
        self.returned = returned
        self.batch_replays = batch_replays

    def hotspots(self) -> List[Dict[str, object]]:
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


class _KernelFailed(Exception):
    """Internal: a worker reported a genuine kernel error for a shard."""

    def __init__(self, shard_index: int, error: BaseException):
        super().__init__(f"shard {shard_index} kernel error")
        self.shard_index = shard_index
        self.error = error


# -- the supervisor ------------------------------------------------------------


class _WorkerSlot:
    __slots__ = ("proc", "conn", "shard", "deadline", "last_hb")

    def __init__(self, proc, conn, now: float):
        self.proc = proc
        self.conn = conn
        self.shard: Optional[int] = None
        self.deadline = 0.0
        self.last_hb = now


class _Supervisor:
    def __init__(self, module, function_name, args, machine, memory, count,
                 timeout, workers, cost_model, label,
                 max_attempts, recipe, plan):
        self.module = module
        self.function_name = function_name
        self.args = args
        self.machine = machine
        self.memory = memory
        self.count = count
        self.timeout = timeout
        self.cost_model = cost_model
        self.label = label
        self.max_attempts = max_attempts
        self.recipe = recipe
        self.plan = plan
        self.workers = workers
        self.initial = memory.snapshot()
        self.hb = min(1.0, max(timeout / 4.0, 0.05))
        self.retries = 0
        self.degraded = 0
        self.results: Dict[int, Dict[str, object]] = {}
        self.attempts = [0] * count
        self.slots: Dict[int, Optional[_WorkerSlot]] = {}
        self.respawn_budget = 2 * count + workers
        self._local: Optional[Interpreter] = None
        self.events: List[Dict[str, object]] = []

    # -- worker pool ----------------------------------------------------------

    def _spawn(self, slot_id: int) -> Optional[_WorkerSlot]:
        if self.respawn_budget <= 0:
            return None
        self.respawn_budget -= 1
        spec = {
            "module": self.module,
            "recipe": self.recipe,
            "function": self.function_name,
            "args": self.args,
            "machine": self.machine,
            "cost_model": self.cost_model,
            "initial": self.initial,
            "hb": self.hb,
        }
        try:
            parent, child = self.ctx.Pipe()
            proc = self.ctx.Process(
                target=_worker_main,
                args=(child, spec),
                daemon=True,
                name=f"repro-shard-{slot_id}",
            )
            proc.start()
            child.close()
        except (OSError, ValueError):
            return None
        return _WorkerSlot(proc, parent, time.monotonic())

    def _reap(self, slot: _WorkerSlot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        proc = slot.proc
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            else:
                proc.join(0.1)
        except (OSError, ValueError, AssertionError):
            pass

    def _shutdown(self) -> None:
        for slot in self.slots.values():
            if slot is None:
                continue
            try:
                slot.conn.send(("quit",))
            except (OSError, ValueError):
                pass
        for slot in self.slots.values():
            if slot is not None:
                self._reap(slot)
        self.slots = {}

    # -- failure handling -----------------------------------------------------

    def _shard_failed(self, index: int, reason: str, pending: List[int],
                      not_before: Dict[int, float]) -> None:
        """Retry with backoff, or degrade the shard to a local drain."""
        self.events.append({"shard": index, "event": reason})
        if self.attempts[index] < self.max_attempts:
            self.retries += 1
            pending.append(index)
            pending.sort()
            not_before[index] = (
                time.monotonic() + BACKOFF_BASE * (2 ** (self.attempts[index] - 1))
            )
            return
        self._drain_local(index, f"{reason}; attempts exhausted")

    def _worker_failed(self, slot_id: int, reason: str, pending: List[int],
                       not_before: Dict[int, float]) -> None:
        slot = self.slots.get(slot_id)
        if slot is None:
            return
        in_flight = slot.shard
        self._reap(slot)
        self.slots[slot_id] = self._spawn(slot_id)
        if in_flight is not None and in_flight not in self.results:
            self._shard_failed(in_flight, reason, pending, not_before)

    def _drain_local(self, index: int, reason: str) -> None:
        """Degradation: run the shard in-process through the same
        :func:`_execute_shard` path (bitwise identical by construction)."""
        self.degraded += 1
        self.events.append({"shard": index, "event": f"degraded: {reason}"})
        interp = self._local
        if interp is None:
            interp = self._local = Interpreter(
                self.module,
                machine=self.machine,
                cost_model=self.cost_model,
                memory=Memory(size=self.initial.size),
            )
        interp.memory.restore(self.initial)
        try:
            self.results[index] = _execute_shard(
                interp, self.plan, index, self.count,
                self.function_name, self.args, self.initial,
            )
        except BaseException as exc:
            raise _KernelFailed(index, exc)

    # -- the event loop -------------------------------------------------------

    def _handle_message(self, slot: _WorkerSlot, msg, pending: List[int],
                        not_before: Dict[int, float]) -> None:
        kind = msg[0]
        if kind == "hb":
            slot.last_hb = time.monotonic()
            return
        if kind == "err":
            _, index, error = msg
            if slot.shard == index:
                slot.shard = None
            raise _KernelFailed(index, error)
        if kind != "ok":
            return
        _, index, payload = msg
        if slot.shard == index:
            slot.shard = None
        if index in self.results:
            return  # duplicate (e.g. a slow shard already drained locally)
        if _delta_crc(payload["ranges"], payload["blob"]) != payload["crc"]:
            # Corrupted staging slice: discard it and retry the shard.
            self._shard_failed(index, "staged delta failed CRC validation",
                              pending, not_before)
            return
        self.results[index] = payload

    def _dispatch(self, pending: List[int],
                  not_before: Dict[int, float]) -> None:
        now = time.monotonic()
        for slot_id, slot in self.slots.items():
            if not pending:
                return
            if slot is None or slot.shard is not None:
                continue
            ready = next(
                (i for i in pending if not_before.get(i, 0.0) <= now), None
            )
            if ready is None:
                return
            directive = None
            for site in _WORKER_SITE_ORDER:
                if faultinject.should_fire(site, f"{self.label}:{ready}"):
                    directive = site
                    break
            pending.remove(ready)
            self.attempts[ready] += 1
            try:
                slot.conn.send(("job", ready, self.count, directive))
            except (OSError, ValueError):
                pending.append(ready)
                pending.sort()
                self.attempts[ready] -= 1
                self._worker_failed(slot_id, "dispatch pipe failed",
                                    pending, not_before)
                continue
            slot.shard = ready
            slot.deadline = time.monotonic() + self.timeout

    def supervise(self) -> None:
        from multiprocessing import connection as mpc

        pending = list(range(self.count))
        not_before: Dict[int, float] = {}
        for slot_id in range(self.workers):
            self.slots[slot_id] = self._spawn(slot_id)

        try:
            while len(self.results) < self.count:
                live = {
                    sid: s for sid, s in self.slots.items() if s is not None
                }
                if not live:
                    # Pool lost below quorum and respawn failed: drain
                    # every unresolved shard in-process, in order.
                    for index in range(self.count):
                        if index not in self.results:
                            self._drain_local(index, "no live workers")
                    return
                self._dispatch(pending, not_before)

                now = time.monotonic()
                wakeups = [s.deadline for s in live.values()
                           if s.shard is not None]
                wakeups += [t for i, t in not_before.items() if i in pending]
                wait_for = max(
                    0.0, min((t - now for t in wakeups), default=0.05)
                )
                conns = {s.conn: sid for sid, s in live.items()}
                for conn in mpc.wait(list(conns), timeout=min(wait_for, 0.25)):
                    slot_id = conns[conn]
                    slot = self.slots.get(slot_id)
                    if slot is None or slot.conn is not conn:
                        continue
                    try:
                        while True:
                            msg = conn.recv()
                            self._handle_message(slot, msg, pending, not_before)
                            if not conn.poll():
                                break
                    except (EOFError, OSError):
                        self._worker_failed(slot_id, "worker died mid-shard",
                                            pending, not_before)

                now = time.monotonic()
                for slot_id, slot in list(self.slots.items()):
                    if slot is None:
                        if pending:
                            self.slots[slot_id] = self._spawn(slot_id)
                        continue
                    if slot.shard is not None and now > slot.deadline:
                        self._worker_failed(
                            slot_id, "per-shard deadline exceeded (hang)",
                            pending, not_before,
                        )
                    elif not slot.proc.is_alive() and (
                        now - slot.last_hb > 2 * self.hb
                    ):
                        self._worker_failed(
                            slot_id, "worker process exited",
                            pending, not_before,
                        )
        finally:
            self._shutdown()

    # -- merging --------------------------------------------------------------

    def merge(self) -> ShardResult:
        stats = ExecStats()
        func_cycles: Dict[str, float] = {}
        func_calls: Dict[str, int] = {}
        edge_cycles: Dict[Tuple[str, str], float] = {}
        edge_calls: Dict[Tuple[str, str], int] = {}
        for index in range(self.count):
            payload = self.results[index]
            stats.cycles += payload["cycles"]
            stats.instructions += payload["instructions"]
            for key, n in payload["counts"].items():
                stats.counts[key] = stats.counts.get(key, 0) + n
            for live, field in (
                (func_cycles, "func_cycles"), (edge_cycles, "edge_cycles"),
            ):
                for key, v in payload[field].items():
                    live[key] = live.get(key, 0.0) + v
            for live, field in (
                (func_calls, "func_calls"), (edge_calls, "edge_calls"),
            ):
                for key, v in payload[field].items():
                    live[key] = live.get(key, 0) + v
        # The launch makes exactly one root call (each shard's was
        # decremented in its payload).
        func_calls[self.function_name] = (
            func_calls.get(self.function_name, 0) + 1
        )
        root = ("<root>", self.function_name)
        edge_calls[root] = edge_calls.get(root, 0) + 1
        # Drop zero-valued entries the decrement may have left for shards
        # that never charged the kernel (cannot happen today, but keep the
        # merged dicts shaped like the in-process ones).
        func_calls = {k: v for k, v in func_calls.items() if v}
        edge_calls = {k: v for k, v in edge_calls.items() if v}

        # Apply validated deltas to the pristine image in shard order —
        # the order the in-process engine wrote them.
        memory = self.memory
        memory.restore(self.initial)
        for index in range(self.count):
            payload = self.results[index]
            blob = payload["blob"]
            offset = 0
            for start, end in payload["ranges"]:
                n = end - start
                memory.write_array(start, np.frombuffer(
                    blob, dtype=np.uint8, count=n, offset=offset
                ))
                offset += n

        return ShardResult(
            stats, func_cycles, func_calls, edge_cycles, edge_calls,
            self.report("sharded"),
        )

    def report(self, mode: str, **extra) -> Dict[str, object]:
        rep: Dict[str, object] = {
            "mode": mode,
            "shards": self.count,
            "workers": self.workers,
            "retries": self.retries,
            "degraded": self.degraded,
        }
        if self.events:
            rep["events"] = list(self.events)
        rep.update(extra)
        return rep


# -- the public entry point ----------------------------------------------------


def _run_inprocess(module, function_name, args, machine, memory,
                   cost_model, predecode, report) -> ShardResult:
    interp = Interpreter(
        module,
        machine=machine,
        cost_model=cost_model,
        memory=memory,
        predecode=predecode,
    )
    interp.reset_stats()
    returned = interp.run(function_name, *args)
    return ShardResult(
        interp.stats,
        dict(interp.func_cycles), dict(interp.func_calls),
        dict(interp.edge_cycles), dict(interp.edge_calls),
        report,
        returned=returned, batch_replays=interp.batch_replays,
    )


def run_sharded(module: Module, function_name: str = "kernel", args=(), *,
                machine: Machine = AVX512, memory: Optional[Memory] = None,
                shards: Optional[int] = None, timeout: Optional[float] = None,
                workers: Optional[int] = None, predecode: bool = True,
                cost_model=None,
                label: Optional[str] = None,
                max_attempts: int = MAX_ATTEMPTS,
                recipe: Optional[Dict[str, object]] = None) -> ShardResult:
    """Execute one kernel launch sharded across worker processes.

    ``memory`` must already hold the launch's input arrays (the supervisor
    snapshots it as the initial image and leaves the merged final image in
    it).  Illegal launches run in-process with a ``rejected`` report;
    failures degrade per the module docstring; the result's ``report``
    dict feeds ``telemetry.record_vm_run(shard=...)``.
    """
    count = shards if shards is not None else shard_count()
    timeout = timeout if timeout is not None else shard_timeout()
    memory = memory if memory is not None else Memory()
    label = label or function_name

    reasons: List[str] = []
    if count < 2:
        reasons.append(f"shards={count} (sharding needs at least 2)")
    if not predecode:
        reasons.append("reference engine (predecode=False) is not sharded")
    non_worker = sorted(
        {s for s in faultinject.armed_sites() if s not in faultinject.WORKER_SITES}
    )
    if non_worker:
        reasons.append(f"non-worker fault sites armed: {non_worker}")
    plan = ShardPlan(module, function_name)
    if not reasons:
        reasons.extend(plan.rejection_reasons())
    if reasons:
        report = {
            "mode": "rejected",
            "shards": count,
            "reasons": reasons,
            "retries": 0,
            "degraded": 0,
        }
        return _run_inprocess(
            module, function_name, args, machine, memory,
            cost_model, predecode, report,
        )

    import multiprocessing as mp

    if workers is None:
        workers = max(2, min(count, (os.cpu_count() or 2), 8))
    sup = _Supervisor(
        module, function_name, args, machine, memory, count, timeout,
        workers, cost_model, label, max_attempts,
        recipe, plan,
    )
    try:
        sup.ctx = mp.get_context("fork")
    except ValueError:
        # No fork on this platform: degrade the whole launch in-process.
        sup.degraded = count
        report = sup.report("degraded", reason="fork start method unavailable")
        return _run_inprocess(
            module, function_name, args, machine, memory,
            cost_model, predecode, report,
        )

    try:
        sup.supervise()
    except _KernelFailed as failure:
        # A genuine kernel error inside a shard: one authoritative full
        # in-process rerun (it reproduces the error — with replay
        # semantics on batched modules — or the result).
        sup._shutdown()
        sup.degraded += 1
        memory.restore(sup.initial)
        report = sup.report(
            "degraded", reason="kernel error in shard",
            failed_shard=failure.shard_index,
        )
        try:
            return _run_inprocess(
                module, function_name, args, machine, memory,
                cost_model, predecode, report,
            )
        except ReproError as err:
            if isinstance(err.diagnostic.detail, dict):
                err.diagnostic.detail.setdefault(
                    "shard", failure.shard_index
                )
            raise
    return sup.merge()
