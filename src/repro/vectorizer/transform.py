"""The Parsimony IR-to-IR vectorization pass (§4.2).

Transforms an SPMD-annotated scalar function into a function that executes
all ``G`` gang lanes in SIMD fashion:

* **control flow** — forward branches are linearized: each scalar block
  gets an entry/active mask computed from its predecessors' masks and
  branch conditions; loops keep a real back edge driven by a *live* mask,
  with one accumulated mask per exit edge and per-value "trackers" that
  snapshot loop-carried values at the iteration each lane exits (§4.2.1).
* **uniform scalarization** — values the shape analysis proves indexed
  keep scalar bases; uniform joins use scalar selects driven by scalar
  path predicates, so uniform work never widens (§4.2.2).
* **instruction transformation** — varying arithmetic widens to vectors;
  memory ops pick scalar / packed / packed+shuffle (window ≤ 4× gang) /
  gather-scatter forms from their *address* shape; forward-join phis turn
  into masked selects; ``psim.*`` horizontal intrinsics lower to vector
  shuffles/reductions; non-inlined scalar calls and atomics serialize per
  active lane (§4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..ir import (
    I1,
    I64,
    Constant,
    Function,
    IRBuilder,
    Instruction,
    Module,
    UndefValue,
    Value,
)
from .. import faultinject
from ..diagnostics import CompileError, ReproError, attach_location
from ..ir.cfg import Loop
from ..ir.instructions import CAST_OPS, FLOAT_BINOPS, INT_BINOPS, UNARY_OPS
from ..ir.module import BasicBlock, ExternalFunction
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..runtime.mathlib import SLEEF, vector_math_external
from .shape import Shape
from .shapes import ShapeAnalysis

__all__ = ["VectorizeConfig", "Vectorizer", "VectorizeError"]


class VectorizeError(CompileError):
    """The function cannot be vectorized (unsupported construct)."""

    default_stage = "vectorizer"


@dataclass
class VectorizeConfig:
    """Tunables of the Parsimony pass; defaults mirror the paper's setup."""

    #: Which vector math library the pass targets (§6: SLEEF for Parsimony).
    math_flavour: str = SLEEF
    #: Bounded-stride window for packed+shuffle memory (×gang size, §4.2.3).
    max_stride_window: int = 4
    #: Ablation switch: disable shape analysis (everything becomes varying).
    enable_shape_analysis: bool = True
    #: Treat PsimC signed overflow as UB (enables sext shape propagation).
    assume_nsw: bool = True


@dataclass
class _LoopEmission:
    """Live codegen state for one masked loop being emitted."""

    loop: Loop
    divergent: bool
    header_block: BasicBlock  # in the output function
    live_phi: Instruction
    acc_vec: Dict[Tuple[BasicBlock, BasicBlock], Value] = field(default_factory=dict)
    acc_sc: Dict[Tuple[BasicBlock, BasicBlock], Value] = field(default_factory=dict)
    acc_vec_phi: Dict = field(default_factory=dict)
    acc_sc_phi: Dict = field(default_factory=dict)
    trackers: Dict[Value, Value] = field(default_factory=dict)
    tracker_phis: Dict[Value, Instruction] = field(default_factory=dict)


class Vectorizer:
    """Vectorizes one SPMD-annotated function into a new function."""

    def __init__(self, module: Module, sfunc: Function, analysis: ShapeAnalysis,
                 config: Optional[VectorizeConfig] = None):
        if sfunc.spmd is None:
            raise VectorizeError(f"@{sfunc.name} carries no SPMD annotation")
        if not sfunc.return_type.is_void:
            raise VectorizeError("SPMD region functions must return void")
        self.module = module
        self.sf = sfunc
        self.config = config or VectorizeConfig()
        self.gang = sfunc.spmd.gang_size
        self.shapes = analysis
        self.warnings: List[str] = []
        #: Memory-form selections ("load.packed", "store.scatter", ...) made
        #: while emitting this function, for telemetry (§4.2.2-4.2.3).
        self.memform_counts: Dict[str, int] = {}

        self.mask_type = VectorType(I1, self.gang)
        self.dt = analysis.dt
        self.rpo = self.dt.rpo
        self.loops = analysis.loops
        self._loop_of: Dict[BasicBlock, Optional[Loop]] = {}
        for block in self.rpo:
            innermost = None
            for loop in self.loops:
                if block in loop.blocks:
                    if innermost is None or len(loop.blocks) < len(innermost.blocks):
                        innermost = loop
            self._loop_of[block] = innermost

        # Output state.
        self.vf = Function(sfunc.name + ".simd", sfunc.ftype, [a.name for a in sfunc.args])
        self.b = IRBuilder(self.vf)
        self.vmap: Dict[Value, Value] = dict(zip(sfunc.args, self.vf.args))
        self.vecmap: Dict[Value, Value] = {}
        self.block_vec: Dict[BasicBlock, Optional[Value]] = {}
        self.block_sc: Dict[BasicBlock, Optional[Value]] = {}
        self.edge_vec: Dict[Tuple[BasicBlock, BasicBlock], Optional[Value]] = {}
        self.edge_sc: Dict[Tuple[BasicBlock, BasicBlock], Optional[Value]] = {}
        self._loop_stack: List[_LoopEmission] = []
        self._saw_ret = False
        # Redundant-load elimination for the linearized region: loads of the
        # same scalar address under a subsumed mask reuse the earlier vector
        # (linearized code re-loads per divergent path otherwise).  Any
        # store/atomic/call or loop boundary clears it.
        self._mem_cache: Dict[Value, Tuple[Optional[Value], Value]] = {}

    # ==================================================================== driver

    def run(self) -> Function:
        entry = self.b.new_block("entry")
        self.b.position_at_end(entry)
        items = self._region_items(None)
        # Top region: every lane of the gang starts active (the partial/tail
        # variant's thread guard is ordinary divergent control flow inside).
        first = items[0]
        if not isinstance(first, BasicBlock):
            raise VectorizeError("function entry inside a loop")
        self.block_vec[first] = None  # None = all-true
        self.block_sc[first] = Constant(I1, 1)
        self._emit_items(items)
        if not self._saw_ret:
            raise VectorizeError("no return reached in SPMD function")
        self.b.ret()
        return self.vf

    def _region_items(self, loop: Optional[Loop]) -> List:
        items: List = []
        seen_loops: Set[Loop] = set()
        blocks = loop.blocks if loop is not None else set(self.rpo)
        for block in self.rpo:
            if block not in blocks:
                continue
            inner = self._loop_of[block]
            if inner is loop:
                items.append(block)
            else:
                # find the child of `loop` containing this block
                walk = inner
                while walk is not None and walk.parent is not loop:
                    walk = walk.parent
                if walk is not None and walk not in seen_loops:
                    seen_loops.add(walk)
                    items.append(walk)
        return items

    def _emit_items(self, items: List) -> None:
        for item in items:
            if isinstance(item, BasicBlock):
                self._emit_block(item)
            else:
                self._emit_loop(item)

    # ==================================================================== masks

    def _mask_value(self, mask: Optional[Value]) -> Value:
        if mask is None:
            return Constant(self.mask_type, [1] * self.gang)
        return mask

    def _and_vec(self, a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        if a is None:
            return b
        if b is None:
            return a
        return self.b.and_(a, b, "mask")

    def _or_vec(self, a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        if a is None or b is None:
            return None
        return self.b.or_(a, b, "mask")

    def _not_vec(self, m: Optional[Value]) -> Value:
        if m is None:
            return Constant(self.mask_type, [0] * self.gang)
        return self.b.not_(m, "nmask")

    def _broadcast_bool(self, scalar: Value) -> Value:
        if isinstance(scalar, Constant):
            return Constant(self.mask_type, [scalar.value] * self.gang)
        return self.b.broadcast(scalar, self.gang, "bmask")

    def _and_sc(self, a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        if a is None or b is None:
            return None
        if isinstance(a, Constant) and a.value == 1:
            return b
        if isinstance(b, Constant) and b.value == 1:
            return a
        return self.b.and_(a, b, "sc")

    def _or_sc(self, a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        if a is None or b is None:
            return None
        if isinstance(a, Constant):
            return b if a.value == 0 else a
        if isinstance(b, Constant):
            return a if b.value == 0 else b
        return self.b.or_(a, b, "sc")

    # ==================================================================== blocks

    def _incoming_forward_edges(self, block: BasicBlock):
        """(pred, edge-key) pairs already emitted (forward edges only)."""
        edges = []
        for pred in block.predecessors:
            key = (pred, block)
            if key in self.edge_vec or key in self.edge_sc:
                edges.append((pred, key))
        return edges

    def _emit_block(self, block: BasicBlock) -> None:
        try:
            faultinject.maybe_fail(
                "vectorize_block", f"{self.sf.name}:{block.name}"
            )
            self._emit_block_body(block)
        except ReproError as exc:
            # Block provenance feeds the region-granular fallback planner
            # (repro.vectorizer.regions): it must know *which scalar block*
            # defeated the pass to outline the minimal region around it.
            attach_location(exc, function=self.sf.name, block=block.name)
            raise

    def _emit_block_body(self, block: BasicBlock) -> None:
        # Compute this block's active mask from already-emitted edges.
        if block not in self.block_vec:
            edges = self._incoming_forward_edges(block)
            if not edges:
                raise VectorizeError(f"block {block.name} has no emitted incoming edges")
            vec: Optional[Value] = None
            sc: Optional[Value] = None
            for i, (_pred, key) in enumerate(edges):
                evec = self.edge_vec.get(key, None)
                esc = self.edge_sc.get(key)
                if i == 0:
                    vec, sc = evec, esc
                else:
                    vec = None if (vec is None or evec is None) else self.b.or_(vec, evec, "mask")
                    sc = self._or_sc_join(sc, esc)
            self.block_vec[block] = vec
            self.block_sc[block] = sc

        mask = self.block_vec[block]
        self._emit_phis(block)
        for instr in block.non_phi_instructions():
            try:
                if instr.is_terminator:
                    self._emit_terminator(block, instr, mask)
                else:
                    self._emit_instruction(instr, mask)
            except ReproError as exc:
                attach_location(exc, instruction=instr.name or instr.opcode)
                raise

    def _or_sc_join(self, a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        if a is None or b is None:
            return None
        if isinstance(a, Constant) and a.value == 0:
            return b
        if isinstance(b, Constant) and b.value == 0:
            return a
        return self.b.or_(a, b, "sc")

    def _emit_phis(self, block: BasicBlock) -> None:
        phis = block.phis()
        if not phis:
            return
        edges = self._incoming_forward_edges(block)
        for phi in phis:
            if phi in self.vmap or phi in self.vecmap:
                continue  # loop-header phi, already built by _emit_loop
            incoming = {b: v for v, b in phi.phi_incoming()}
            shape = self.shapes.shape_of(phi)
            if shape.is_indexed:
                result = None
                for pred, key in edges:
                    value = self._base_of(incoming[pred])
                    if result is None:
                        result = value
                    else:
                        sc = self.edge_sc.get(key)
                        if sc is None:
                            raise VectorizeError(
                                f"uniform phi %{phi.name} under divergent control"
                            )
                        result = self.b.select(sc, value, result, phi.name)
                self.vmap[phi] = result
            else:
                result = None
                for pred, key in edges:
                    value = self._materialize(incoming[pred])
                    evec = self.edge_vec.get(key)
                    if result is None or evec is None:
                        result = value
                    else:
                        result = self.b.select(evec, value, result, phi.name)
                self.vecmap[phi] = result

    def _emit_terminator(self, block: BasicBlock, term: Instruction, mask) -> None:
        if term.opcode == "ret":
            self._saw_ret = True
            return
        if term.opcode == "br":
            target = term.operands[0]
            self._record_edge(block, target, mask, self.block_sc[block])
            return
        if term.opcode == "condbr":
            cond, then, els = term.operands
            cshape = self.shapes.shape_of(cond)
            sc = self.block_sc[block]
            if cshape.is_uniform:
                c = self._base_of(cond)
                cvec = self._broadcast_bool(c)
                notc = self.b.xor(c, Constant(I1, 1), "notc")
                self._record_edge(block, then, self._and_vec(mask, cvec), self._and_sc(sc, c))
                self._record_edge(
                    block, els, self._and_vec(mask, self._broadcast_bool(notc)),
                    self._and_sc(sc, notc),
                )
            else:
                # Scalar predicates track only the *uniform* component of
                # control: a varying branch leaves them unchanged, so that a
                # uniform-shaped phi nested under divergent control can still
                # resolve with scalar selects (its value is uniform among the
                # lanes that can observe it).
                cm = self._materialize(cond)
                self._record_edge(block, then, self._and_vec(mask, cm), sc)
                self._record_edge(block, els, self._and_vec(mask, self._not_vec(cm)), sc)
            return
        if term.opcode == "unreachable":
            return
        raise VectorizeError(f"unsupported terminator {term.opcode}")

    def _record_edge(self, pred: BasicBlock, succ: BasicBlock, vec, sc) -> None:
        key = (pred, succ)
        self.edge_vec[key] = vec
        self.edge_sc[key] = sc
        # Edge leaving a loop currently being emitted: accumulate its exit
        # mask and snapshot trackers for lanes leaving now.
        for emission in reversed(self._loop_stack):
            if pred in emission.loop.blocks and succ not in emission.loop.blocks:
                self._accumulate_exit(emission, key, vec, sc)
                break

    def _accumulate_exit(self, emission: _LoopEmission, key, vec, sc) -> None:
        emission.acc_vec[key] = self.b.or_(
            emission.acc_vec[key], self._mask_value(vec), "exitmask"
        )
        if not emission.divergent and key in emission.acc_sc and sc is not None:
            emission.acc_sc[key] = self._or_sc(emission.acc_sc[key], sc)
        # Trackers: lanes exiting here carry their current values out.
        pred = key[0]
        for value in emission.trackers:
            def_block = value.parent if isinstance(value, Instruction) else None
            if def_block is not None and not self.dt.dominates(def_block, pred):
                continue  # value not defined on this exit path
            current = self._materialize(value)
            emission.trackers[value] = self.b.select(
                self._mask_value(vec), current, emission.trackers[value], "track"
            )

    # ==================================================================== loops

    def _emit_loop(self, loop: Loop) -> None:
        try:
            self._emit_loop_body(loop)
        except ReproError as exc:
            # Loop-level failures (no preheader, unsupported exit structure)
            # anchor region fallback at the loop header.
            attach_location(
                exc, function=self.sf.name, block=loop.header.name
            )
            raise

    def _emit_loop_body(self, loop: Loop) -> None:
        divergent = loop in self.shapes.divergent_loops
        pre_block = self.b.block
        entry_vec = self.block_vec.get(loop.preheader)
        entry_sc = self.block_sc.get(loop.preheader)
        if loop.preheader is None:
            raise VectorizeError(f"loop {loop.header.name} lacks a preheader")

        header = self.b.new_block("vloop")
        self.b.br(header)
        self.b.position_at_end(header)

        live = self.b.phi(self.mask_type, "live")
        live.append_operand(self._mask_value(entry_vec))
        live.append_operand(pre_block)

        emission = _LoopEmission(loop, divergent, header, live)

        # Header phis become scalar or vector phis in the output loop.
        latch = loop.latches[0]
        header_phis = loop.header.phis()
        phi_map: List[Tuple[Instruction, Instruction, bool]] = []
        for phi in header_phis:
            init = phi.phi_value_for(loop.preheader)
            shape = self.shapes.shape_of(phi)
            if shape.is_indexed:
                new = self.b.phi(phi.type, phi.name)
                self._append_incoming(new, self._base_of_at(init, pre_block), pre_block)
                self.vmap[phi] = new
                phi_map.append((phi, new, False))
            else:
                new = self.b.phi(_vector_of(phi.type, self.gang), phi.name)
                self._append_incoming(new, self._materialize_at(init, pre_block), pre_block)
                self.vecmap[phi] = new
                phi_map.append((phi, new, True))

        # Exit-mask accumulators (one per exit edge).
        exit_edges = []
        for block in loop.ordered_blocks():
            for succ in block.successors:
                if succ not in loop.blocks:
                    exit_edges.append((block, succ))
        zeros = Constant(self.mask_type, [0] * self.gang)
        for key in exit_edges:
            acc = self.b.phi(self.mask_type, "exitacc")
            self._append_incoming(acc, zeros, pre_block)
            emission.acc_vec[key] = acc
            emission.acc_vec_phi[key] = acc
            if not divergent:
                sacc = self.b.phi(I1, "exitacc.sc")
                self._append_incoming(sacc, Constant(I1, 0), pre_block)
                emission.acc_sc[key] = sacc
                emission.acc_sc_phi[key] = sacc

        # Trackers for varying values escaping a divergent loop.
        if divergent:
            for value in self._escaping_values(loop):
                tr = self.b.phi(_vector_of(value.type, self.gang), value.name + ".tr")
                self._append_incoming(tr, UndefValue(tr.type), pre_block)
                emission.trackers[value] = tr
                emission.tracker_phis[value] = tr

        # The loop header's active mask is the live mask.
        self._clobber_memory()  # body loads must not reuse pre-loop values
        self.block_vec[loop.header] = live
        self.block_sc[loop.header] = Constant(I1, 1)
        self._loop_stack.append(emission)

        items = self._region_items(loop)
        if items[0] is not loop.header:
            items.remove(loop.header)
            items.insert(0, loop.header)
        self._emit_items(items)

        self._loop_stack.pop()
        end_block = self.b.block

        back_key = (latch, loop.header)
        live_next = self._mask_value(self.edge_vec.get(back_key))
        self._append_incoming(live, live_next, end_block)
        for phi, new, is_vector in phi_map:
            latch_value = phi.phi_value_for(latch)
            incoming = (
                self._materialize(latch_value) if is_vector else self._base_of(latch_value)
            )
            self._append_incoming(new, incoming, end_block)
        for key in exit_edges:
            self._append_incoming(emission.acc_vec_phi[key], emission.acc_vec[key], end_block)
            if key in emission.acc_sc_phi:
                self._append_incoming(emission.acc_sc_phi[key], emission.acc_sc[key], end_block)
        for value, phi in emission.tracker_phis.items():
            self._append_incoming(phi, emission.trackers[value], end_block)

        self._clobber_memory()  # post-loop loads must not reuse body values
        cont = self.b.mask_any(live_next, "continue")
        after = self.b.new_block("vloop.exit")
        self.b.condbr(cont, header, after)
        self.b.position_at_end(after)

        # Publish final exit masks as the loop's outgoing edges, and final
        # trackers as the escaping values' vector forms.
        for key in exit_edges:
            self.edge_vec[key] = emission.acc_vec[key]
            self.edge_sc[key] = emission.acc_sc.get(key)
        for value in emission.trackers:
            self.vecmap[value] = emission.trackers[value]
            self.vmap.pop(value, None)

    def _append_incoming(self, phi: Instruction, value: Value, block: BasicBlock) -> None:
        phi.append_operand(value)
        phi.append_operand(block)

    def _escaping_values(self, loop: Loop) -> List[Value]:
        result = []
        for block in loop.ordered_blocks():
            for instr in block.instructions:
                if instr.type.is_void:
                    continue
                if any(
                    isinstance(user, Instruction) and user.parent not in loop.blocks
                    for user in instr.users
                ):
                    result.append(instr)
        return result

    # ==================================================================== values

    def _base_of(self, value: Value) -> Value:
        if isinstance(value, Constant):
            return value
        if isinstance(value, UndefValue):
            return UndefValue(value.type)
        base = self.vmap.get(value)
        if base is None:
            raise VectorizeError(
                f"no scalar base for %{getattr(value, 'name', value)} "
                f"(shape {self.shapes.shape_of(value)})"
            )
        return base

    def _base_of_at(self, value: Value, block: BasicBlock) -> Value:
        return self._base_of(value)

    def _materialize(self, value: Value) -> Value:
        """Vector form of any value, inserting broadcasts at the def point."""
        cached = self.vecmap.get(value)
        if cached is not None:
            return cached
        shape = self.shapes.shape_of(value)
        if isinstance(value, Constant):
            if value.type.is_vector:
                return value
            payload = [value.value] * self.gang
            return Constant(_vector_of(value.type, self.gang), payload)
        if isinstance(value, UndefValue):
            return UndefValue(_vector_of(value.type, self.gang))
        if shape.is_varying:
            raise VectorizeError(
                f"varying value %{getattr(value, 'name', '?')} has no vector form yet"
            )
        base = self._base_of(value)
        vec = self._materialize_indexed(base, shape, value)
        self.vecmap[value] = vec
        return vec

    def _materialize_at(self, value: Value, block: BasicBlock) -> Value:
        return self._materialize(value)

    def _materialize_indexed(self, base: Value, shape: Shape, original: Value) -> Value:
        """Broadcast + offsets at the base's definition point."""
        saved_block, saved_idx = self.b.block, self.b._insert_index
        self._position_after(base)
        vec = self._emit_indexed_vector(base, shape, original.type)
        self.b.block, self.b._insert_index = saved_block, saved_idx
        return vec

    def _position_after(self, base: Value) -> None:
        if isinstance(base, Instruction) and base.parent is not None:
            block = base.parent
            idx = block.instructions.index(base) + 1
            while idx < len(block.instructions) and block.instructions[idx].opcode == "phi":
                idx += 1
            self.b.block = block
            self.b._insert_index = idx
        else:
            entry = self.vf.entry
            self.b.block = entry
            self.b._insert_index = entry.first_non_phi_index()

    def _emit_indexed_vector(self, base: Value, shape: Shape, type: Type) -> Value:
        gang = self.gang
        if isinstance(type, PointerType):
            addr = self.b.ptrtoint(base, I64, "addr")
            bvec = self.b.broadcast(addr, gang)
            if shape.is_uniform:
                vec = bvec
            else:
                offs = Constant(VectorType(I64, gang), [int(o) for o in shape.offsets])
                vec = self.b.add(bvec, offs, "addrs")
            return self.b.inttoptr(vec, VectorType(type, gang), "ptrs")
        if isinstance(base, Constant) and isinstance(type, IntType):
            # Constant base: the whole indexed vector is an immediate.
            mask = (1 << type.bits) - 1
            return Constant(
                VectorType(type, gang),
                [(int(base.value) + int(o)) & mask for o in shape.offsets],
            )
        bvec = self.b.broadcast(base, gang, "splat")
        if shape.is_uniform:
            return bvec
        if not isinstance(type, IntType):
            raise VectorizeError(f"indexed value of non-integer type {type}")
        offs = Constant(
            VectorType(type, gang), [int(o) & ((1 << type.bits) - 1) for o in shape.offsets]
        )
        return self.b.add(bvec, offs, "idxvec")

    # ==================================================================== instructions

    def _emit_instruction(self, instr: Instruction, mask: Optional[Value]) -> None:
        op = instr.opcode
        shape = self.shapes.shape_of(instr) if not instr.type.is_void else None

        if op == "alloca":
            # Privatization: one blocked copy of the allocation per lane.
            new = Instruction(
                "alloca",
                instr.type,
                [],
                self.vf.unique_name(instr.name),
                {"count": instr.attrs.get("count", 1) * self.gang},
            )
            self.b.insert(new)
            self.vmap[instr] = new
            return
        if op == "load":
            self._emit_load(instr, mask)
            return
        if op == "store":
            self._emit_store(instr, mask)
            return
        if op == "call":
            self._emit_call(instr, mask)
            return
        if op == "atomicrmw":
            self._emit_atomicrmw(instr, mask)
            return

        if shape is not None and shape.is_indexed:
            if op == "gep" and instr.operands[0] in self.shapes.soa_allocas:
                # SoA-swizzled private array (§4.2.3): lane-0 address of
                # element idx is base + idx*G*size, i.e. gep(base, idx*G).
                base = self._base_of(instr.operands[0])
                idx = self._base_of(instr.operands[1])
                scaled = self.b.mul(
                    idx, Constant(idx.type, self.gang), "soa.idx"
                )
                self.vmap[instr] = self.b.gep(base, scaled, instr.name)
                return
            # Scalar clone operating on bases (uniform scalarization).
            operands = [self._base_of(o) for o in instr.operands]
            new = Instruction(op, instr.type, operands, self.vf.unique_name(instr.name),
                              dict(instr.attrs))
            self.b.insert(new)
            self.vmap[instr] = new
            return

        # Varying: vector clone.
        if op in INT_BINOPS or op in FLOAT_BINOPS or op in UNARY_OPS or op in (
            "icmp", "fcmp", "select", "fma",
        ):
            operands = [self._materialize(o) for o in instr.operands]
            if op in ("sdiv", "udiv", "srem", "urem", "fdiv") and mask is not None:
                # Guard masked-off lanes against spurious division traps.
                one = Constant(operands[1].type, [1] * self.gang)
                operands[1] = self.b.select(mask, operands[1], one, "safediv")
            if op == "select" and not instr.operands[0].type.is_vector:
                # Scalar condition feeding a varying select: keep it vector.
                pass
            rtype = _vector_of(instr.type, self.gang)
            new = Instruction(op, rtype, operands, self.vf.unique_name(instr.name),
                              dict(instr.attrs))
            self.b.insert(new)
            self.vecmap[instr] = new
            return
        if op in CAST_OPS:
            operand = self._materialize(instr.operands[0])
            rtype = _vector_of(instr.type, self.gang)
            new = Instruction(op, rtype, [operand], self.vf.unique_name(instr.name))
            self.b.insert(new)
            self.vecmap[instr] = new
            return
        if op == "gep":
            # Varying address: compute the address vector in integer space.
            ptr, idx = instr.operands
            base = self._materialize(ptr)
            addr = self.b.ptrtoint(base, VectorType(I64, self.gang))
            idxv = self._materialize(idx)
            if idx.type != I64:
                ext = "sext"  # gep indices are signed
                idxv = self.b.cast(ext, idxv, VectorType(I64, self.gang))
            stride = instr.type.pointee.size_bytes()
            if ptr in self.shapes.soa_allocas:
                # SoA-swizzled private array: lanes are interleaved per
                # element, so consecutive elements of one lane sit
                # gang*size bytes apart (the indexed-gep path above makes
                # the same adjustment via idx*G).
                stride *= self.gang
            size = Constant(VectorType(I64, self.gang), [stride] * self.gang)
            addr = self.b.add(addr, self.b.mul(idxv, size), "addrs")
            self.vecmap[instr] = self.b.inttoptr(
                addr, VectorType(instr.type, self.gang), "ptrs"
            )
            return

        raise VectorizeError(f"cannot vectorize opcode {op}")

    # -------------------------------------------------------------- memory forms

    def _address_plan(self, addr: Value, elem: Type):
        """Classify an address operand (§4.2.3): returns one of
        ('uniform', base_ptr) | ('packed', first_ptr) |
        ('window', first_ptr, rel_elems, k_vectors) | ('gather', ptr_vector)."""
        shape = self.shapes.shape_of(addr)
        size = elem.size_bytes()
        gang = self.gang
        if shape.is_uniform:
            return ("uniform", self._base_of(addr))
        if shape.is_indexed:
            offsets = shape.offsets
            lo = int(offsets.min())
            rel = offsets - lo
            if np.array_equal(rel, np.arange(gang, dtype=np.int64) * size):
                return ("packed", self._ptr_add_bytes(self._base_of(addr), lo, elem))
            if not (rel % size).any():
                rel_elems = rel // size
                k = int(rel_elems.max()) // gang + 1
                if k <= self.config.max_stride_window:
                    first = self._ptr_add_bytes(self._base_of(addr), lo, elem)
                    return ("window", first, rel_elems, k)
            # fall through to gather on misaligned or wide-window offsets
        return ("gather", self._materialize(addr))

    def _ptr_add_bytes(self, ptr: Value, nbytes: int, elem: Type) -> Value:
        if nbytes == 0:
            return ptr
        size = elem.size_bytes()
        if nbytes % size == 0:
            return self.b.gep(ptr, Constant(I64, nbytes // size))
        raw = self.b.ptrtoint(ptr, I64)
        raw = self.b.add(raw, Constant(I64, nbytes))
        return self.b.inttoptr(raw, ptr.type)

    def _clobber_memory(self) -> None:
        self._mem_cache.clear()

    def _cached_load(self, addr: Value, mask: Optional[Value]) -> Optional[Value]:
        entry = self._mem_cache.get(addr)
        if entry is None:
            return None
        cached_mask, value = entry
        if self._mask_subsumes(cached_mask, mask):
            return value
        return None

    @staticmethod
    def _mask_subsumes(outer: Optional[Value], inner: Optional[Value], depth: int = 8) -> bool:
        """True if every lane active in ``inner`` is active in ``outer``
        (outer None = all lanes; inner derived from outer via and-chains)."""
        if outer is None or inner is outer:
            return True
        if depth > 0 and isinstance(inner, Instruction) and inner.opcode == "and":
            return any(
                Vectorizer._mask_subsumes(outer, op, depth - 1)
                for op in inner.operands
            )
        return False

    def _count_form(self, form: str) -> None:
        self.memform_counts[form] = self.memform_counts.get(form, 0) + 1

    def _emit_load(self, instr: Instruction, mask: Optional[Value]) -> None:
        addr = instr.operands[0]
        elem = instr.type
        plan = self._address_plan(addr, elem)
        kind = plan[0]
        self._count_form(f"load.{kind}")
        if kind == "uniform":
            cached = self._cached_load(addr, None)
            if cached is not None:
                self.vmap[instr] = cached
                return
            new = Instruction("load", elem, [plan[1]], self.vf.unique_name(instr.name))
            self.b.insert(new)
            self.vmap[instr] = new
            self._mem_cache[addr] = (None, new)
            return
        cached = self._cached_load(addr, mask)
        if cached is not None:
            self.vecmap[instr] = cached
            return
        m = self._mask_value(mask)
        if kind == "packed":
            value = self.b.vload(plan[1], self.gang, m, instr.name)
        elif kind == "window":
            _, first, rel_elems, k = plan
            value = self._emit_window_load(first, rel_elems, k, elem, m, instr.name)
        else:
            value = self.b.gather(plan[1], m, instr.name)
        self.vecmap[instr] = value
        self._mem_cache[addr] = (mask, value)

    def _emit_window_load(self, first: Value, rel_elems: np.ndarray, k: int,
                          elem: Type, mask: Value, name: str) -> Value:
        """Packed loads covering the window, combined with shuffles (§4.2.3:
        "a packed load/store plus shuffle operation(s)")."""
        gang = self.gang
        idx = Constant(VectorType(I64, gang), [int(e) for e in rel_elems])
        positions = set(int(e) for e in rel_elems)
        vectors = []
        for j in range(k):
            ptr_j = self.b.gep(first, Constant(I64, j * gang)) if j else first
            needed = Constant(
                self.mask_type,
                [1 if (j * gang + p) in positions else 0 for p in range(gang)],
            )
            vectors.append(self.b.vload(ptr_j, gang, needed, f"{name}.w{j}"))
        result = self.b.shuffle(vectors[0], idx, name)
        for j in range(1, k):
            pick = Constant(
                self.mask_type, [1 if e // gang == j else 0 for e in rel_elems]
            )
            result = self.b.select(pick, self.b.shuffle(vectors[j], idx), result, name)
        return result

    def _emit_store(self, instr: Instruction, mask: Optional[Value]) -> None:
        self._clobber_memory()
        value, addr = instr.operands
        elem = value.type
        plan = self._address_plan(addr, elem)
        kind = plan[0]
        vshape = self.shapes.shape_of(value)
        if kind == "uniform":
            self._count_form("store.uniform")
            self._emit_uniform_store(instr, plan[1], value, vshape, mask)
            return
        m = self._mask_value(mask)
        if kind == "packed":
            self._count_form("store.packed")
            self.b.vstore(self._materialize(value), plan[1], m)
            return
        if kind == "window":
            _, first, rel_elems, k = plan
            if len(set(rel_elems.tolist())) == len(rel_elems):
                self._count_form("store.window")
                self._emit_window_store(first, rel_elems, k, value, m)
                return
            plan = ("gather", self._materialize(addr))  # colliding lanes: scatter
        self._count_form("store.scatter")
        self.b.scatter(self._materialize(value), plan[1], m)

    def _emit_window_store(self, first: Value, rel_elems: np.ndarray, k: int,
                           value: Value, mask: Value) -> None:
        gang = self.gang
        src = self._materialize(value)
        for j in range(k):
            inv = [0] * gang
            valid = [0] * gang
            for lane, e in enumerate(rel_elems):
                e = int(e)
                if j * gang <= e < (j + 1) * gang:
                    inv[e - j * gang] = lane
                    valid[e - j * gang] = 1
            if not any(valid):
                continue
            invc = Constant(VectorType(I64, gang), inv)
            wvals = self.b.shuffle(src, invc)
            wmask = self.b.and_(
                self.b.shuffle(mask, invc), Constant(self.mask_type, valid)
            )
            ptr_j = self.b.gep(first, Constant(I64, j * gang)) if j else first
            self.b.vstore(wvals, ptr_j, wmask)

    def _emit_uniform_store(self, instr: Instruction, base_ptr: Value, value: Value,
                            vshape: Shape, mask: Optional[Value]) -> None:
        # §4.2.3: stores to a uniform address are racy unless one lane is
        # active; warn and let one active lane perform the store.
        if not vshape.is_uniform:
            self.warnings.append(
                f"@{self.sf.name}: store of a varying value to a uniform address "
                "is racy; one active lane will win"
            )
            lanes = Constant(VectorType(I64, self.gang), list(range(self.gang)))
            if mask is None:
                pick = Constant(I64, self.gang - 1)
            else:
                capped = self.b.select(
                    mask, lanes, Constant(VectorType(I64, self.gang), [0] * self.gang)
                )
                pick = self.b.reduce("reduce_max_u", capped, "lastlane")
            scalar = self.b.extractelement(self._materialize(value), pick, "winner")
        else:
            scalar = self._base_of(value)
        if mask is None:
            self.b.store(scalar, base_ptr)
        else:
            any_active = self.b.mask_any(mask, "anylane")
            self._emit_guarded(any_active, lambda: self.b.store(scalar, base_ptr))

    def _emit_guarded(self, cond: Value, emit) -> None:
        then = self.b.new_block("guard.then")
        cont = self.b.new_block("guard.cont")
        self.b.condbr(cond, then, cont)
        self.b.position_at_end(then)
        emit()
        self.b.br(cont)
        self.b.position_at_end(cont)

    # -------------------------------------------------------------- calls

    def _emit_call(self, instr: Instruction, mask: Optional[Value]) -> None:
        callee = instr.operands[0]
        args = instr.operands[1:]
        if isinstance(callee, ExternalFunction):
            name = callee.name
            if name.startswith("psim."):
                self._emit_psim_intrinsic(instr, name, args, mask)
                return
            if name.startswith("ml."):
                self._emit_math_call(instr, callee, args, mask)
                return
            raise VectorizeError(f"call to unknown external @{name} in SPMD region")
        # Non-inlined scalar function: serialize one call per active lane.
        self._serialize_call(instr, callee, args, mask)

    def _emit_math_call(self, instr, callee, args, mask) -> None:
        if self.shapes.shape_of(instr).is_uniform:
            new = Instruction(
                "call", instr.type, [callee] + [self._base_of(a) for a in args],
                self.vf.unique_name(instr.name),
            )
            self.b.insert(new)
            self.vmap[instr] = new
            return
        fn_name = callee.name.split(".")[1]
        ext = vector_math_external(
            self.module, fn_name, instr.type, self.gang, self.config.math_flavour
        )
        vargs = [self._materialize(a) for a in args]
        self.vecmap[instr] = self.b.call(ext, vargs, instr.name)

    def _emit_psim_intrinsic(self, instr, name, args, mask) -> None:
        gang = self.gang
        if name == "psim.lane_num":
            self.vmap[instr] = Constant(I64, 0)  # indexed: base 0, offsets 0..G-1
            return
        if name == "psim.gang_sync":
            return  # lockstep SIMD execution subsumes the barrier
        if name.startswith("psim.shuffle."):
            src = self._materialize(args[0])
            idx = self._materialize(args[1])
            # Real permute instructions take narrow lane indices (vpermb's
            # byte controls); keep the index vector at i16 so legalization
            # does not drag 64-bit index chunks around.
            if idx.type.elem.bits > 16:
                narrow_t = VectorType(IntType(16), self.gang)
                if isinstance(idx, Constant):
                    idx = Constant(narrow_t, [v & 0xFFFF for v in idx.value])
                else:
                    idx = self.b.trunc(idx, narrow_t)
            self.vecmap[instr] = self.b.shuffle(src, idx, instr.name)
            return
        if name.startswith("psim.broadcast."):
            src = self._materialize(args[0])
            if self.shapes.shape_of(args[1]).is_uniform:
                lane = self._base_of(args[1])
                new = self.b.extractelement(src, lane, instr.name)
                self.vmap[instr] = new
            else:
                self.vecmap[instr] = self.b.shuffle(src, self._materialize(args[1]), instr.name)
            return
        if name.startswith("psim.reduce_"):
            self._emit_reduction(instr, name, args, mask)
            return
        if name in ("psim.any", "psim.all"):
            v = self._materialize(args[0])
            if name == "psim.any":
                masked = v if mask is None else self.b.and_(v, mask)
                self.vmap[instr] = self.b.mask_any(masked, instr.name)
            else:
                masked = v if mask is None else self.b.or_(v, self._not_vec(mask))
                self.vmap[instr] = self.b.mask_all(masked, instr.name)
            return
        if name == "psim.sad":
            a = self._materialize(args[0])
            bb = self._materialize(args[1])
            if mask is not None:
                bb = self.b.select(mask, bb, a)  # inactive lanes contribute 0
            sadv = self.b.sad(a, bb)
            self.vmap[instr] = self.b.reduce("reduce_add", sadv, instr.name)
            return
        raise VectorizeError(f"unhandled psim intrinsic {name}")

    def _emit_reduction(self, instr, name, args, mask) -> None:
        kind = name.split(".")[1]  # reduce_add | reduce_min[.s/.u] | ...
        parts = kind.split("_")
        op = parts[1]
        signed = name.split(".")[2] == "s" if name.count(".") == 3 else instr.type.is_float
        v = self._materialize(args[0])
        if mask is not None:
            neutral = _reduction_neutral(op, instr.type, signed, self.gang)
            v = self.b.select(mask, v, neutral)
        if op == "add":
            self.vmap[instr] = self.b.reduce("reduce_add", v, instr.name)
        elif instr.type.is_float:
            red = "reduce_min_u" if op == "min" else "reduce_max_u"
            self.vmap[instr] = self.b.reduce(red, v, instr.name)
        else:
            red = f"reduce_{op}_{'s' if signed else 'u'}"
            self.vmap[instr] = self.b.reduce(red, v, instr.name)

    def _serialize_call(self, instr, callee, args, mask) -> None:
        self._clobber_memory()
        result = self._serialize_lanes(
            mask,
            lambda lane: self._scalar_call_for_lane(instr, callee, args, lane),
            None if instr.type.is_void else instr.type,
            instr.name,
        )
        if result is not None:
            self.vecmap[instr] = result

    def _scalar_call_for_lane(self, instr, callee, args, lane: int) -> Optional[Value]:
        lowered = []
        for arg in args:
            if self.shapes.shape_of(arg).is_uniform:
                lowered.append(self._base_of(arg))
            else:
                vec = self._materialize(arg)
                lowered.append(self.b.extractelement(vec, Constant(I64, lane)))
        call = Instruction(
            "call", instr.type, [callee] + lowered, self.vf.unique_name(instr.name)
        )
        self.b.insert(call)
        return None if instr.type.is_void else call

    def _emit_atomicrmw(self, instr, mask) -> None:
        self._clobber_memory()
        # Fast path: uniform address and value, result unused — a single
        # scalar atomic replaces the per-lane serialization.  add/sub scale
        # by the active-lane count; the bitwise and min/max forms (signed
        # included) are idempotent, so one application stands in for all
        # active lanes unscaled.
        ashape = self.shapes.shape_of(instr.operands[0])
        vshape = self.shapes.shape_of(instr.operands[1])
        rmw_op = instr.attrs.get("op")
        if (
            ashape.is_uniform
            and vshape.is_uniform
            and not instr.uses
            and rmw_op in ("add", "sub", "and", "or",
                           "umin", "umax", "smin", "smax")
        ):
            self._count_form(f"atomic.fastpath.{rmw_op}")
            ptr = self._base_of(instr.operands[0])
            val = self._base_of(instr.operands[1])
            if rmw_op in ("add", "sub"):
                if mask is None:
                    count = Constant(I64, self.gang)
                else:
                    count = self.b.mask_popcnt(mask, "nactive")
                scale = self.b.cast("trunc", count, val.type) if val.type != I64 else count
                val = self.b.mul(val, scale, "scaled")

            def emit_one():
                new = Instruction(
                    "atomicrmw", instr.type, [ptr, val],
                    self.vf.unique_name(instr.name), dict(instr.attrs),
                )
                self.b.insert(new)

            if mask is None:
                emit_one()
            else:
                self._emit_guarded(self.b.mask_any(mask, "anylane"), emit_one)
            return

        self._count_form(f"atomic.serialized.{rmw_op}")
        addrs = self._materialize(instr.operands[0])
        values = self._materialize(instr.operands[1])

        def per_lane(lane: int) -> Value:
            addr = self.b.extractelement(addrs, Constant(I64, lane))
            val = self.b.extractelement(values, Constant(I64, lane))
            new = Instruction(
                "atomicrmw", instr.type, [addr, val],
                self.vf.unique_name(instr.name), dict(instr.attrs),
            )
            self.b.insert(new)
            return new

        result = self._serialize_lanes(mask, per_lane, instr.type, instr.name)
        if result is not None:
            self.vecmap[instr] = result

    def _serialize_lanes(self, mask, per_lane, result_type: Optional[Type], name: str):
        """Per-active-lane serialization (§4.2.3): guarded scalar execution
        for each lane, accumulating per-lane results into a vector."""
        gang = self.gang
        acc = UndefValue(_vector_of(result_type, gang)) if result_type else None
        for lane in range(gang):
            if mask is None:
                value = per_lane(lane)
                if acc is not None:
                    acc = self.b.insertelement(acc, Constant(I64, lane), value)
                continue
            active = self.b.extractelement(mask, Constant(I64, lane), f"{name}.l{lane}")
            then = self.b.new_block("lane.then")
            cont = self.b.new_block("lane.cont")
            before = self.b.block
            self.b.condbr(active, then, cont)
            self.b.position_at_end(then)
            value = per_lane(lane)
            updated = None
            if acc is not None:
                updated = self.b.insertelement(acc, Constant(I64, lane), value)
            then_end = self.b.block
            self.b.br(cont)
            self.b.position_at_end(cont)
            if acc is not None:
                phi = self.b.phi(updated.type, f"{name}.acc")
                self._append_incoming(phi, updated, then_end)
                self._append_incoming(phi, acc, before)
                acc = phi
        return acc


def _vector_of(type: Type, gang: int) -> VectorType:
    if isinstance(type, VectorType):
        return type
    return VectorType(type, gang)


def _reduction_neutral(op: str, type: Type, signed: bool, gang: int) -> Constant:
    if op == "add":
        payload = 0.0 if type.is_float else 0
    elif type.is_float:
        payload = float("inf") if op == "min" else float("-inf")
    elif signed:
        half = 1 << (type.bits - 1)
        payload = half - 1 if op == "min" else half  # INT_MAX / INT_MIN
    else:
        payload = (1 << type.bits) - 1 if op == "min" else 0
    return Constant(VectorType(type, gang), [payload] * gang)
