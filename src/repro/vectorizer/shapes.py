"""Shape (divergence) analysis for SPMD functions (§4.2.2).

Classifies every SSA value in an SPMD-annotated function as *indexed*
(scalar base + compile-time per-lane offsets; uniform and strided are
special cases) or *varying*, tracking alignment/range facts about bases so
that conditional rules (verified offline in ``repro.vectorizer.rules``)
can be applied soundly.

The analysis is the paper's optimistic iterative scheme: values start
unknown, instruction transfer functions are applied in reverse postorder,
speculated shapes are recomputed until a fixpoint.  Control-flow
divergence is folded in: phis at joins of divergent branches, header phis
of loops with divergent exits, and values escaping divergent loops are
all forced varying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..ir.cfg import DominatorTree, Loop, find_loops
from ..ir.instructions import FLOAT_BINOPS, INT_BINOPS, Instruction
from ..ir.module import BasicBlock, ExternalFunction, Function
from ..ir.types import VectorType
from ..ir.values import Argument, Constant, UndefValue, Value
from . import facts as F
from .facts import Facts, TOP
from .shape import Shape, lane_shape

__all__ = ["ShapeAnalysis", "ABI_MAX_THREADS_LOG2", "widen_indexed_shape"]


def widen_indexed_shape(shape: Shape, batch: int, gang_delta: int) -> Shape:
    """Batch-widening metadata for an indexed shape (gang-batching layer).

    A G-lane indexed value ``base + offsets[lane]`` executed for ``batch``
    consecutive gangs becomes a G×B-lane indexed value whose per-gang
    blocks are shifted copies of the original offsets: gang ``k`` sees
    ``base + offsets[lane] + k * gang_delta``, where ``gang_delta`` is the
    value's per-gang stride (its ``__gang_base`` coefficient times the
    gang size, in the value's own units).  Varying shapes have no offset
    table to widen and are returned unchanged.
    """
    if shape.is_varying:
        return shape
    blocks = [shape.offsets + np.int64(k) * np.int64(gang_delta) for k in range(batch)]
    return Shape.indexed(np.concatenate(blocks))

#: ABI guarantee used to seed range facts: num_spmd_threads < 2**48.
ABI_MAX_THREADS_LOG2 = 48

_MAX_ITERATIONS = 50


class ShapeAnalysis:
    """Runs the analysis over one SPMD function; results in ``shapes``."""

    def __init__(self, function: Function, gang_size: int, assume_nsw: bool = True,
                 enabled: bool = True):
        self.function = function
        self.gang = gang_size
        self.assume_nsw = assume_nsw
        self.enabled = enabled
        self.shapes: Dict[Value, Shape] = {}
        self.facts: Dict[Value, Facts] = {}
        self.divergent_branches: Set[Instruction] = set()
        self.divergent_loops: List[Loop] = []
        self._range_widenings: Dict[Value, int] = {}
        self.soa_allocas: Set[Instruction] = self._find_soa_allocas(function)
        #: CFG analyses of ``function``, built once here and read by the
        #: :class:`~repro.vectorizer.transform.Vectorizer` that consumes
        #: this analysis (nothing rewrites ``function`` in between).
        self.dt = DominatorTree(function)
        self.loops: List[Loop] = find_loops(function, self.dt)
        self.run()

    @staticmethod
    def _rule_ok(name: str) -> bool:
        """Conditional rules apply only while their offline verification is
        usable; an SMT timeout/absence degrades the value to varying
        instead of failing the compile (the guard caches per process)."""
        from .smt import rule_usable

        return rule_usable(name)

    @staticmethod
    def _find_soa_allocas(function: Function) -> Set[Instruction]:
        """Private allocas safe for the SoA layout swizzle (§4.2.3): every
        use is a direct gep whose result feeds only loads/stores."""
        result: Set[Instruction] = set()
        for instr in function.instructions():
            if instr.opcode != "alloca":
                continue
            ok = True
            for user, idx in instr.uses:
                if not (user.opcode == "gep" and idx == 0):
                    ok = False
                    break
                for guser, gidx in user.uses:
                    if guser.opcode == "load":
                        continue
                    if guser.opcode == "store" and gidx == 1:
                        continue
                    ok = False
                    break
                if not ok:
                    break
            if ok and instr.uses:
                result.add(instr)
        return result

    # -- public helpers ---------------------------------------------------------------

    def shape_of(self, value: Value) -> Shape:
        if isinstance(value, Constant):
            return Shape.uniform(self.gang)
        if isinstance(value, UndefValue):
            return Shape.uniform(self.gang)
        if isinstance(value, Argument):
            return Shape.uniform(self.gang)
        return self.shapes.get(value, Shape.varying())

    def facts_of(self, value: Value) -> Facts:
        if isinstance(value, Constant) and value.type.is_int:
            return F.from_constant(value.value)
        return self.facts.get(value, TOP)

    def is_uniform(self, value: Value) -> bool:
        return self.shape_of(value).is_uniform

    # -- driver -------------------------------------------------------------------------

    def run(self) -> None:
        function = self.function
        spmd = function.spmd
        # Seed argument shapes/facts: all arguments are scalars shared by the
        # gang (uniform).  The gang-base argument is a multiple of the gang
        # size and bounded by the ABI thread-count guarantee.
        for i, arg in enumerate(function.args):
            self.shapes[arg] = Shape.uniform(self.gang)
            if spmd is not None and i == spmd.base_arg_index:
                self.facts[arg] = Facts(
                    align=self.gang, range=(0, 1 << ABI_MAX_THREADS_LOG2)
                )
            else:
                self.facts[arg] = TOP

        rpo_blocks = self.dt.rpo
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for block in rpo_blocks:
                for instr in block.instructions:
                    new_shape, new_facts = self._transfer(instr)
                    changed |= self._update(instr, new_shape, new_facts)
            if not changed:
                break

        self._apply_control_divergence(rpo_blocks)

    def _update(self, value: Value, shape: Optional[Shape], facts: Facts) -> bool:
        if shape is None:
            return False
        old = self.shapes.get(value)
        if old is not None:
            if not old.same_as(shape):
                # Monotone meet: disagreement between iterations -> varying.
                shape = Shape.varying()
        old_facts = self.facts.get(value)
        if old_facts is not None and old_facts != facts:
            merged = F.meet(old_facts, facts)
            count = self._range_widenings.get(value, 0) + 1
            self._range_widenings[value] = count
            if count > 3:
                merged = Facts(align=merged.align, range=None)  # widen
            facts = merged
        changed = (
            old is None
            or not old.same_as(shape)
            or old_facts is None
            or old_facts != facts
        )
        self.shapes[value] = shape
        self.facts[value] = facts
        return changed

    # -- transfer functions ---------------------------------------------------------------

    def _transfer(self, instr: Instruction):
        """Returns (shape, facts-of-base) for one instruction, or (None, _)
        if the instruction produces no value."""
        if instr.type.is_void:
            return None, TOP

        op = instr.opcode
        ops = instr.operands

        if not self.enabled:
            # Even with shape analysis ablated, lane_num's shape is part of
            # its semantics (the transformer lowers it via its shape).
            if op == "call":
                callee = ops[0]
                if isinstance(callee, ExternalFunction) and callee.name == "psim.lane_num":
                    return lane_shape(self.gang), TOP
            return Shape.varying(), TOP

        if op == "phi":
            return self._transfer_phi(instr)
        if op == "call":
            return self._transfer_call(instr)
        if op == "alloca":
            # Privatization (§4.2.3).  When every access is a direct
            # gep+load/store, the layout is swizzled to struct-of-arrays
            # ("a more optimized implementation could also swizzle the data
            # layout from AoS into SoA to avoid unnecessary gather/scatter
            # operations on stack-allocated values"): lanes sit at stride
            # elem_size, so a uniform index yields a packed access.  Escaping
            # allocas fall back to the blocked per-lane layout.
            size = instr.type.pointee.size_bytes()
            if instr in self.soa_allocas:
                offsets = np.arange(self.gang, dtype=np.int64) * size
            else:
                per_thread = size * instr.attrs.get("count", 1)
                offsets = np.arange(self.gang, dtype=np.int64) * per_thread
            return Shape.indexed(offsets), Facts(align=64)
        if op == "load":
            addr = self.shape_of(ops[0])
            return (Shape.uniform(self.gang) if addr.is_uniform else Shape.varying()), TOP
        if op == "gep":
            return self._transfer_gep(instr)
        if op in INT_BINOPS:
            return self._transfer_int_binop(instr)
        if op in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
            return self._transfer_cast(instr)
        if op == "select":
            cond = self.shape_of(ops[0])
            a, b = self.shape_of(ops[1]), self.shape_of(ops[2])
            if cond.is_uniform and a.is_indexed and a.same_as(b):
                return Shape(a.offsets), F.meet(self.facts_of(ops[1]), self.facts_of(ops[2]))
            return Shape.varying(), TOP
        if op == "atomicrmw":
            return Shape.varying(), TOP

        # Default: uniform in, uniform out (deterministic scalar ops);
        # anything else is varying.  Covers float binops, compares, unary
        # ops, float casts, and the remaining misc instructions.
        if all(self.shape_of(o).is_uniform for o in ops if not isinstance(o, BasicBlock)):
            return Shape.uniform(self.gang), TOP
        return Shape.varying(), TOP

    def _transfer_phi(self, instr: Instruction):
        shape: Optional[Shape] = None
        fact: Optional[Facts] = None
        for value, _block in instr.phi_incoming():
            if isinstance(value, UndefValue):
                continue
            incoming = self.shapes.get(value) if isinstance(value, Instruction) else self.shape_of(value)
            if incoming is None:
                continue  # optimistic: speculate on not-yet-computed inputs
            in_fact = self.facts_of(value)
            if shape is None:
                shape, fact = incoming, in_fact
            else:
                fact = F.meet(fact, in_fact)
                if not shape.same_as(incoming):
                    shape = Shape.varying()
        if shape is None:
            return None, TOP  # all inputs unknown; retry next iteration
        return shape, fact or TOP

    def _transfer_call(self, instr: Instruction):
        callee = instr.operands[0]
        args = instr.operands[1:]
        if isinstance(callee, ExternalFunction):
            name = callee.name
            if name == "psim.lane_num":
                return lane_shape(self.gang), Facts(align=1 << 62, range=(0, 0))
            if name.startswith("psim.reduce_") or name in ("psim.any", "psim.all", "psim.sad"):
                return Shape.uniform(self.gang), TOP
            if name.startswith("psim.broadcast."):
                if self.shape_of(args[1]).is_uniform:
                    return Shape.uniform(self.gang), TOP
                return Shape.varying(), TOP
            if name.startswith("psim.shuffle."):
                if all(self.shape_of(a).is_uniform for a in args):
                    return Shape.uniform(self.gang), TOP
                return Shape.varying(), TOP
            if name.startswith("ml."):
                if all(self.shape_of(a).is_uniform for a in args):
                    return Shape.uniform(self.gang), TOP
                return Shape.varying(), TOP
            return Shape.varying(), TOP
        return Shape.varying(), TOP  # serialized scalar call: per-lane results

    def _transfer_gep(self, instr: Instruction):
        ptr, idx = instr.operands
        ptr_s, idx_s = self.shape_of(ptr), self.shape_of(idx)
        if ptr_s.is_varying or idx_s.is_varying:
            return Shape.varying(), TOP
        size = instr.type.pointee.size_bytes()
        if isinstance(ptr, Instruction) and ptr in self.soa_allocas:
            # SoA private array: element idx of lane l lives at
            # base + (idx*G + l)*size; the scalar base clone scales idx by G.
            size = size * self.gang
            offsets = ptr_s.offsets + idx_s.offsets * size
        else:
            offsets = ptr_s.offsets + idx_s.offsets * size
        fact = F.add(self.facts_of(ptr), F.mul(self.facts_of(idx), F.from_constant(size)))
        return Shape.indexed(offsets), fact

    def _transfer_int_binop(self, instr: Instruction):
        op = instr.opcode
        a, b = instr.operands
        sa, sb = self.shape_of(a), self.shape_of(b)
        fa, fb = self.facts_of(a), self.facts_of(b)
        if sa.is_varying or sb.is_varying:
            return Shape.varying(), TOP
        if sa.is_uniform and sb.is_uniform:
            return Shape.uniform(self.gang), self._uniform_binop_facts(op, fa, fb, a, b)

        # At least one side is non-trivially indexed.
        if op == "add":  # rule: add_indexed
            return Shape.indexed(sa.offsets + sb.offsets), F.add(fa, fb)
        if op == "sub":  # rule: sub_indexed
            return Shape.indexed(sa.offsets - sb.offsets), Facts()
        if op == "mul":  # rule: mul_const_offset_scale (needs a constant side)
            for x, sx, other, s_other in ((a, sa, b, sb), (b, sb, a, sa)):
                if isinstance(x, Constant) and sx.is_uniform:
                    c = x.as_signed()
                    return Shape.indexed(s_other.offsets * c), F.mul(
                        self.facts_of(other), F.from_constant(abs(int(c)))
                    )
            return Shape.varying(), TOP
        if op == "shl":  # rule: shl_const
            if isinstance(b, Constant) and sb.is_uniform:
                k = int(b.value)
                return Shape.indexed(sa.offsets << k), F.shl(fa, k)
            return Shape.varying(), TOP
        if op == "xor":  # rule: xor_low_mask
            if not self._rule_ok("xor_low_mask"):
                return Shape.varying(), TOP
            for x, sx, s_other, f_other in ((b, sb, sa, fa), (a, sa, sb, fb)):
                if isinstance(x, Constant) and sx.is_uniform:
                    m = int(x.value)
                    if m <= 0:
                        continue
                    k = m.bit_length()
                    offs = s_other.offsets
                    if f_other.aligned_to(1 << k) and offs.min() >= 0:
                        # The emitted scalar base is `b ^ m` == `b + m` (b is
                        # aligned past m), so offsets are (o ^ m) - m.
                        return Shape.indexed((offs ^ m) - m), Facts(align=1)
            return Shape.varying(), TOP
        if op == "and":  # rule: and_low_mask
            if not self._rule_ok("and_low_mask"):
                return Shape.varying(), TOP
            for x, sx, other, s_other, f_other in (
                (b, sb, a, sa, fa), (a, sa, b, sb, fb)
            ):
                if isinstance(x, Constant) and sx.is_uniform:
                    m = int(x.value)
                    if m > 0 and (m & (m + 1)) == 0:  # low-bit mask 2^k - 1
                        k = m.bit_length()
                        offs = s_other.offsets
                        if f_other.aligned_to(1 << k) and offs.min() >= 0 and offs.max() < (1 << k):
                            return Shape.indexed(offs), F.and_mask(f_other, m)
            return Shape.varying(), TOP
        if op == "lshr":
            if isinstance(b, Constant) and sb.is_uniform:
                k = int(b.value)
                offs = sa.offsets
                no_wrap = fa.range is not None and fa.range[1] + int(offs.max()) < (1 << 64)
                if fa.aligned_to(1 << k) and no_wrap:
                    if offs.min() >= 0 and offs.max() < (1 << k) \
                            and self._rule_ok("lshr_const_absorb"):
                        return Shape.uniform(self.gang), Facts()
                    if not (offs % (1 << k)).any() \
                            and self._rule_ok("lshr_const_aligned"):
                        return Shape.indexed(offs >> k), Facts()
            return Shape.varying(), TOP
        if op == "udiv":  # rule: udiv_const_aligned
            if isinstance(b, Constant) and sb.is_uniform:
                d = int(b.value)
                offs = sa.offsets
                no_wrap = fa.range is not None and fa.range[1] + int(offs.max()) < (1 << 64)
                if d > 0 and fa.align % d == 0 and offs.min() >= 0 and no_wrap \
                        and self._rule_ok("udiv_const_aligned"):
                    return Shape.indexed(offs // d), Facts()
            return Shape.varying(), TOP
        return Shape.varying(), TOP

    def _uniform_binop_facts(self, op: str, fa: Facts, fb: Facts, a: Value, b: Value) -> Facts:
        if op == "add":
            return F.add(fa, fb)
        if op == "mul":
            return F.mul(fa, fb)
        if op == "shl" and isinstance(b, Constant):
            return F.shl(fa, int(b.value))
        if op == "and" and isinstance(b, Constant):
            m = int(b.value)
            if m > 0 and (m & (m + 1)) == 0:
                return F.and_mask(fa, m)
        return TOP

    def _transfer_cast(self, instr: Instruction):
        op = instr.opcode
        src = instr.operands[0]
        s, f = self.shape_of(src), self.facts_of(src)
        if s.is_varying:
            return Shape.varying(), TOP
        if s.is_uniform:
            return Shape.uniform(self.gang), f
        if op in ("bitcast", "ptrtoint", "inttoptr"):
            return Shape(s.offsets), f
        if op == "trunc":  # rule: trunc (unconditional, modular)
            return Shape(s.offsets), Facts()
        if op == "zext":  # rule: zext_no_wrap
            bits = src.type.bits
            offs = s.offsets
            if (
                f.range is not None
                and offs.min() >= 0
                and f.range[1] + int(offs.max()) < (1 << bits)
                and self._rule_ok("zext_no_wrap")
            ):
                return Shape(offs), f
            return Shape.varying(), TOP
        if op == "sext":  # rule: sext_no_signed_wrap (or C's signed-overflow UB)
            bits = src.type.bits
            offs = s.offsets
            if self.assume_nsw:
                return Shape(offs), f
            if (
                f.range is not None
                and f.range[1] + int(offs.max()) < (1 << (bits - 1))
                and f.range[0] + int(offs.min()) >= 0
                and self._rule_ok("sext_no_signed_wrap")
            ):
                return Shape(offs), f
            return Shape.varying(), TOP
        return Shape.varying(), TOP

    # -- control-flow divergence --------------------------------------------------------

    def _apply_control_divergence(self, rpo_blocks: List[BasicBlock]) -> None:
        """Taint phis joined under divergent branches and values escaping
        divergent loops, iterating until stable (taints can cascade)."""
        loops = self.loops
        block_set = set(rpo_blocks)

        for _ in range(_MAX_ITERATIONS):
            changed = False

            self.divergent_branches = {
                block.terminator
                for block in rpo_blocks
                if block.terminator is not None
                and block.terminator.opcode == "condbr"
                and not self.shape_of(block.terminator.operands[0]).is_uniform
            }

            # Phis at joins influenced by a divergent branch become varying.
            influenced = self._influenced_join_blocks(rpo_blocks)
            for block in influenced:
                for phi in block.phis():
                    if not self.shape_of(phi).is_varying:
                        self.shapes[phi] = Shape.varying()
                        self.facts[phi] = TOP
                        changed = True

            # Divergent loops: header phis and escaping values become varying.
            self.divergent_loops = []
            for loop in loops:
                divergent = any(
                    block.terminator in self.divergent_branches
                    for block in loop.blocks
                    if any(s not in loop.blocks or s is loop.header for s in block.successors)
                )
                if not divergent:
                    continue
                self.divergent_loops.append(loop)
                taint_phis = list(loop.header.phis())
                for exit_block in loop.exit_blocks():
                    # Which lanes arrive via which exit differs per lane, so
                    # exit-block phis of divergent loops are varying even
                    # when every incoming value is uniform.
                    taint_phis.extend(exit_block.phis())
                for phi in taint_phis:
                    if not self.shape_of(phi).is_varying:
                        self.shapes[phi] = Shape.varying()
                        self.facts[phi] = TOP
                        changed = True
                for block in loop.blocks:
                    for instr in block.instructions:
                        if instr.type.is_void or self.shape_of(instr).is_varying:
                            continue
                        escapes = any(
                            user.parent not in loop.blocks
                            for user in instr.users
                            if isinstance(user, Instruction) and user.parent in block_set
                        )
                        if escapes:
                            self.shapes[instr] = Shape.varying()
                            self.facts[instr] = TOP
                            changed = True

            if changed:
                # Re-run the value fixpoint so taint propagates through uses.
                for _ in range(_MAX_ITERATIONS):
                    inner_changed = False
                    for block in rpo_blocks:
                        for instr in block.instructions:
                            new_shape, new_facts = self._transfer(instr)
                            inner_changed |= self._update(instr, new_shape, new_facts)
                    if not inner_changed:
                        break
            else:
                return

    def _influenced_join_blocks(self, rpo_blocks: List[BasicBlock]) -> Set[BasicBlock]:
        """Blocks whose phis are sync-dependent on some divergent branch:
        every block reachable from the branch's targets before control
        reconverges (conservatively: before reaching a block that dominates
        all remaining paths — approximated by collecting all blocks
        reachable from both targets)."""
        influenced: Set[BasicBlock] = set()
        for branch in self.divergent_branches:
            reach = [self._forward_reach(t) for t in branch.successors()]
            both = reach[0] & reach[1] if len(reach) == 2 else set()
            influenced |= both
            # Any join of paths originating at the divergent branch.
            for target_reach in reach:
                for block in target_reach:
                    if len(block.predecessors) > 1 and block in both:
                        influenced.add(block)
        return {b for b in influenced if b.phis()}

    @staticmethod
    def _forward_reach(start: BasicBlock) -> Set[BasicBlock]:
        seen: Set[BasicBlock] = set()
        stack = [start]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            stack.extend(block.successors)
        return seen
