"""Classical innermost-loop auto-vectorization (the paper's baseline).

Implements the mainstream recipe (§2 "Auto-Vectorization"): canonical
induction recognition, if-conversion, affine dependence testing, then a
vector main loop with the original loop kept as the scalar remainder.
Like production loop vectorizers it is *opportunistic*: any construct it
cannot prove safe — loop-carried flow dependences within the vector
factor, non-affine addresses, wide strides, calls, divergent inner loops,
float reductions without fast-math — makes it give up on the loop, which
is exactly the behaviour the paper contrasts SPMD programming against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backend.lockstep import MemRef, lockstep_conflict
from ..backend.machine import Machine
from ..ir import Constant, Function, IRBuilder, Instruction, Module, UndefValue, Value
from ..ir.cfg import Loop, find_loops
from ..ir.instructions import CAST_OPS, FLOAT_BINOPS, INT_BINOPS, UNARY_OPS
from ..ir.module import BasicBlock, ExternalFunction
from ..ir.types import I1, I64, IntType, PointerType, Type, VectorType, VOID
from ..runtime.mathlib import SLEEF, vector_math_external
from .affine import Affine, AffineAnalysis
from .ifconvert import if_convert

__all__ = ["AutoVecConfig", "auto_vectorize_function", "auto_vectorize_module", "LoopVecReport"]


@dataclass
class AutoVecConfig:
    """Baseline vectorizer knobs (LLVM-ish defaults)."""

    #: Allow reassociating float reductions (LLVM requires -ffast-math).
    fast_math: bool = False
    #: Vectorize libm calls through a vector math library.  Off by default:
    #: without -fveclib, LLVM cannot vectorize loops containing math calls,
    #: which is a major practical limiter of auto-vectorization (§2).
    vector_math: bool = False


@dataclass
class LoopVecReport:
    """What happened per function (for tests and the bench harness)."""

    vectorized: int = 0
    rejected: List[str] = field(default_factory=list)


#: Maximum interleave-group stride handled with shuffles (elements).
_MAX_STRIDE = 4

_REDUCTION_OPS = frozenset("add fadd and or smin smax umin umax fmin fmax".split())


class _Rejected(Exception):
    pass


def auto_vectorize_module(module: Module, machine: Machine,
                          config: Optional[AutoVecConfig] = None) -> Dict[str, LoopVecReport]:
    module.require_mutable("auto_vectorize_module")
    config = config or AutoVecConfig()
    reports = {}
    for function in list(module.functions.values()):
        if function.spmd is not None:
            continue  # SPMD regions belong to the Parsimony flow
        reports[function.name] = auto_vectorize_function(module, function, machine, config)
    return reports


def auto_vectorize_function(module: Module, function: Function, machine: Machine,
                            config: Optional[AutoVecConfig] = None) -> LoopVecReport:
    from ..passes import constant_fold, dce, loop_simplify, mem2reg, simplify_cfg

    config = config or AutoVecConfig()
    report = LoopVecReport()
    mem2reg(function)
    constant_fold(function)
    dce(function)
    simplify_cfg(function)
    loop_simplify(function)

    # Innermost loops only (no outer-loop vectorization, §2).
    progress = True
    vectorized_headers = set()
    while progress:
        progress = False
        loops = find_loops(function)
        for loop in loops:
            if not loop.is_innermost() or loop.header in vectorized_headers:
                continue
            try:
                _vectorize_loop(module, function, loop, machine, config)
            except _Rejected as why:
                report.rejected.append(f"{loop.header.name}: {why}")
                vectorized_headers.add(loop.header)  # don't retry
                continue
            report.vectorized += 1
            vectorized_headers.add(loop.header)
            constant_fold(function)
            dce(function)
            loop_simplify(function)
            progress = True
            break
    return report


# ---------------------------------------------------------------------------- legality


def _canonical_induction(loop: Loop):
    """Find (induction phi, init, bound, signed, cmp instr) for the pattern
    ``header: i = phi(init, i+1); if (i < N) body else exit``."""
    header = loop.header
    term = header.terminator
    if term is None or term.opcode != "condbr":
        raise _Rejected("no conditional exit at the loop header")
    if term.operands[1] in loop.blocks and term.operands[2] in loop.blocks:
        raise _Rejected("loop does not exit at the header")
    cond = term.operands[0]
    if not isinstance(cond, Instruction) or cond.opcode != "icmp":
        raise _Rejected("loop exit condition is not an integer compare")
    pred = cond.attrs["pred"]
    if pred not in ("slt", "ult"):
        raise _Rejected(f"unsupported loop predicate {pred!r}")
    if term.operands[1] not in loop.blocks:
        raise _Rejected("loop body on the false edge is unsupported")
    iv = cond.operands[0]
    bound = cond.operands[1]
    if isinstance(bound, Instruction) and bound.parent in loop.blocks:
        raise _Rejected("loop bound is not loop-invariant")
    latch = loop.latches[0]
    if not (isinstance(iv, Instruction) and iv.opcode == "phi" and iv.parent is header):
        raise _Rejected("compare operand is not a header phi")
    step = iv.phi_value_for(latch)
    if not (isinstance(step, Instruction) and step.opcode == "add" and any(
            a is iv and isinstance(b, Constant) and b.value == 1
            for a, b in (step.operands, step.operands[::-1]))):
        raise _Rejected("induction step is not +1")
    init = iv.phi_value_for(loop.preheader)
    return iv, step, init, bound, pred == "slt", cond


def _find_reductions(loop: Loop, iv, config: AutoVecConfig):
    """Header phis other than the induction must be reduction recurrences."""
    latch = loop.latches[0]
    reductions = []
    for phi in loop.header.phis():
        if phi is iv:
            continue
        update = phi.phi_value_for(latch)
        if not (isinstance(update, Instruction) and update.opcode in _REDUCTION_OPS):
            raise _Rejected(f"loop-carried phi %{phi.name} is not a reduction")
        if phi not in update.operands:
            raise _Rejected(f"recurrence %{phi.name} is not a simple reduction")
        if update.opcode == "fadd" and not config.fast_math:
            raise _Rejected(
                "float add reduction requires fast-math reassociation"
            )
        # The phi must feed only its own update (and uses outside the loop).
        for user in phi.users:
            if user is update:
                continue
            if isinstance(user, Instruction) and user.parent in loop.blocks:
                raise _Rejected(f"reduction %{phi.name} used inside the loop")
        for user in update.users:
            if user is phi:
                continue
            if isinstance(user, Instruction) and user.parent in loop.blocks:
                raise _Rejected(f"reduction update %{update.name} used inside the loop")
        reductions.append((phi, update))
    return reductions


def _classify_access(affine: Optional[Affine], elem: Type) -> Tuple[str, int]:
    if affine is None:
        raise _Rejected("unanalyzable memory address")
    size = elem.size_bytes()
    if affine.coeff == 0:
        return ("invariant", 0)
    if affine.coeff == size:
        return ("unit", 1)
    if affine.coeff % size == 0 and 2 <= affine.coeff // size <= _MAX_STRIDE:
        return ("strided", affine.coeff // size)
    raise _Rejected(f"stride of {affine.coeff} bytes is not vectorizable")


_WIDENABLE = (
    INT_BINOPS | FLOAT_BINOPS | UNARY_OPS | CAST_OPS
    | {"icmp", "fcmp", "select", "fma", "gep"}
)


def _widest_bits(loop: Loop) -> int:
    """VF is chosen by the widest *data* type (loaded, stored, or reduced),
    as in LLVM; induction/address arithmetic in i64 does not count."""
    widest = 0
    for block in loop.blocks:
        for instr in block.instructions:
            if instr.opcode == "load":
                widest = max(widest, instr.type.bits)
            elif instr.opcode == "store":
                widest = max(widest, instr.operands[0].type.bits)
            elif instr.opcode == "phi" and instr.parent is loop.header:
                if instr.type.is_float:
                    widest = max(widest, instr.type.bits)
    return widest or 32


# ---------------------------------------------------------------------------- transform


def _vectorize_loop(module: Module, function: Function, loop: Loop,
                    machine: Machine, config: AutoVecConfig) -> None:
    if loop.preheader is None:
        raise _Rejected("no preheader")
    iv, step, init, bound, signed, exit_cmp = _canonical_induction(loop)

    # Flatten conditionals; re-check structure afterwards.
    if_convert(function, within=set(loop.blocks))
    loops = [l for l in find_loops(function) if l.header is loop.header]
    if not loops:
        raise _Rejected("loop vanished during if-conversion")
    loop = loops[0]
    blocks = _linear_blocks(loop)

    reductions = _find_reductions(loop, iv, config)
    affine = AffineAnalysis(loop, iv)

    # Legality walk + access classification: each access a lockstep ref.
    refs: List[MemRef] = []
    body_instrs: List[Instruction] = []
    skip = {iv, step, exit_cmp}
    skip.update(phi for phi, _ in reductions)
    for block in blocks:
        for instr in block.instructions:
            if instr.is_terminator or instr in skip:
                continue
            if instr.opcode in ("load", "store"):
                store = instr.opcode == "store"
                elem = (instr.operands[0] if store else instr).type
                a = affine.analyze(instr.operands[store])
                _classify_access(a, elem)
                refs.append(MemRef(a.sym, a.const, a.coeff,
                                   (1 << elem.size_bytes()) - 1, store, len(refs)))
            elif instr.opcode == "call":
                callee = instr.operands[0]
                if not (isinstance(callee, ExternalFunction) and callee.name.startswith("ml.")):
                    raise _Rejected(f"call to @{callee.name} in loop body")
                if not config.vector_math:
                    raise _Rejected(
                        f"math call @{callee.name} (no vector math library / -fveclib)"
                    )
            elif instr.opcode == "phi":
                raise _Rejected("control flow remains after if-conversion")
            elif instr.opcode not in _WIDENABLE:
                raise _Rejected(f"unvectorizable instruction {instr.opcode}")
            body_instrs.append(instr)

    # The body emitter widens every operand but an access's address, and a
    # gep has no widened form (loads and stores consume it as an address):
    # refuse here, before anything is built, what it could not widen.
    widened = set(skip) | {i for i in body_instrs if i.opcode != "gep"}
    for instr in body_instrs:
        op = instr.opcode
        if op in ("load", "gep"):
            continue  # addresses only
        values = instr.operands[:1] if op == "store" \
            else instr.operands[1:] if op == "call" else instr.operands
        for value in values:
            if isinstance(value, Instruction) and value.parent in loop.blocks \
                    and value not in widened:
                raise _Rejected(f"no widened form for %{value.name}")

    # The induction step and exit compare are rewritten, not widened; they
    # must not feed anything else (or the mid-transform state would break).
    for special, allowed in ((step, {iv, exit_cmp}), (exit_cmp, set())):
        for user in special.users:
            if user is loop.header.terminator or user in allowed:
                continue
            raise _Rejected(f"%{special.name} has uses beyond loop control")

    # Dependences: VF iterations run each access in lockstep.
    widest = _widest_bits(loop)
    vf = max(2, machine.vector_bits // widest)
    reason = lockstep_conflict(refs, vf)
    if reason is not None:
        raise _Rejected(reason)

    _emit_vector_loop(
        module, function, loop, blocks, iv, step, init, bound, signed,
        exit_cmp, reductions, affine, body_instrs, vf,
    )


def _linear_blocks(loop: Loop) -> List[BasicBlock]:
    """header -> ... -> latch straight-line chain, else reject."""
    chain = [loop.header]
    term = loop.header.terminator
    inside = [s for s in term.successors() if s in loop.blocks]
    if len(inside) != 1:
        raise _Rejected("multiple exits / irregular header")
    block = inside[0]
    seen = {loop.header}
    while True:
        if block in seen:
            raise _Rejected("inner cycle")
        seen.add(block)
        chain.append(block)
        succs = block.successors
        if len(succs) != 1 or succs[0] not in loop.blocks:
            if succs == [loop.header]:
                return chain
            raise _Rejected("loop body is not straight-line after if-conversion")
        if succs[0] is loop.header:
            return chain
        block = succs[0]


def _emit_vector_loop(module, function, loop, blocks, iv, step, init, bound, signed,
                      exit_cmp, reductions, affine, body_instrs, vf) -> None:
    ity = iv.type
    preheader = loop.preheader
    header = loop.header
    b = IRBuilder(function)

    # --- vpre: guard the vector loop on at least one full chunk.
    vpre = function.add_block("vec.pre", before=header)
    vloop = function.add_block("vec.loop", before=header)
    vexit = function.add_block("vec.exit", before=header)
    # Redirect preheader -> vpre.
    pre_term = preheader.terminator
    for idx, op in enumerate(pre_term.operands):
        if op is header:
            pre_term.set_operand(idx, vpre)
    b.position_at_end(vpre)
    vf_c = Constant(ity, vf)
    first_end = b.add(init, vf_c, "vec.first_end")
    enter = b.icmp("sle" if signed else "ule", first_end, bound, "vec.enter")
    b.condbr(enter, vloop, header)

    # --- vloop: phis.
    b.position_at_end(vloop)
    viv = b.phi(ity, "vec.iv")
    viv.append_operand(init)
    viv.append_operand(vpre)
    vaccs: Dict[Instruction, Instruction] = {}
    for phi, update in reductions:
        vacc = b.phi(VectorType(phi.type, vf), "vec." + phi.name)
        vacc.append_operand(_reduction_identity(update.opcode, phi.type, vf))
        vacc.append_operand(vpre)
        vaccs[phi] = vacc

    emitter = _BodyEmitter(module, function, b, loop, affine, iv, viv, vf)
    for phi, update in reductions:
        emitter.vec[phi] = vaccs[phi]
    for instr in body_instrs:
        emitter.emit(instr)

    iv_next = b.add(viv, vf_c, "vec.iv.next")
    viv.append_operand(iv_next)
    viv.append_operand(b.block)
    for phi, update in reductions:
        vaccs[phi].append_operand(emitter.vec[update])
        vaccs[phi].append_operand(b.block)
    next_end = b.add(iv_next, vf_c, "vec.next_end")
    again = b.icmp("sle" if signed else "ule", next_end, bound, "vec.again")
    if b.block is not vloop:
        raise _Rejected("vector body unexpectedly created control flow")
    b.condbr(again, vloop, vexit)

    # --- vexit: horizontal reductions, then fall into the scalar remainder.
    b.position_at_end(vexit)
    red_final: Dict[Instruction, Value] = {}
    for phi, update in reductions:
        # Reduce the post-update value of the final iteration, not the phi.
        red_final[phi] = _final_reduce(b, update.opcode, emitter.vec[update],
                                       phi.phi_value_for(preheader), phi.type)
    b.br(header)

    # --- scalar remainder: original loop, re-seeded.
    for phi in header.phis():
        start = phi.phi_value_for(preheader)
        ops = list(phi.operands)
        phi.drop_operands()
        for i in range(0, len(ops), 2):
            if ops[i + 1] is preheader:
                continue
            phi.append_operand(ops[i])
            phi.append_operand(ops[i + 1])
        if phi is iv:
            phi.append_operand(init)
            phi.append_operand(vpre)
            phi.append_operand(iv_next)
            phi.append_operand(vexit)
        elif phi in red_final:
            phi.append_operand(start)
            phi.append_operand(vpre)
            phi.append_operand(red_final[phi])
            phi.append_operand(vexit)
        else:  # pragma: no cover - rejected earlier
            raise _Rejected("unexpected header phi")


def _reduction_identity(opcode: str, type: Type, vf: int) -> Constant:
    top = (1 << type.bits) - 1
    value = {"and": top, "umin": top, "smin": top >> 1, "smax": (top >> 1) + 1,
             "fmin": float("inf"), "fmax": float("-inf")}.get(
                 opcode, 0.0 if type.is_float else 0)
    return Constant(VectorType(type, vf), [value] * vf)


def _final_reduce(b: IRBuilder, opcode: str, vacc: Value, start: Value, type: Type) -> Value:
    table = {
        "add": "reduce_add", "fadd": "reduce_add",
        "and": "reduce_and", "or": "reduce_or",
        "smin": "reduce_min_s", "smax": "reduce_max_s",
        "umin": "reduce_min_u", "umax": "reduce_max_u",
        "fmin": "reduce_min_u", "fmax": "reduce_max_u",
    }
    partial = b.reduce(table[opcode], vacc, "vec.red")
    return b.binop(opcode, start, partial, "vec.red.final")


class _BodyEmitter:
    """Widen one straight-line loop body by VF."""

    def __init__(self, module, function, b: IRBuilder, loop, affine: AffineAnalysis,
                 iv, viv, vf: int):
        self.module = module
        self.function = function
        self.b = b
        self.loop = loop
        self.affine = affine
        self.iv = iv
        self.viv = viv
        self.vf = vf
        self.vec: Dict[Value, Value] = {}
        self.scalar_clone: Dict[Value, Value] = {iv: viv}
        self._mask = Constant(VectorType(I1, vf), [1] * vf)

    # -- operand helpers --------------------------------------------------------

    def widen(self, value: Value) -> Value:
        if value in self.vec:
            return self.vec[value]
        if isinstance(value, Constant):
            return Constant(VectorType(value.type, self.vf), [value.value] * self.vf)
        if isinstance(value, UndefValue):
            return UndefValue(VectorType(value.type, self.vf))
        if value is self.iv:
            lanes = Constant(VectorType(value.type, self.vf), list(range(self.vf)))
            splat = self.b.broadcast(self.viv, self.vf, "vec.ivsplat")
            wide = self.b.add(splat, lanes, "vec.ivvec")
            self.vec[value] = wide
            return wide
        if isinstance(value, Instruction) and value.parent in self.loop.blocks:
            raise _Rejected(f"no widened form for %{value.name}")
        # Loop-invariant: broadcast at first use.
        wide = self.b.broadcast(value, self.vf, "vec.splat")
        self.vec[value] = wide
        return wide

    def clone_scalar(self, value: Value) -> Value:
        """Scalar clone of an address expression with iv substituted."""
        if value in self.scalar_clone:
            return self.scalar_clone[value]
        if not isinstance(value, Instruction) or value.parent not in self.loop.blocks:
            return value
        operands = [self.clone_scalar(o) for o in value.operands]
        clone = Instruction(value.opcode, value.type, operands,
                            self.function.unique_name("vec." + value.name),
                            dict(value.attrs))
        self.b.insert(clone)
        self.scalar_clone[value] = clone
        return clone

    # -- instruction widening ------------------------------------------------------

    def emit(self, instr: Instruction) -> None:
        op = instr.opcode
        if op == "load":
            self.vec[instr] = self._emit_load(instr)
            return
        if op == "store":
            self._emit_store(instr)
            return
        if op == "call":
            callee = instr.operands[0]
            fn_name = callee.name.split(".")[1]
            ext = vector_math_external(self.module, fn_name, instr.type, self.vf, SLEEF)
            args = [self.widen(a) for a in instr.operands[1:]]
            self.vec[instr] = self.b.call(ext, args, "vec." + instr.name)
            return
        if op == "gep":
            return  # geps are consumed by loads/stores via clone/affine paths
        operands = [self.widen(o) for o in instr.operands]
        rtype = VectorType(instr.type, self.vf) if not instr.type.is_vector else instr.type
        new = Instruction(op, rtype, operands,
                          self.function.unique_name("vec." + instr.name),
                          dict(instr.attrs))
        self.b.insert(new)
        self.vec[instr] = new

    def _emit_load(self, instr: Instruction) -> Value:
        addr = instr.operands[0]
        form = self.affine.analyze(addr)
        kind, stride = _classify_access(form, instr.type)
        if kind == "invariant":
            scalar = self.b.load(self.clone_scalar(addr), "vec." + instr.name)
            return self.b.broadcast(scalar, self.vf, "vec." + instr.name)
        base = self.clone_scalar(addr)
        if kind == "unit":
            return self.b.vload(base, self.vf, self._mask, "vec." + instr.name)
        return self._window_load(base, stride, instr)

    def _window_load(self, base: Value, stride: int, instr: Instruction) -> Value:
        vf = self.vf
        rel = [lane * stride for lane in range(vf)]
        idx = Constant(VectorType(I64, vf), rel)
        positions = set(rel)
        result = None
        for j in range(stride):
            ptr = self.b.gep(base, Constant(I64, j * vf)) if j else base
            needed = Constant(
                VectorType(I1, vf),
                [1 if (j * vf + p) in positions else 0 for p in range(vf)],
            )
            part = self.b.vload(ptr, vf, needed, f"vec.{instr.name}.w{j}")
            shuffled = self.b.shuffle(part, idx, f"vec.{instr.name}.s{j}")
            if result is None:
                result = shuffled
            else:
                pick = Constant(
                    VectorType(I1, vf), [1 if e // vf == j else 0 for e in rel]
                )
                result = self.b.select(pick, shuffled, result)
        return result

    def _emit_store(self, instr: Instruction) -> None:
        value, addr = instr.operands
        form = self.affine.analyze(addr)
        kind, stride = _classify_access(form, value.type)
        wide = self.widen(value)
        base = self.clone_scalar(addr)
        if kind == "unit":
            self.b.vstore(wide, base, self._mask)
        else:
            self._window_store(base, stride, wide)

    def _window_store(self, base: Value, stride: int, wide: Value) -> None:
        vf = self.vf
        rel = [lane * stride for lane in range(vf)]
        for j in range(stride):
            inv = [0] * vf
            valid = [0] * vf
            for lane, e in enumerate(rel):
                if j * vf <= e < (j + 1) * vf:
                    inv[e - j * vf] = lane
                    valid[e - j * vf] = 1
            if not any(valid):
                continue
            invc = Constant(VectorType(I64, vf), inv)
            wvals = self.b.shuffle(wide, invc)
            wmask = Constant(VectorType(I1, vf), valid)
            ptr = self.b.gep(base, Constant(I64, j * vf)) if j else base
            self.b.vstore(wvals, ptr, wmask)
