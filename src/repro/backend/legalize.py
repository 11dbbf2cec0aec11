"""Type legalization: split gang-width vectors to machine width (§4.3).

"The back-end is also responsible for unrolling each vector instruction
if the IR instruction's vector width (i.e., usually the gang size) does
not match the width of the instructions available on the target."

This pass performs that unrolling as a real IR-to-IR transformation, the
way SelectionDAG does: every vector type has a *natural factor* (how many
machine registers it occupies); each instruction splits by the largest
factor among its result and operands; and values move between
granularities through extract-subvector shuffles (narrowing) and
shuffle2 concat trees (widening) — which is also where the real cost of
mixed-width code (e.g. ``zext <64 x i8> to <64 x i64>``) shows up as
pack/unpack shuffles, just like on x86.

i1 mask vectors have natural factor 1 (AVX-512 predicate registers);
consumers slice them to match their data chunks.

The default cost model already charges un-legalized wide ops equivalent
factors, so running the VM on legalized code must cost about the same
and produce identical results — checked by
``tests/backend/test_legalize.py``, which closes the loop between the
model and the real transformation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir import Constant, Function, Instruction, Module, UndefValue, Value
from ..ir.cfg import reverse_postorder
from ..ir.instructions import (
    CAST_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    REDUCE_OPS,
    UNARY_OPS,
)
from ..ir.module import BasicBlock, ExternalFunction
from ..ir.types import I1, I64, Type, VectorType, VOID
from .machine import Machine

__all__ = ["legalize_function", "legalize_module"]

_ELEMENTWISE = (
    INT_BINOPS | FLOAT_BINOPS | UNARY_OPS | CAST_OPS
    | {"icmp", "fcmp", "fma", "select"}
)


class _Legalizer:
    def __init__(self, function: Function, machine: Machine,
                 module: Optional[Module]):
        self.f = function
        self.machine = machine
        self.module = module
        #: wide value -> its stored chunk list.
        self.chunks: Dict[Value, List[Value]] = {}
        self._phi_fixups: List = []
        self._retired: List[Instruction] = []
        self._emit_list: Optional[List[Instruction]] = None

    # -- factors ---------------------------------------------------------------------

    def nat_factor(self, t: Type) -> int:
        if not isinstance(t, VectorType) or t.elem == I1:
            return 1
        return self.machine.legalize_factor(t)

    def split_factor(self, instr: Instruction) -> int:
        n = self.nat_factor(instr.type)
        for op in instr.operands:
            n = max(n, self.nat_factor(op.type))
            stored = self.chunks.get(op)
            if stored is not None:
                # An operand already split finer (e.g. an i1 mask produced by
                # a chunked i64 compare) drags its consumers along — for
                # void-typed consumers (stores/scatters) and for same-width
                # results.  Handlers with their own lane-count structure
                # (sad, shuffle) re-clamp internally.
                same_width = getattr(instr.type, "count", None) == op.type.count
                if instr.type.is_void or same_width:
                    n = max(n, len(stored))
        return n

    # -- emission --------------------------------------------------------------------

    def emit(self, opcode: str, rtype: Type, operands: List[Value], attrs=None) -> Instruction:
        new = Instruction(opcode, rtype, operands, "", dict(attrs or {}))
        self._emit_list.append(new)
        return new

    # -- value (re)chunking ------------------------------------------------------------

    def pieces(self, value: Value, n: int) -> List[Value]:
        """``value`` as exactly ``n`` equal vector pieces, rechunking as
        needed.  Constants and undefs split for free."""
        t = value.type
        assert isinstance(t, VectorType) and t.count % n == 0
        lanes = t.count // n
        ptype = VectorType(t.elem, lanes)
        if isinstance(value, Constant):
            payload = value.value
            return [
                Constant(ptype, list(payload[i * lanes : (i + 1) * lanes]))
                for i in range(n)
            ]
        if isinstance(value, UndefValue):
            return [UndefValue(ptype)] * n
        stored = self.chunks.get(value, [value])
        m = len(stored)
        if m == n:
            return stored
        if n > m:
            assert n % m == 0
            per = n // m
            out = []
            for chunk in stored:
                for k in range(per):
                    out.append(self._extract_sub(chunk, lanes, k * lanes))
            return out
        assert m % n == 0
        group = m // n
        return [self._concat(stored[j * group : (j + 1) * group]) for j in range(n)]

    def _extract_sub(self, chunk: Value, lanes: int, offset: int) -> Value:
        if lanes == chunk.type.count and offset == 0:
            return chunk
        idx = Constant(VectorType(I64, lanes), list(range(offset, offset + lanes)))
        return self.emit("shuffle", VectorType(chunk.type.elem, lanes), [chunk, idx])

    def _concat(self, parts: List[Value]) -> Value:
        level = list(parts)
        while len(level) > 1:
            merged = []
            for a, b in zip(level[::2], level[1::2]):
                lanes = a.type.count * 2
                idx = Constant(VectorType(I64, lanes), list(range(lanes)))
                merged.append(
                    self.emit("shuffle2", VectorType(a.type.elem, lanes), [a, b, idx])
                )
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        return level[0]

    # -- driver -------------------------------------------------------------------------

    def run(self) -> bool:
        if not any(
            self.split_factor(instr) > 1
            for instr in self.f.instructions()
            if not instr.is_terminator
        ):
            return False
        for block in reverse_postorder(self.f):
            self._legalize_block(block)
        for phi, incoming, n in self._phi_fixups:
            for value, pred in incoming:
                # Rechunking of the incoming value happens in the predecessor.
                self._emit_list = []
                value_pieces = self.pieces(value, n)
                insert_at = len(pred.instructions) - 1
                for offset, new in enumerate(self._emit_list):
                    pred.insert(insert_at + offset, new)
                    new.name = self.f.unique_name("legal")
                for chunk_phi, piece in zip(self.chunks[phi], value_pieces):
                    chunk_phi.append_operand(piece)
                    chunk_phi.append_operand(pred)
        self._erase_retired()
        return True

    def _erase_retired(self) -> None:
        retired = set(self._retired)
        for instr in self._retired:
            kept = [(u, i) for (u, i) in instr.uses if u not in retired]
            if kept:
                raise NotImplementedError(
                    f"unlegalized use of %{instr.name} ({instr.opcode}) by "
                    f"%{kept[0][0].name} ({kept[0][0].opcode})"
                )
            instr.uses = []
        for instr in self._retired:
            for idx, op in enumerate(instr._operands):
                entry = (instr, idx)
                if entry in op.uses:
                    op.uses.remove(entry)
            instr._operands = []
            if instr.parent is not None:
                instr.parent.instructions.remove(instr)
                instr.parent = None

    def _legalize_block(self, block: BasicBlock) -> None:
        index = 0
        while index < len(block.instructions):
            instr = block.instructions[index]
            if instr.is_terminator or self.split_factor(instr) == 1:
                index += 1
                continue
            self._emit_list = []
            self._split(instr)
            for offset, new in enumerate(self._emit_list):
                block.insert(index + offset, new)
                if not new.type.is_void and not new.name:
                    new.name = self.f.unique_name(instr.name or "legal")
            index += len(self._emit_list)
            # Consumers still reference the wide original; they are rewritten
            # as the walk reaches them and the originals erased at the end.
            self._retired.append(instr)
            index += 1

    # -- per-opcode splitting ----------------------------------------------------------

    def _split(self, instr: Instruction) -> None:
        op = instr.opcode
        n = self.split_factor(instr)

        if op in _ELEMENTWISE:
            pieces = [
                self.pieces(operand, n) if isinstance(operand.type, VectorType) else None
                for operand in instr.operands
            ]
            rlanes = instr.type.count // n
            self.chunks[instr] = [
                self.emit(
                    op,
                    VectorType(instr.type.elem, rlanes),
                    [
                        (p[j] if p is not None else operand)
                        for p, operand in zip(pieces, instr.operands)
                    ],
                    instr.attrs,
                )
                for j in range(n)
            ]
            return
        if op == "phi":
            rlanes = instr.type.count // n
            self.chunks[instr] = [
                self.emit("phi", VectorType(instr.type.elem, rlanes), [])
                for _ in range(n)
            ]
            self._phi_fixups.append((instr, list(instr.phi_incoming()), n))
            return
        if op == "broadcast":
            rlanes = instr.type.count // n
            one = self.emit(
                "broadcast", VectorType(instr.type.elem, rlanes), [instr.operands[0]]
            )
            self.chunks[instr] = [one] * n
            return
        if op == "vload":
            ptr, mask = instr.operands
            rlanes = instr.type.count // n
            mask_pieces = self.pieces(mask, n)
            out = []
            for j in range(n):
                cursor = ptr if j == 0 else self.emit(
                    "gep", ptr.type, [ptr, Constant(I64, j * rlanes)]
                )
                out.append(self.emit(
                    "vload", VectorType(instr.type.elem, rlanes),
                    [cursor, mask_pieces[j]],
                ))
            self.chunks[instr] = out
            return
        if op == "vstore":
            value, ptr, mask = instr.operands
            rlanes = value.type.count // n
            value_pieces = self.pieces(value, n)
            mask_pieces = self.pieces(mask, n)
            for j in range(n):
                cursor = ptr if j == 0 else self.emit(
                    "gep", ptr.type, [ptr, Constant(I64, j * rlanes)]
                )
                self.emit("vstore", VOID, [value_pieces[j], cursor, mask_pieces[j]])
            return
        if op == "gather":
            ptrs, mask = instr.operands
            rlanes = instr.type.count // n
            ptr_pieces = self.pieces(ptrs, n)
            mask_pieces = self.pieces(mask, n)
            self.chunks[instr] = [
                self.emit("gather", VectorType(instr.type.elem, rlanes),
                          [ptr_pieces[j], mask_pieces[j]])
                for j in range(n)
            ]
            return
        if op == "scatter":
            value, ptrs, mask = instr.operands
            value_pieces = self.pieces(value, n)
            ptr_pieces = self.pieces(ptrs, n)
            mask_pieces = self.pieces(mask, n)
            for j in range(n):
                self.emit("scatter", VOID,
                          [value_pieces[j], ptr_pieces[j], mask_pieces[j]])
            return
        if op in REDUCE_OPS:
            self._split_reduce(instr, n)
            return
        if op in ("mask_any", "mask_all", "mask_popcnt"):
            self._split_mask_query(instr, n)
            return
        if op == "extractelement":
            self._split_extract(instr, n)
            return
        if op == "insertelement":
            self._split_insert(instr, n)
            return
        if op == "shuffle":
            self._split_shuffle(instr)
            return
        if op == "sad":
            self._split_sad(instr, n)
            return
        if op == "call":
            self._split_call(instr, n)
            return
        raise NotImplementedError(f"legalize: opcode {op}")

    _REDUCE_COMBINE = {
        "reduce_add": "add", "reduce_and": "and", "reduce_or": "or",
        "reduce_min_s": "smin", "reduce_min_u": "umin",
        "reduce_max_s": "smax", "reduce_max_u": "umax",
    }

    def _split_reduce(self, instr: Instruction, n: int) -> None:
        src = instr.operands[0]
        parts = self.pieces(src, n)
        combine = self._REDUCE_COMBINE[instr.opcode]
        elem = src.type.elem
        if elem.is_float:
            combine = {
                "reduce_add": "fadd", "reduce_min_u": "fmin", "reduce_max_u": "fmax",
            }.get(instr.opcode, combine)
        level = list(parts)
        while len(level) > 1:
            merged = [
                self.emit(combine, a.type, [a, b])
                for a, b in zip(level[::2], level[1::2])
            ]
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        final = self.emit(instr.opcode, instr.type, [level[0]])
        instr.replace_all_uses_with(final)

    def _split_mask_query(self, instr: Instruction, n: int) -> None:
        parts = self.pieces(instr.operands[0], n)
        if instr.opcode == "mask_popcnt":
            counts = [self.emit("mask_popcnt", I64, [p]) for p in parts]
            total = counts[0]
            for count in counts[1:]:
                total = self.emit("add", I64, [total, count])
            instr.replace_all_uses_with(total)
            return
        combine = "or" if instr.opcode == "mask_any" else "and"
        bits = [self.emit(instr.opcode, I1, [p]) for p in parts]
        result = bits[0]
        for bit in bits[1:]:
            result = self.emit(combine, I1, [result, bit])
        instr.replace_all_uses_with(result)

    def _split_extract(self, instr: Instruction, n: int) -> None:
        vec, idx = instr.operands
        parts = self.pieces(vec, n)
        lanes = vec.type.count // n
        if isinstance(idx, Constant):
            j, sub = divmod(int(idx.value) % vec.type.count, lanes)
            final = self.emit(
                "extractelement", instr.type, [parts[j], Constant(I64, sub)]
            )
        else:
            final = self.emit("extractelement", instr.type, [parts[0], idx])
            shift = lanes.bit_length() - 1
            for j in range(1, n):
                hit = self.emit(
                    "icmp", I1,
                    [self.emit("lshr", I64, [idx, Constant(I64, shift)]),
                     Constant(I64, j)],
                    {"pred": "eq"},
                )
                alt = self.emit("extractelement", instr.type, [parts[j], idx])
                final = self.emit("select", instr.type, [hit, alt, final])
        instr.replace_all_uses_with(final)

    def _split_insert(self, instr: Instruction, n: int) -> None:
        vec, idx, value = instr.operands
        if not isinstance(idx, Constant):
            raise NotImplementedError("legalize: dynamic insertelement")
        parts = list(self.pieces(vec, n))
        lanes = vec.type.count // n
        j, sub = divmod(int(idx.value) % vec.type.count, lanes)
        parts[j] = self.emit(
            "insertelement", parts[j].type, [parts[j], Constant(I64, sub), value]
        )
        self.chunks[instr] = parts

    def _split_shuffle(self, instr: Instruction) -> None:
        src, idx = instr.operands
        src_n = max(1, self.nat_factor(src.type))
        src_n = max(src_n, len(self.chunks.get(src, [None])))
        out_n = max(1, self.nat_factor(instr.type),
                    len(self.chunks.get(idx, [None])))
        src_parts = self.pieces(src, src_n)
        src_lanes = src.type.count // src_n
        idx_parts = self.pieces(idx, out_n)
        out = []
        for idx_part in idx_parts:
            lanes = idx_part.type.count
            rtype = VectorType(src.type.elem, lanes)
            if isinstance(idx_part, Constant):
                # Constant permutes resolve chunk selection statically.
                wrapped = [int(v) % src.type.count for v in idx_part.value]
                needed = sorted({v // src_lanes for v in wrapped})
                result = None
                for j in needed:
                    part_idx = Constant(
                        VectorType(I64, lanes), [v % src_lanes for v in wrapped]
                    )
                    shuffled = self.emit("shuffle", rtype, [src_parts[j], part_idx])
                    if result is None:
                        result = shuffled
                    else:
                        pick = Constant(
                            VectorType(I1, lanes),
                            [1 if v // src_lanes == j else 0 for v in wrapped],
                        )
                        result = self.emit("select", rtype, [pick, shuffled, result])
                out.append(result)
                continue
            # Shuffle wraps indices modulo the *original* source width;
            # apply that wrap before chunk selection (widths are powers of 2).
            wrap = Constant(idx_part.type, [src.type.count - 1] * lanes)
            idx_eff = self.emit("and", idx_part.type, [idx_part, wrap])
            result = self.emit("shuffle", rtype, [src_parts[0], idx_eff])
            if src_n > 1:
                shift = src_lanes.bit_length() - 1
                div = self.emit(
                    "lshr", idx_eff.type,
                    [idx_eff, Constant(idx_eff.type, [shift] * lanes)],
                )
                for j in range(1, src_n):
                    hit = self.emit(
                        "icmp", VectorType(I1, lanes),
                        [div, Constant(idx_eff.type, [j] * lanes)],
                        {"pred": "eq"},
                    )
                    alt = self.emit("shuffle", rtype, [src_parts[j], idx_eff])
                    result = self.emit("select", rtype, [hit, alt, result])
            out.append(result)
        if out_n > 1:
            self.chunks[instr] = out
        else:
            instr.replace_all_uses_with(out[0])

    def _split_sad(self, instr: Instruction, n: int) -> None:
        a, b = instr.operands
        # sad works on groups of 8 u8 lanes: pieces cannot go below 8 lanes.
        n = min(n, a.type.count // 8)
        a_parts = self.pieces(a, n)
        b_parts = self.pieces(b, n)
        out = []
        for pa, pb in zip(a_parts, b_parts):
            rtype = VectorType(I64, pa.type.count // 8)
            out.append(self.emit("sad", rtype, [pa, pb]))
        if len(out) == 1:
            instr.replace_all_uses_with(out[0])
        elif self.nat_factor(instr.type) == len(out):
            self.chunks[instr] = out
        else:
            whole = self._concat(out)
            assert whole.type == instr.type
            instr.replace_all_uses_with(whole)

    def _split_call(self, instr: Instruction, n: int) -> None:
        callee = instr.operands[0]
        if not (isinstance(callee, ExternalFunction) and callee.name.startswith("ml.")):
            raise NotImplementedError(f"legalize: wide call to @{callee.name}")
        from ..runtime.mathlib import vector_math_external

        _, flavour, fn, _sig = callee.name.split(".")
        vt = instr.type
        lanes = vt.count // n
        narrow_ext = vector_math_external(self.module, fn, vt.elem, lanes, flavour)
        arg_pieces = [self.pieces(arg, n) for arg in instr.operands[1:]]
        self.chunks[instr] = [
            self.emit("call", VectorType(vt.elem, lanes),
                      [narrow_ext] + [pieces[j] for pieces in arg_pieces])
            for j in range(n)
        ]


def legalize_function(function: Function, machine: Machine,
                      module: Optional[Module] = None) -> bool:
    """Split all vector operations wider than the machine registers."""
    return _Legalizer(function, machine, module).run()


def legalize_module(module: Module, machine: Machine) -> bool:
    from ..ir.verifier import verify_function

    module.require_mutable("legalize_module")
    changed = False
    for function in module.functions.values():
        if not function.blocks:
            continue
        if legalize_function(function, machine, module):
            verify_function(function)
            changed = True
    return changed
