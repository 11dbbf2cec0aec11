"""Textual IR parser — the inverse of :mod:`repro.ir.printer`.

Lets tests and tools write IR as text (golden files, reduced repro cases)
and round-trip the printer's output.  The grammar is exactly the
printer's format:

    ; module m
    declare f32 @ml.exp.f32(f32)
    define void @kernel(i8* %src, i64 %n) {
    entry:
      %v = vload i8* %src, <8 x i1> <1, 1, 1, 1, 1, 1, 1, 1> -> <8 x i8>
      ...
    }

Externals declared with ``declare`` get a trapping stub implementation
(they exist for type-checking; tests that execute must register real
implementations or build modules through the runtime helpers).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import (
    CAST_OPS,
    FCMP_PREDS,
    FLOAT_BINOPS,
    ICMP_PREDS,
    INT_BINOPS,
    Instruction,
    REDUCE_OPS,
    UNARY_OPS,
)
from .module import BasicBlock, ExternalFunction, Function, Module, SpmdInfo
from .types import (
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VectorType,
    VOID,
)
from ..diagnostics import CompileError
from .values import Constant, UndefValue, Value
from .printer import BATCH_FORM_ATTRS
from .verifier import verify_module

__all__ = ["parse_ir", "IRParseError"]


class IRParseError(CompileError, SyntaxError):
    """Malformed textual IR."""

    default_stage = "frontend"


_SCALAR_TYPES = {
    "void": VOID, "i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64,
    "f32": F32, "f64": F64,
}

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|;[^\n]*)
  | (?P<punct><|>|\(|\)|\[|\]|\{|\}|,|=|:|\*|->)
  | (?P<number>-?\d+\.\d+(e[+-]?\d+)?|-?\d+e[+-]?\d+|-?\d+|nan|-?inf)
  | (?P<global>@[\w.$-]+)
  | (?P<local>%[\w.$-]+)
  | (?P<word>[\w.$]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise IRParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "number" and m.group(0).count(".") and not m.group("number"):
            kind = "word"
        if kind != "ws":
            tokens.append((kind, m.group(0)))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.module = Module("parsed")
        # Per-function state:
        self.values: Dict[str, Value] = {}
        self.blocks: Dict[str, BasicBlock] = {}
        self.fixups: List[Tuple[Instruction, int, str]] = []

    # -- token helpers -----------------------------------------------------------

    @property
    def tok(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str]:
        tok = self.tok
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tok[1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise IRParseError(f"expected {text!r}, found {self.tok[1]!r}")

    # -- types ---------------------------------------------------------------------

    def at_type(self) -> bool:
        return self.tok[1] in _SCALAR_TYPES or self.tok[1] == "<"

    def parse_type(self) -> Type:
        if self.accept("<"):
            count = int(self.advance()[1])
            self.expect("x")
            elem = self.parse_type()
            self.expect(">")
            return VectorType(elem, count)
        word = self.advance()[1]
        base = _SCALAR_TYPES.get(word)
        if base is None:
            raise IRParseError(f"unknown type {word!r}")
        type: Type = base
        while self.accept("*"):
            type = PointerType(type)
        return type

    # -- values ----------------------------------------------------------------------

    def parse_value_of(self, type: Type) -> Value:
        kind, text = self.tok
        if kind == "local":
            self.advance()
            return self._lookup(text[1:], type)
        if text == "undef":
            self.advance()
            return UndefValue(type)
        if text == "<":  # vector constant
            self.advance()
            lanes = []
            while not self.accept(">"):
                lanes.append(self._parse_number())
                self.accept(",")
            return Constant(type, lanes)
        if kind == "number" or text in ("nan", "inf", "-inf"):
            return Constant(type, self._parse_number())
        if kind == "global":
            self.advance()
            return self.module.get(text[1:])
        raise IRParseError(f"cannot parse value {text!r}")

    def _parse_number(self):
        kind, text = self.advance()
        if text in ("nan", "inf", "-inf"):
            return float(text)
        if any(c in text for c in ".e") and not text.lstrip("-").isdigit():
            return float(text)
        return int(text)

    def _lookup(self, name: str, type: Type) -> Value:
        value = self.values.get(name)
        if value is None:
            # Forward reference: create a placeholder patched later.
            value = UndefValue(type)
            value.name = name
            self.fixups_pending = True
        return value

    # -- top level ----------------------------------------------------------------------

    def parse_module(self) -> Module:
        while self.tok[0] != "eof":
            word = self.tok[1]
            if word == "declare":
                self._parse_declare()
            elif word == "define":
                self._parse_define()
            else:
                raise IRParseError(f"expected declare/define, found {word!r}")
        verify_module(self.module)
        return self.module

    def _parse_declare(self) -> None:
        self.expect("declare")
        ret = self.parse_type()
        name = self.advance()[1][1:]
        self.expect("(")
        params = []
        while not self.accept(")"):
            params.append(self.parse_type())
            self.accept(",")

        def stub(*_args):
            raise RuntimeError(f"external @{name} has no implementation")

        self.module.add_external(
            ExternalFunction(name, FunctionType(ret, tuple(params)), stub)
        )

    def _parse_define(self) -> None:
        self.expect("define")
        ret = self.parse_type()
        name = self.advance()[1][1:]
        self.expect("(")
        param_types, param_names = [], []
        while not self.accept(")"):
            param_types.append(self.parse_type())
            param_names.append(self.advance()[1][1:])
            self.accept(",")
        function = Function(name, FunctionType(ret, tuple(param_types)), param_names)
        self.module.add_function(function)
        spmd = self._parse_spmd_annotation()
        function.spmd = spmd
        self.expect("{")

        self.values = {a.name: a for a in function.args}
        self.blocks = {}
        self.fixups = []

        # Pre-scan: create blocks in their textual order so forward
        # references (branches, phi edges) don't reorder the layout.
        scan = self.pos
        while self.tokens[scan][1] != "}":
            if self.tokens[scan + 1][1] == ":":
                self._block(function, self.tokens[scan][1])
                scan += 1
            scan += 1

        # Second pass: parse labels and instructions.
        current: Optional[BasicBlock] = None
        while not self.accept("}"):
            kind, text = self.tok
            if self.tokens[self.pos + 1][1] == ":" and kind in ("word", "number"):
                self.advance()
                self.advance()
                current = self._block(function, text)
                continue
            if current is None:
                raise IRParseError(f"instruction before first label in @{name}")
            self._parse_instruction(function, current)

        # Patch forward references.
        for instr, idx, ref in self.fixups:
            target = self.values.get(ref) or self.blocks.get(ref)
            if target is None:
                raise IRParseError(f"undefined value %{ref} in @{name}")
            instr.set_operand(idx, target)

    def _parse_spmd_annotation(self) -> Optional[SpmdInfo]:
        if self.tok[1].startswith("!"):
            # !spmd(gang_size=G, full|partial) — printed by print_function
            raise IRParseError("spmd annotations are not supported in text form")
        return None

    def _block(self, function: Function, label: str) -> BasicBlock:
        block = self.blocks.get(label)
        if block is None:
            block = BasicBlock(label)
            block.parent = function
            function.blocks.append(block)
            function._used_names.add(label)
            self.blocks[label] = block
        return block

    def _block_ref(self, function: Function) -> BasicBlock:
        self.expect("label")
        name = self.advance()[1][1:]
        return self._block(function, name)

    # -- instructions -----------------------------------------------------------------------

    def _parse_instruction(self, function: Function, block: BasicBlock) -> None:
        name = ""
        if self.tok[0] == "local":
            name = self.advance()[1][1:]
            self.expect("=")
        opcode = self.advance()[1]

        instr = self._build_instruction(function, opcode)
        if name:
            instr.name = name
            function._used_names.add(name)
            self.values[name] = instr
        block.instructions.append(instr)
        instr.parent = block

    def _operand(self, instr_ops: List, ref_fixups: List) -> None:
        """Parse ``type value`` recording forward-reference fixups."""
        type = self.parse_type()
        kind, text = self.tok
        if kind == "local" and text[1:] not in self.values:
            self.advance()
            placeholder = UndefValue(type)
            instr_ops.append(placeholder)
            ref_fixups.append((len(instr_ops) - 1, text[1:]))
        else:
            instr_ops.append(self.parse_value_of(type))

    def _build_instruction(self, function: Function, opcode: str) -> Instruction:
        ops: List[Value] = []
        late: List[Tuple[int, str]] = []
        attrs: Dict = {}
        rtype: Type = VOID

        def operand():
            self._operand(ops, late)

        if opcode in INT_BINOPS or opcode in FLOAT_BINOPS or opcode == "fma":
            self.accept("nsw")
            operand()
            while self.accept(","):
                operand()
            rtype = ops[0].type
        elif opcode in UNARY_OPS:
            operand()
            rtype = ops[0].type
        elif opcode in ("icmp", "fcmp"):
            pred = self.advance()[1]
            if pred not in (ICMP_PREDS | FCMP_PREDS):
                raise IRParseError(f"bad predicate {pred!r}")
            attrs["pred"] = pred
            operand()
            self.expect(",")
            operand()
            t = ops[0].type
            rtype = VectorType(I1, t.count) if isinstance(t, VectorType) else I1
        elif opcode in CAST_OPS:
            operand()
            self.expect("to")
            rtype = self.parse_type()
        elif opcode == "load":
            operand()
            rtype = ops[0].type.pointee
        elif opcode == "store":
            operand()
            self.expect(",")
            operand()
        elif opcode == "gep":
            operand()
            self.expect(",")
            operand()
            rtype = ops[0].type
        elif opcode == "alloca":
            elem = self.parse_type()
            count = 1
            if self.accept("x"):
                count = int(self.advance()[1])
            attrs["count"] = count
            rtype = PointerType(elem)
        elif opcode == "atomicrmw":
            attrs["op"] = self.advance()[1]
            operand()
            self.expect(",")
            operand()
            if self.accept(","):
                operand()  # a scatter-add's mask
            if self.tok[1] in ("relaxed", "acquire", "release", "seq_cst"):
                attrs["ordering"] = self.advance()[1]
            # A scatter-add (addresses, one per lane) returns nothing.
            rtype = VOID if ops[0].type.is_vector else ops[1].type
        elif opcode == "phi":
            rtype = self.parse_type()
            while self.accept("["):
                kind, text = self.tok
                if kind == "local" and text[1:] not in self.values:
                    self.advance()
                    ops.append(UndefValue(rtype))
                    late.append((len(ops) - 1, text[1:]))
                else:
                    ops.append(self.parse_value_of(rtype))
                self.expect(",")
                label = self.advance()[1][1:]
                ops.append(self._block(function, label))
                self.expect("]")
                self.accept(",")
        elif opcode == "select":
            operand()
            self.expect(",")
            operand()
            self.expect(",")
            operand()
            rtype = ops[1].type
        elif opcode == "call":
            rtype = self.parse_type()
            callee_name = self.advance()[1][1:]
            callee = self.module.get(callee_name)
            ops.append(callee)
            self.expect("(")
            while not self.accept(")"):
                operand()
                self.accept(",")
        elif opcode == "br":
            ops.append(self._block_ref(function))
        elif opcode == "condbr":
            operand()
            self.expect(",")
            ops.append(self._block_ref(function))
            self.expect(",")
            ops.append(self._block_ref(function))
        elif opcode == "ret":
            if self.tok[1] == "void":
                self.advance()
            elif self.at_type():
                operand()
        elif opcode == "unreachable":
            pass
        elif opcode in ("vload", "gather", "broadcast", "shuffle", "shuffle2"):
            operand()
            while self.accept(","):
                operand()
            self.expect("->")
            rtype = self.parse_type()
        elif opcode in ("vstore", "scatter"):
            operand()
            while self.accept(","):
                operand()
        elif opcode in REDUCE_OPS or opcode in ("mask_any", "mask_all", "mask_popcnt",
                                                "extractelement", "insertelement", "sad"):
            operand()
            while self.accept(","):
                operand()
            if opcode in REDUCE_OPS:
                rtype = ops[0].type.elem
            elif opcode == "extractelement":
                rtype = ops[0].type.elem
            elif opcode == "insertelement":
                rtype = ops[0].type
            elif opcode == "sad":
                rtype = VectorType(I64, ops[0].type.count // 8)
            elif opcode == "mask_popcnt":
                rtype = I64
            else:
                rtype = I1
        else:
            raise IRParseError(f"unknown opcode {opcode!r}")
        for key in BATCH_FORM_ATTRS:
            if self.accept(key):
                attrs[key] = int(self.advance()[1])
        if "segments" in attrs:
            # Per-gang forms: a reduction yields one lane per segment; an
            # atomic folds its per-gang lanes and returns the cell's type.
            if opcode in REDUCE_OPS:
                rtype = VectorType(rtype, attrs["segments"])
            elif opcode == "atomicrmw" and isinstance(rtype, VectorType):
                rtype = rtype.elem

        instr = Instruction(opcode, rtype, ops, "", attrs)
        for idx, ref in late:
            self.fixups.append((instr, idx, ref))
        return instr


def parse_ir(text: str) -> Module:
    """Parse a textual IR module (printer format) and verify it."""
    parser = _Parser(text)
    header = re.search(r";\s*module\s+(\S+)", text)
    if header:
        parser.module.name = header.group(1)
    return parser.parse_module()
