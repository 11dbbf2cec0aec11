"""Textual IR printer (LLVM-flavoured) for debugging, tests, and goldens."""

from __future__ import annotations

from typing import List

from .instructions import Instruction
from .module import BasicBlock, ExternalFunction, Function, Module
from .values import Argument, Constant, UndefValue, Value

__all__ = ["print_module", "print_function", "format_instruction", "format_value"]


def format_value(value: Value) -> str:
    """Render a value reference as it appears in an operand position."""
    if isinstance(value, Constant):
        if value.type.is_vector:
            lanes = ", ".join(str(v) for v in value.as_signed())
            return f"{value.type} <{lanes}>"
        return f"{value.type} {value.as_signed()}"
    if isinstance(value, UndefValue):
        return f"{value.type} undef"
    if isinstance(value, BasicBlock):
        return f"label %{value.name}"
    if isinstance(value, (Function, ExternalFunction)):
        return f"@{value.name}"
    return f"{value.type} %{value.name}"


def _format_bare(value: Value) -> str:
    """Render a value reference without its type (phi incoming position)."""
    if isinstance(value, Constant):
        if value.type.is_vector:
            return "<" + ", ".join(str(v) for v in value.as_signed()) + ">"
        return str(value.as_signed())
    if isinstance(value, UndefValue):
        return "undef"
    return f"%{value.name}"


#: Gang-batching attrs (see :mod:`repro.backend.batch`), printed after
#: the instruction as ``name value`` pairs: per-gang ``segments``, the
#: byte ``row_stride`` of a row-strided ``vload``/``vstore``, and the
#: ``private`` row count and ``row_bytes`` of an access to per-gang
#: expanded storage.
BATCH_FORM_ATTRS = ("segments", "row_stride", "private", "row_bytes")


def format_instruction(instr: Instruction) -> str:
    text = _format_instruction(instr)
    attrs = instr.attrs
    for key in BATCH_FORM_ATTRS:
        if key in attrs:
            text += f" {key} {attrs[key]}"
    return text


def _format_instruction(instr: Instruction) -> str:
    ops = instr.operands
    attrs = instr.attrs

    def operand_list(items) -> str:
        return ", ".join(format_value(o) for o in items)

    lhs = "" if instr.type.is_void else f"%{instr.name} = "

    if instr.opcode == "phi":
        pairs = ", ".join(
            f"[ {_format_bare(v)}, %{b.name} ]" for v, b in instr.phi_incoming()
        )
        return f"{lhs}phi {instr.type} {pairs}"
    if instr.opcode in ("icmp", "fcmp"):
        return f"{lhs}{instr.opcode} {attrs['pred']} {operand_list(ops)}"
    if instr.opcode == "call":
        callee, *args = ops
        return f"{lhs}call {instr.type} @{callee.name}({operand_list(args)})"
    if instr.opcode == "alloca":
        return f"{lhs}alloca {instr.type.pointee} x {attrs.get('count', 1)}"
    if instr.opcode == "atomicrmw":
        return f"{lhs}atomicrmw {attrs['op']} {operand_list(ops)} {attrs.get('ordering', '')}".rstrip()
    if instr.opcode == "ret" and not ops:
        return "ret void"
    body = f"{instr.opcode} {operand_list(ops)}" if ops else instr.opcode
    if not instr.type.is_void and instr.is_cast:
        body += f" to {instr.type}"
    elif instr.opcode in ("vload", "gather", "broadcast", "shuffle", "shuffle2"):
        body += f" -> {instr.type}"
    return lhs + body


def print_function(function: Function) -> str:
    lines: List[str] = []
    args = ", ".join(f"{a.type} %{a.name}" for a in function.args)
    header = f"define {function.return_type} @{function.name}({args})"
    if function.spmd is not None:
        header += f" !{function.spmd!r}"
    lines.append(header + " {")
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instructions:
            lines.append(f"  {format_instruction(instr)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    parts = [f"; module {module.name}"]
    for ext in module.externals.values():
        params = ", ".join(map(repr, ext.ftype.params))
        parts.append(f"declare {ext.ftype.ret} @{ext.name}({params})")
    for function in module.functions.values():
        parts.append(print_function(function))
    return "\n\n".join(parts)
