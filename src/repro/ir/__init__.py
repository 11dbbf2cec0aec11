"""``repro.ir`` — the typed SSA intermediate representation.

This package substitutes for LLVM IR in the reproduction (see DESIGN.md):
types, values, instructions, module containers, a typed builder, CFG
analyses (dominators, natural loops), a printer, and a verifier.
"""

from .types import (
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VectorType,
    VoidType,
)
from .values import Argument, Constant, UndefValue, Value, const_bool, const_int
from .instructions import Instruction
from .module import BasicBlock, ExternalFunction, Function, Module, SpmdInfo
from .builder import IRBuilder
from .cfg import (DominatorTree, Loop, dominance_frontiers, dominator_tree, find_loops,
                  reverse_postorder)
from .printer import format_instruction, print_function, print_module
from .parser import IRParseError, parse_ir
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "Type", "IntType", "FloatType", "PointerType", "VectorType", "VoidType",
    "FunctionType", "I1", "I8", "I16", "I32", "I64", "F32", "F64", "VOID",
    "Value", "Constant", "UndefValue", "Argument", "const_int", "const_bool",
    "Instruction", "BasicBlock", "Function", "ExternalFunction", "Module",
    "SpmdInfo", "IRBuilder", "DominatorTree", "dominator_tree", "dominance_frontiers",
    "find_loops", "Loop", "reverse_postorder", "format_instruction",
    "print_function", "print_module", "parse_ir", "IRParseError",
    "VerificationError", "verify_function", "verify_module",
]
