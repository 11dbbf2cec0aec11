"""Verifier rejection matrix: deliberately malformed modules, each refused
with a diagnostic that names the right invariant and location.

The malformed IR is constructed behind the builder's back (raw
``Instruction`` objects appended to blocks) because the builder itself
refuses most of these shapes — the verifier is the last line of defense
for exactly the IR a buggy pass could produce.
"""

import pytest

from repro.diagnostics import CompileError, Diagnostic
from repro.ir import (
    F32,
    I1,
    I32,
    I64,
    VOID,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    VectorType,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.ir.instructions import Instruction
from repro.ir.values import UndefValue


def _append_raw(block, instr):
    """Insert without builder validation (what a buggy pass could do)."""
    block.instructions.append(instr)
    instr.parent = block
    return instr


def _void_function(name="f"):
    f = Function(name, FunctionType(VOID, (I32,)), ["a"])
    entry = f.add_block("entry")
    return f, entry


def test_use_before_def_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    x = b.add(f.args[0], f.args[0], "x")
    b.ret()
    # Move the use *above* the definition within the block.
    y = Instruction("add", I32, [x, x], "y")
    entry.instructions.insert(0, y)
    y.parent = entry
    with pytest.raises(VerificationError, match="used before definition"):
        verify_function(f)


def test_bad_phi_arity_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    body = b.new_block("body")
    b.br(body)
    bad_phi = Instruction("phi", I32, [Constant(I32, 1), entry, Constant(I32, 2)], "p")
    _append_raw(body, bad_phi)
    b.position_at_end(body)
    b.ret()
    with pytest.raises(VerificationError, match="phi.*odd operand count"):
        verify_function(f)


def test_phi_value_slot_holding_block_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    body = b.new_block("body")
    b.br(body)
    bad_phi = Instruction("phi", I32, [entry, entry], "p")
    _append_raw(body, bad_phi)
    b.position_at_end(body)
    b.ret()
    with pytest.raises(VerificationError, match="phi.*value slot"):
        verify_function(f)


def test_phi_incoming_not_matching_preds_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    body = b.new_block("body")
    stranger = b.new_block("stranger")
    b.br(body)
    phi = Instruction("phi", I32, [Constant(I32, 1), stranger], "p")
    _append_raw(body, phi)
    b.position_at_end(body)
    b.ret()
    b.position_at_end(stranger)
    b.ret()
    with pytest.raises(VerificationError, match="phi.*incoming"):
        verify_function(f)


def test_unterminated_block_rejected():
    f, entry = _void_function()
    _append_raw(entry, Instruction("add", I32, [f.args[0], f.args[0]], "x"))
    with pytest.raises(VerificationError, match="lacks a terminator"):
        verify_function(f)


def test_terminator_mid_block_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    b.ret()
    _append_raw(entry, Instruction("add", I32, [f.args[0], f.args[0]], "x"))
    _append_raw(entry, Instruction("ret", VOID, []))
    with pytest.raises(VerificationError, match="terminator mid-block"):
        verify_function(f)


def test_wrong_mask_type_rejected():
    f = Function("f", FunctionType(VOID, (PointerType(F32),)), ["p"])
    entry = f.add_block("entry")
    b = IRBuilder(f, entry)
    bad_mask = UndefValue(VectorType(I32, 8), "m")  # i32 lanes, not i1
    vld = Instruction("vload", VectorType(F32, 8), [f.args[0], bad_mask], "v")
    _append_raw(entry, vld)
    b.ret()
    with pytest.raises(VerificationError, match="mask is not a <N x i1>"):
        verify_function(f)


def test_mask_lane_count_mismatch_rejected():
    f = Function("f", FunctionType(VOID, (PointerType(F32),)), ["p"])
    entry = f.add_block("entry")
    b = IRBuilder(f, entry)
    narrow_mask = UndefValue(VectorType(I1, 4), "m")  # 4 lanes under 8 data
    vld = Instruction("vload", VectorType(F32, 8), [f.args[0], narrow_mask], "v")
    _append_raw(entry, vld)
    b.ret()
    with pytest.raises(VerificationError, match="lane-count mismatch"):
        verify_function(f)


def test_mask_reduction_operand_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    not_a_mask = UndefValue(VectorType(I32, 8), "m")
    _append_raw(entry, Instruction("mask_any", I1, [not_a_mask], "any"))
    b.ret()
    with pytest.raises(VerificationError, match="mask_any operand"):
        verify_function(f)


def test_segments_not_dividing_the_lane_count_rejected():
    """A per-gang ``segments`` attr (gang batching) must split the lanes
    evenly: 12 lanes are not 8 segments."""
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    src = UndefValue(VectorType(I32, 12), "v")
    _append_raw(entry, Instruction("reduce_add", VectorType(I32, 8), [src], "r",
                                   {"segments": 8}))
    b.ret()
    with pytest.raises(VerificationError, match="not divisible by its segments"):
        verify_function(f)


def test_row_stride_below_its_row_rejected():
    """A row-strided access's rows may not overlap: 4 rows of 8 f32 lanes
    (32 bytes each) need a stride of at least 32."""
    f = Function("f", FunctionType(VOID, (PointerType(F32),)), ["p"])
    entry = f.add_block("entry")
    b = IRBuilder(f, entry)
    mask = Constant(VectorType(I1, 32), [1] * 32)
    vld = Instruction("vload", VectorType(F32, 32), [f.args[0], mask], "v",
                      {"segments": 4, "row_stride": 16})
    _append_raw(entry, vld)
    b.ret()
    with pytest.raises(VerificationError, match="row stride smaller than its 32-byte row"):
        verify_function(f)
    vld.attrs["row_stride"] = 32
    verify_function(f)


def test_scatter_add_mask_of_another_width_rejected():
    """A scatter-add (gang batching's serialized atomic: ``atomicrmw`` on a
    vector of addresses) takes one mask lane per address."""
    f = Function("f", FunctionType(VOID, (PointerType(I32),)), ["p"])
    entry = f.add_block("entry")
    b = IRBuilder(f, entry)
    addrs = UndefValue(VectorType(PointerType(I32), 8), "a")
    mask = UndefValue(VectorType(I1, 4), "m")
    add = _append_raw(entry, Instruction(
        "atomicrmw", VOID, [addrs, Constant(I32, 1), mask], "",
        {"op": "add", "segments": 2}))
    b.ret()
    with pytest.raises(VerificationError, match="scatter-add must add"):
        verify_function(f)
    add.set_operand(2, UndefValue(VectorType(I1, 8), "m"))
    verify_function(f)


def test_select_vector_cond_count_mismatch_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    cond = UndefValue(VectorType(I1, 4), "c")
    vecs = UndefValue(VectorType(I32, 8), "v")
    _append_raw(entry, Instruction("select", VectorType(I32, 8), [cond, vecs, vecs], "s"))
    b.ret()
    with pytest.raises(VerificationError, match="select mask"):
        verify_function(f)


def test_condbr_non_i1_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    body = b.new_block("body")
    _append_raw(entry, Instruction("condbr", VOID, [f.args[0], body, body]))
    b.position_at_end(body)
    b.ret()
    with pytest.raises(VerificationError, match="condbr condition not i1"):
        verify_function(f)


def test_icmp_operand_mismatch_rejected():
    f, entry = _void_function()
    b = IRBuilder(f, entry)
    _append_raw(
        entry,
        Instruction("icmp", I1, [f.args[0], Constant(I64, 0)], "c", {"pred": "eq"}),
    )
    b.ret()
    with pytest.raises(VerificationError, match="icmp operand type mismatch"):
        verify_function(f)


def test_diagnostic_carries_location():
    f, entry = _void_function("located")
    _append_raw(entry, Instruction("add", I32, [f.args[0], f.args[0]], "x"))
    with pytest.raises(VerificationError) as excinfo:
        verify_function(f)
    diag = excinfo.value.diagnostic
    assert isinstance(diag, Diagnostic)
    assert diag.stage == "verifier"
    assert diag.function == "located"
    assert isinstance(excinfo.value, CompileError)


def test_verify_module_skips_declarations():
    module = Module("m")
    f, entry = _void_function()
    IRBuilder(f, entry).ret()
    module.add_function(f)
    module.add_function(Function("decl", FunctionType(VOID, ())))  # no blocks
    verify_module(module)
