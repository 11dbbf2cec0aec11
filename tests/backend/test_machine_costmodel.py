"""Unit tests for the machine model and cycle cost model."""

import pytest

from repro.backend import AVX2, AVX512, SSE4, CostModel, Machine
from repro.ir import (
    I1,
    I8,
    I32,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    PointerType,
    VectorType,
)


def test_legalization_factors():
    assert AVX512.legalize_factor(VectorType(I32, 16)) == 1  # 512b exactly
    assert AVX512.legalize_factor(VectorType(I32, 64)) == 4  # 2048b -> 4 ops
    assert AVX512.legalize_factor(VectorType(I8, 64)) == 1  # 512b of bytes
    assert AVX2.legalize_factor(VectorType(I32, 16)) == 2
    assert SSE4.legalize_factor(VectorType(I32, 16)) == 4
    # masks live in predicate registers
    assert AVX512.legalize_factor(VectorType(I1, 64)) == 1


def test_native_lane_counts():
    assert AVX512.lanes(8) == 64
    assert AVX512.lanes(32) == 16
    assert SSE4.lanes(32) == 4


def test_gather_costs_order_of_magnitude_more_than_packed():
    """The §4.2.2 claim the memory selection logic exists for."""
    f = Function("t", FunctionType(I32, (PointerType(I32),)), ["p"])
    b = IRBuilder(f, f.add_block("entry"))
    mask = b.all_ones_mask(16)
    packed = b.vload(f.args[0], 16, mask)
    base = b.broadcast(b.ptrtoint(f.args[0]), 16)
    ptrs = b.inttoptr(base, VectorType(PointerType(I32), 16))
    gathered = b.gather(ptrs, mask)
    model = CostModel()
    assert model.cost(gathered, AVX512) >= 8 * model.cost(packed, AVX512)


def test_wide_vector_ops_pay_legalization():
    f = Function("t", FunctionType(I32, ()), [])
    b = IRBuilder(f, f.add_block("entry"))
    narrow = b.add(b.splat_const(I32, 1, 16), b.splat_const(I32, 2, 16))
    wide = b.add(b.splat_const(I32, 1, 64), b.splat_const(I32, 2, 64))
    model = CostModel()
    assert model.cost(wide, AVX512) == 4 * model.cost(narrow, AVX512)


def test_division_is_expensive():
    f = Function("t", FunctionType(I32, (I32, I32)), ["a", "b"])
    b = IRBuilder(f, f.add_block("entry"))
    add = b.add(f.args[0], f.args[1])
    div = b.udiv(f.args[0], f.args[1])
    model = CostModel()
    assert model.cost(div, AVX512) >= 10 * model.cost(add, AVX512)


def test_custom_machine_widths():
    m = Machine(name="sve1024", vector_bits=1024)
    assert m.lanes(8) == 128
    assert m.legalize_factor(VectorType(I8, 64)) == 1


def test_suggest_batch_factor_honors_machine():
    """Regression: the ``machine`` parameter must cap the batched width at
    ``MAX_LEGALIZE_OPS`` machine ops — it used to be accepted and ignored."""
    from repro.backend.costmodel import (
        MAX_LEGALIZE_OPS,
        TARGET_BATCHED_LANES,
        suggest_batch_factor,
    )

    # AVX-512's cap (16 ops x 16 f32 lanes = 256) equals the calibrated
    # lane target, so the default machine keeps the historical answer.
    assert suggest_batch_factor(8) == suggest_batch_factor(8, AVX512) == 32
    assert MAX_LEGALIZE_OPS * AVX512.lanes(32) == TARGET_BATCHED_LANES

    # Narrower machines scale the cap down proportionally.
    assert suggest_batch_factor(8, AVX2) == 16   # 8*16 = 128 lanes
    assert suggest_batch_factor(8, SSE4) == 8    # 8*8  =  64 lanes
    for machine in (AVX512, AVX2, SSE4):
        cap = min(TARGET_BATCHED_LANES, MAX_LEGALIZE_OPS * machine.lanes(32))
        for gang in (2, 4, 8, 16, 32):
            assert gang * suggest_batch_factor(gang, machine) <= cap

    # Non-power-of-two and degenerate gangs still mean "don't batch".
    assert suggest_batch_factor(12, AVX2) == 1
    assert suggest_batch_factor(0, SSE4) == 1


def test_straight_line_gang_loops_get_twice_the_lane_target():
    """The one bit of loop shape the cost model sees: a gang loop with no
    loop inside wastes no lane on divergence and batches to 512 lanes;
    the machine cap scales alike."""
    from repro.backend.costmodel import (
        TARGET_BATCHED_LANES,
        TARGET_STRAIGHT_LINE_LANES,
        suggest_batch_factor,
    )

    assert TARGET_STRAIGHT_LINE_LANES == 2 * TARGET_BATCHED_LANES == 512
    for gang in (2, 4, 8, 16, 32, 64, 128, 256):
        wide = suggest_batch_factor(gang, straight_line=True)
        assert wide == 2 * suggest_batch_factor(gang)
        assert gang * wide == TARGET_STRAIGHT_LINE_LANES
        for machine, lanes in ((AVX512, 512), (AVX2, 256), (SSE4, 128)):
            factor = suggest_batch_factor(gang, machine, straight_line=True)
            assert factor == max(1, lanes // gang)
    assert suggest_batch_factor(512, straight_line=True) == 1
    assert suggest_batch_factor(12, straight_line=True) == 1


def test_batch_module_reads_the_loop_shape():
    """A flat gang loop batches to 512 lanes, one with a divergent inner
    loop to 256; a forced factor overrides both."""
    from repro.driver import compile_parsimony

    flat = """
    void kernel(u8* a, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            a[i] = a[i] + (u8)1;
        }
    }
    """
    looping = """
    void kernel(u32* a, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            u32 x = a[i];
            while (x > (u32)3) { x = x >> (u32)1; }
            a[i] = x;
        }
    }
    """
    assert compile_parsimony(flat).attrs["batch_factor"] == 8
    assert compile_parsimony(looping).attrs["batch_factor"] == 4
    assert compile_parsimony(flat, batch_request=2).attrs["batch_factor"] == 2
    assert compile_parsimony(looping, batch_request=16) \
        .attrs["batch_factor"] == 16
