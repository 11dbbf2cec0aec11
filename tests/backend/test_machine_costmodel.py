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


def test_suggest_batch_factor_takes_no_machine():
    """The batch factor depends on the gang size alone: the machine cap
    and the loop-shape bit are deleted, so neither function takes them."""
    import inspect

    from repro.backend import batch, costmodel

    assert list(inspect.signature(costmodel.suggest_batch_factor)
                .parameters) == ["gang_size"]
    assert list(inspect.signature(batch.select_batch_factor)
                .parameters) == ["gang_size", "requested"]
    assert not hasattr(costmodel, "MAX_LEGALIZE_OPS")
    # Non-power-of-two and degenerate gangs still mean "don't batch".
    assert costmodel.suggest_batch_factor(12) == 1
    assert costmodel.suggest_batch_factor(0) == 1


def test_one_lane_target_for_every_gang():
    """Every power-of-two gang below the target batches to exactly 1024
    lanes; a gang at or past it does not batch."""
    from repro.backend import costmodel

    assert costmodel.TARGET_BATCHED_LANES == 1024
    assert not hasattr(costmodel, "TARGET_STRAIGHT_LINE_LANES")
    for gang in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        assert gang * costmodel.suggest_batch_factor(gang) == 1024
    for gang in (1024, 2048):
        assert costmodel.suggest_batch_factor(gang) == 1


def test_one_lane_target_whatever_the_loop_shape():
    """A gang loop batches to the one target whether or not its body
    holds a loop; a forced factor overrides it."""
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
    assert compile_parsimony(flat).attrs["batch_factor"] == 16
    assert compile_parsimony(looping).attrs["batch_factor"] == 16
    assert compile_parsimony(flat, batch_request=2).attrs["batch_factor"] == 2
    assert compile_parsimony(looping, batch_request=4) \
        .attrs["batch_factor"] == 4
