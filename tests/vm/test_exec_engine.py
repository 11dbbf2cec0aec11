"""Execution-engine tests for this PR's correctness and performance work:

- ``atomicrmw`` op matrix, including the signed ``smin``/``smax`` forms the
  VM previously mis-evaluated through unsigned comparison.
- Budget enforcement inside phi evaluation (previously unmetered, so a
  phi-only spin loop could run forever).
- ``reset_stats`` in-place semantics.
- Pre-decoded engine equivalence: identical results *and* bit-identical
  ``ExecStats`` versus the reference interpreter on the fig4 suite.
"""

import numpy as np
import pytest

from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.driver import compile_parsimony
from repro.ir import (
    I32,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    verify_function,
)
from repro.ir.instructions import ATOMIC_RMW_OPS
from repro.vm import ExecutionLimitExceeded, Interpreter


# -- atomicrmw op matrix ------------------------------------------------------

def _atomic_module(op):
    module = Module("t")
    f = Function(
        "f", FunctionType(I32, (PointerType(I32), I32)), ["ptr", "val"]
    )
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.ret(b.atomicrmw(op, f.args[0], f.args[1]))
    verify_function(f)
    return module, f


NEG5 = -5 & 0xFFFFFFFF

# (op, memory-before, operand, memory-after).  The smin/smax rows pit a
# negative cell against a small positive operand, so an unsigned compare
# gives the wrong answer on both.
ATOMIC_CASES = [
    ("add", 10, 7, 17),
    ("sub", 10, 7, 3),
    ("and", 0b1100, 0b1010, 0b1000),
    ("or", 0b1100, 0b1010, 0b1110),
    ("xor", 0b1100, 0b1010, 0b0110),
    ("umax", 5, NEG5, NEG5),
    ("umin", 5, NEG5, 5),
    ("smax", NEG5, 3, 3),
    ("smin", NEG5, 3, NEG5),
]


def test_atomic_cases_cover_every_rmw_op():
    assert {case[0] for case in ATOMIC_CASES} == set(ATOMIC_RMW_OPS)


@pytest.mark.parametrize("predecode", [True, False], ids=["decoded", "reference"])
@pytest.mark.parametrize("op,before,operand,after", ATOMIC_CASES,
                         ids=[c[0] for c in ATOMIC_CASES])
def test_atomicrmw_matrix(op, before, operand, after, predecode):
    module, f = _atomic_module(op)
    interp = Interpreter(module, predecode=predecode)
    addr = interp.memory.alloc_array(np.array([before], dtype=np.uint32))
    old = interp.run(f, addr, operand)
    assert old == before, f"{op}: must return the pre-update value"
    cell = interp.memory.read_array(addr, np.uint32, 1)[0]
    assert cell == after, f"{op}: wrong read-modify-write result"


def test_builder_rejects_unknown_atomic_op():
    module = Module("t")
    f = Function(
        "f", FunctionType(I32, (PointerType(I32), I32)), ["ptr", "val"]
    )
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    with pytest.raises(ValueError, match="atomicrmw.*nand"):
        b.atomicrmw("nand", f.args[0], f.args[1])


SIGNED_ATOMIC_SRC = """
void kernel(i32* acc, i32* vals, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        i32 v = vals[i];
        psim_atomic_smin(&acc[0], v);
        psim_atomic_smax(&acc[1], v);
    }
}
"""


def test_frontend_signed_atomic_intrinsics():
    """psim_atomic_smin/smax reduce signed extrema across the gang."""
    module = compile_parsimony(SIGNED_ATOMIC_SRC)
    interp = Interpreter(module)
    acc = np.array([100, -100], dtype=np.int32)
    vals = np.array([-4, -1, 3, 2, 0, -2, 1, -3], dtype=np.int32)
    acc_addr = interp.memory.alloc_array(acc)
    vals_addr = interp.memory.alloc_array(vals)
    interp.run("kernel", acc_addr, vals_addr, vals.size)
    out = interp.memory.read_array(acc_addr, np.int32, 2)
    np.testing.assert_array_equal(out, [-4, 3])


# -- phi budget enforcement ---------------------------------------------------

def _spin_module():
    """while (1) i = phi(...) — every dynamic instruction is a phi or br."""
    module = Module("t")
    f = Function("spin", FunctionType(I32, ()), [])
    module.add_function(f)
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    b = IRBuilder(f, entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I32, "i")
    b.br(loop)
    i.append_operand(Constant(I32, 0))
    i.append_operand(entry)
    i.append_operand(i)
    i.append_operand(loop)
    verify_function(f)
    return module, f


@pytest.mark.parametrize("predecode", [True, False], ids=["decoded", "reference"])
def test_phi_loop_hits_instruction_budget(predecode):
    module, f = _spin_module()
    limit = 50
    interp = Interpreter(module, max_instructions=limit, predecode=predecode)
    with pytest.raises(ExecutionLimitExceeded, match="@spin"):
        interp.run(f)
    # The budget check runs after every charge, phis included, so the trap
    # fires on exactly the first instruction past the limit.
    assert interp.stats.instructions == limit + 1


# -- reset_stats --------------------------------------------------------------

def test_reset_stats_zeroes_in_place():
    module, f = _atomic_module("add")
    interp = Interpreter(module)
    stats = interp.stats

    addr = interp.memory.alloc_array(np.array([0], dtype=np.uint32))
    interp.run(f, addr, 1)
    first = (stats.cycles, stats.instructions, dict(stats.counts))
    assert first[1] > 0

    returned = interp.reset_stats()
    assert returned is stats, "reset must mutate, not replace, the stats object"
    assert interp.stats is stats
    assert (stats.cycles, stats.instructions, stats.counts) == (0.0, 0, {})
    assert interp.hotspots() == []

    interp.run(f, addr, 1)
    second = (stats.cycles, stats.instructions, dict(stats.counts))
    assert second == first, "a reset run must re-measure from zero"


# -- pre-decoded vs reference equivalence on the fig4 suite -------------------

@pytest.mark.parametrize("impl", ["scalar", "autovec", "parsimony", "ispc"])
@pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda s: s.name)
def test_predecode_matches_reference(spec, impl):
    """All three engines — codegen, pre-decoded, reference — must produce
    bit-identical outputs and bit-identical ``ExecStats``."""
    from repro.benchsuite.runner import build_impl

    module = build_impl(spec, impl)
    codegen = run_impl(spec, impl, module=module)
    decoded = run_impl(spec, impl, module=module, codegen=False)
    slow = run_impl(spec, impl, module=module, predecode=False)

    for fast in (codegen, decoded):
        assert fast.stats.cycles == slow.stats.cycles
        assert fast.stats.instructions == slow.stats.instructions
        assert fast.stats.counts == slow.stats.counts
        assert len(fast.outputs) == len(slow.outputs)
        for got, want in zip(fast.outputs, slow.outputs):
            np.testing.assert_array_equal(got, want)
        if fast.returned is not None or slow.returned is not None:
            np.testing.assert_array_equal(
                np.asarray(fast.returned), np.asarray(slow.returned)
            )
