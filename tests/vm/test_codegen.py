"""Whole-kernel codegen engine tests (issue 8).

The codegen engine (``repro.backend.codegen``) linearizes a vectorized
kernel's structurized CFG into ONE generated Python function and retires
the per-block dispatch loop.  Its contract is accounting transparency:
bit-identical outputs, memory images, and ``ExecStats`` (cycles,
instruction counts, per-opcode tallies, per-function attribution) versus
the other tiers — reference and predecoded, batched and unbatched — for
completed runs, and exact trap-point state via wholesale replay on the
predecoded twin for trapped runs.

Covered here:

- fig4-wide bitwise matrix: codegen vs reference / predecoded, on the
  batched and the unbatched build;
- mid-kernel budget-trap replay (trap identity, trap-point stats, and
  memory bitwise vs the decoded engine, plus the replay counter), and
  the replay twin being dropped by ``clear_decode_cache``;
- mask-seam kernels: nested divergent loops, break/continue lowering,
  masked early exit, and an IR-level early ``ret`` under a branch;
- fault injection at the ``codegen`` site (bails to the decoded engine);
- disk-cache rehydration of the generated source in a child process.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import diskcache
from repro.backend import codegen as cg
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.runner import _GUARD_BYTES
from repro.driver import clear_compile_cache, compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.ir import (
    I32,
    BasicBlock,
    Constant,
    Function,
    FunctionType,
    Instruction,
    IRBuilder,
    Module,
    UndefValue,
    verify_function,
)
from repro.vm import ExecutionLimitExceeded, Interpreter


def _run_workload(module, workload, **kw):
    """Run ``kernel`` on a benchsuite workload; returns (interp, snapshot)."""
    interp = Interpreter(module, **kw)
    addrs = []
    for array in workload.arrays:
        addrs.append(interp.memory.alloc_array(array))
        interp.memory.alloc(_GUARD_BYTES)
    interp.reset_stats()
    ret = interp.run("kernel", *addrs, *workload.scalars)
    return interp, _snapshot(interp, ret)


def _snapshot(interp, ret):
    s = interp.stats
    return {
        "mem": interp.memory.image(),
        "ret": None if ret is None else np.asarray(ret).copy(),
        "cycles": s.cycles,
        "instructions": s.instructions,
        "counts": dict(s.counts),
        "func_cycles": dict(interp.func_cycles),
        "func_calls": dict(interp.func_calls),
        "edge_cycles": dict(interp.edge_cycles),
        "edge_calls": dict(interp.edge_calls),
    }


def _assert_bitwise(got, want, context):
    for key in ("cycles", "instructions", "counts", "func_cycles",
                "func_calls", "edge_cycles", "edge_calls"):
        assert got[key] == want[key], f"{context}: {key} diverges"
    np.testing.assert_array_equal(got["mem"], want["mem"],
                                  err_msg=f"{context}: memory image")
    assert (got["ret"] is None) == (want["ret"] is None), context
    if got["ret"] is not None:
        np.testing.assert_array_equal(got["ret"], want["ret"],
                                      err_msg=f"{context}: return value")


# -- fig4-wide bitwise matrix -------------------------------------------------

@pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda s: s.name)
def test_codegen_matches_every_engine_on_fig4(spec):
    """Outputs, memory, ExecStats, and attribution bitwise across
    reference / predecoded / codegen × batched / unbatched; the codegen
    engine must actually compile (no bailouts)."""
    workload = spec.workload()
    want = None
    for build, request in (("batched", None), ("unbatched", 0)):
        module = compile_parsimony(
            spec.psim_src, module_name=f"{spec.name}.parsimony",
            batch_request=request)
        _, ref = _run_workload(module, workload, predecode=False)
        if want is None:
            want = ref
        _assert_bitwise(ref, want, f"{spec.name}: {build} vs batched reference")
        _, got = _run_workload(module, workload, codegen=False)
        _assert_bitwise(got, want, f"{spec.name}: {build} predecoded")
        interp, got = _run_workload(module, workload)
        report = interp.codegen_report()
        assert not report["bailouts"], f"{spec.name}: {report['bailouts']}"
        assert report["calls"] > 0, f"{spec.name}: codegen never engaged"
        _assert_bitwise(got, want, f"{spec.name}: {build} codegen")


# -- ownership: interpreters die by reference counting ------------------------

@pytest.mark.parametrize("engine", ["codegen", "predecoded"])
@pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda s: s.name)
def test_interpreter_is_reclaimed_without_the_cyclic_collector(spec, engine):
    """Nothing an interpreter owns (generated functions, decoded thunks,
    the replay twin) may own it back: with the collector off, dropping
    the last reference must free the ``Interpreter`` and its ``Memory``
    at once — after a clean run and after a trap replay."""
    module = compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    workload = spec.workload()
    kw = {} if engine == "codegen" else {"codegen": False}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for budget in (None, 400):
            if budget is not None:
                kw["max_instructions"] = budget
            interp = Interpreter(module, **kw)
            addrs = []
            for array in workload.arrays:
                addrs.append(interp.memory.alloc_array(array))
                interp.memory.alloc(_GUARD_BYTES)
            if budget is None:
                interp.run("kernel", *addrs, *workload.scalars)
            else:
                with pytest.raises(ExecutionLimitExceeded):
                    interp.run("kernel", *addrs, *workload.scalars)
                replays = (interp.batch_replays
                           + interp.codegen_report()["replays"])
                # Predecoded replays only a batched build (on its twin).
                assert replays == (engine == "codegen"
                                   or "unbatched_recipe" in module.attrs)
            alive = weakref.ref(interp), weakref.ref(interp.memory)
            del interp
            assert [ref() for ref in alive] == [None, None], (
                f"{spec.name}/{engine}/budget={budget}: a reference cycle "
                "keeps the interpreter alive")
    finally:
        if was_enabled:
            gc.enable()


# -- mid-kernel budget-trap replay --------------------------------------------

TRAP_SRC = """
void kernel(f32* OUT, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = 0.0f;
        i32 k = 0;
        while (k < 200) {
            x = x + 1.0f + (f32)k;
            k = k + 1;
        }
        OUT[i] = x;
    }
}
"""


def test_budget_trap_replays_on_predecoded_twin():
    """A mid-kernel budget trap under codegen must replay wholesale on the
    predecoded twin: trap identity, trap-point stats, and memory all match
    the decoded engine bit-for-bit (the block-merged charges alone would
    only be approximate at the trap point)."""
    module = compile_parsimony(TRAP_SRC)
    out = np.zeros(37, np.float32)

    def trap_run(codegen):
        interp = Interpreter(module, max_instructions=500, codegen=codegen)
        addr = interp.memory.alloc_array(out)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("kernel", addr, 37)
        return interp

    decoded = trap_run(False)
    compiled = trap_run(True)
    assert compiled.codegen_stats["replays"] == 1
    # Trap fires on exactly the first instruction past the budget, and the
    # replayed trap point matches the decoded engine's bitwise.
    assert decoded.stats.instructions == 501
    assert compiled.stats.instructions == decoded.stats.instructions
    assert compiled.stats.cycles == decoded.stats.cycles
    assert dict(compiled.stats.counts) == dict(decoded.stats.counts)
    np.testing.assert_array_equal(
        compiled.memory.image(), decoded.memory.image()
    )


def test_clear_decode_cache_drops_the_replay_twin():
    """The twin decodes the module into its own caches; after a module
    mutation + ``clear_decode_cache()`` a replayed trap must report the
    *new* instructions, as the reference engine does."""
    def build():
        module = Module("t")
        f = Function("f", FunctionType(I32, (I32, I32)), ["x", "y"])
        module.add_function(f)
        b = IRBuilder(f, f.add_block("entry"))
        b.ret(b.binop("mul", b.binop("add", f.args[0], f.args[1]), f.args[1]))
        verify_function(f)
        return module

    def trap_twice(**kw):
        module = build()
        interp = Interpreter(module, max_instructions=2, **kw)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("f", 3, 5)
        body = module.functions["f"].blocks[0].instructions
        body[0].opcode, body[1].opcode = "sub", "xor"
        interp.clear_decode_cache()
        interp.reset_stats()
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("f", 3, 5)
        return dict(interp.stats.counts)

    want = trap_twice(predecode=False)
    assert want == {"sub": 1, "xor": 1, "ret": 1}
    assert trap_twice(codegen=True) == want
    assert trap_twice(codegen=False) == want


def test_default_engine_is_codegen():
    module = compile_parsimony(TRAP_SRC)
    assert Interpreter(module).codegen is True
    assert Interpreter(module, codegen=False).codegen is False
    # Codegen rides on predecode: the reference engine never arms it.
    assert Interpreter(module, predecode=False).codegen is False


def test_completed_run_does_not_replay():
    module = compile_parsimony(TRAP_SRC)
    interp = Interpreter(module)
    addr = interp.memory.alloc_array(np.zeros(37, np.float32))
    interp.run("kernel", addr, 37)
    report = interp.codegen_report()
    assert report["replays"] == 0
    assert report["calls"] > 0 and not report["bailouts"]


# -- mask-seam kernels --------------------------------------------------------

NESTED_DIVERGENT_SRC = """
void kernel(i32* A, i32* OUT, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        i32 v = A[i];
        i32 acc = 0;
        i32 j = 0;
        while (j < abs(v % 5) + 1) {
            i32 k = 0;
            while (k < abs((v + j) % 3) + 1) {
                acc = acc + k * j + 1;
                k = k + 1;
            }
            j = j + 1;
        }
        OUT[i] = acc;
    }
}
"""

BREAK_CONTINUE_SRC = """
void kernel(i32* A, i32* OUT, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        i32 v = A[i];
        i32 acc = 0;
        i32 j = 0;
        while (j < 16) {
            j = j + 1;
            if ((v + j) % 3 == 0) {
                continue;
            }
            if (j > abs(v % 7) + 2) {
                break;
            }
            acc = acc + j;
        }
        OUT[i] = acc + j * 100;
    }
}
"""

MASKED_EARLY_EXIT_SRC = """
void kernel(i32* A, i32* OUT, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        i32 v = A[i];
        if (v < 0) {
            OUT[i] = -1;
        } else {
            i32 acc = 0;
            i32 k = 0;
            while (k < v % 9 + 1) {
                acc = acc + k * k;
                k = k + 1;
            }
            OUT[i] = acc;
        }
    }
}
"""

_SEAM_IDS = ["nested-divergent-loops", "break-continue", "masked-early-exit"]


@pytest.mark.parametrize(
    "source", [NESTED_DIVERGENT_SRC, BREAK_CONTINUE_SRC,
               MASKED_EARLY_EXIT_SRC], ids=_SEAM_IDS)
def test_mask_seam_kernels_bitwise(source):
    """Divergence seams — nested divergent loops, continue/break lowering,
    masked early exit — must not perturb outputs or accounting."""
    module = compile_parsimony(source)
    rng = np.random.default_rng(7)
    A = rng.integers(-40, 41, 37).astype(np.int32)

    def run(codegen):
        interp = Interpreter(module, codegen=codegen)
        a = interp.memory.alloc_array(A)
        o = interp.memory.alloc_array(np.zeros(37, np.int32))
        interp.run("kernel", a, o, 37)
        return (interp, interp.memory.read_array(o, np.int32, 37))

    ref, ref_out = run(False)
    got, got_out = run(True)
    assert not got.codegen_report()["bailouts"], got.codegen_report()
    np.testing.assert_array_equal(got_out, ref_out)
    assert got.stats.cycles == ref.stats.cycles
    assert got.stats.instructions == ref.stats.instructions
    assert dict(got.stats.counts) == dict(ref.stats.counts)


def _early_ret_module():
    """IR-level early return under a branch: ret in one arm, fallthrough
    work in the other — exercises the emitter's ret-under-conditional path
    (no postdominator join to linearize past)."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    entry = f.add_block("entry")
    early = f.add_block("early")
    work = f.add_block("work")
    b = IRBuilder(f, entry)
    cond = b.icmp("slt", f.args[0], Constant(I32, 0))
    b.condbr(cond, early, work)
    b.position_at_end(early)
    b.ret(Constant(I32, -1))
    b.position_at_end(work)
    b.ret(b.binop("mul", f.args[0], Constant(I32, 3)))
    verify_function(f)
    return module, f


@pytest.mark.parametrize("x,expect", [(-5, -1 & 0xFFFFFFFF), (7, 21)],
                         ids=["early-ret", "fallthrough"])
def test_ir_early_return_under_branch(x, expect):
    module, f = _early_ret_module()
    ref = Interpreter(module, codegen=False)
    got = Interpreter(module, codegen=True)
    assert ref.run(f, x) == got.run(f, x) == expect
    assert not got.codegen_report()["bailouts"]
    assert got.stats.cycles == ref.stats.cycles
    assert got.stats.instructions == ref.stats.instructions
    assert dict(got.stats.counts) == dict(ref.stats.counts)


# -- bailout burn-down matrix -------------------------------------------------
#
# Shapes behind the retired bailout reasons (multi-exit-loop,
# multi-level-break/continue, batched-terminator:ret, mixed-batch-body)
# must now compile AND run bitwise-identical to the reference engine;
# reasons kept deliberately (function-too-large, batched-internal-call)
# get pinning tests so retirements stay intentional.


def _run_scalar_pair(module, f, args_list):
    """Run ``f`` through the reference and codegen engines over each arg
    tuple; asserts bitwise-equal results and ExecStats, zero bailouts."""
    ref = Interpreter(module, predecode=False, codegen=False)
    got = Interpreter(module, codegen=True)
    for args in args_list:
        assert ref.run(f, *args) == got.run(f, *args), args
    report = got.codegen_report()
    assert not report["bailouts"], report
    assert report["calls"] > 0, report
    assert got.stats.cycles == ref.stats.cycles
    assert got.stats.instructions == ref.stats.instructions
    assert dict(got.stats.counts) == dict(ref.stats.counts)


def _multi_exit_module():
    """Serial loop with two *distinct* exit blocks — the normal trip-count
    exit plus an early return out of the body — the shape behind the
    retired ``multi-exit-loop`` bailout (now a dispatch-variable merge)."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    latch = f.add_block("latch")
    exit_a = f.add_block("exit_a")
    exit_b = f.add_block("exit_b")
    b = IRBuilder(f, entry)
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I32, "i")
    i.append_operand(Constant(I32, 0))
    i.append_operand(entry)
    b.condbr(b.icmp("ult", i, f.args[0]), body, exit_a)
    b.position_at_end(body)
    b.condbr(b.icmp("eq", i, Constant(I32, 3)), exit_b, latch)
    b.position_at_end(latch)
    nxt = b.binop("add", i, Constant(I32, 1))
    i.append_operand(nxt)
    i.append_operand(latch)
    b.br(header)
    b.position_at_end(exit_a)
    b.ret(b.binop("mul", i, Constant(I32, 2)))
    b.position_at_end(exit_b)
    b.ret(Constant(I32, 777))
    verify_function(f)
    return module, f


def test_multi_exit_loop_retired():
    module, f = _multi_exit_module()
    _run_scalar_pair(module, f, [(0,), (2,), (3,), (9,)])


def _multi_level_module(kind):
    """Nested serial loops where the inner body jumps straight past the
    inner loop — to the function exit (``break``) or back to the *outer*
    header (``continue``) — the shapes behind the retired
    ``multi-level-break``/``multi-level-continue`` bailouts."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    entry = f.add_block("entry")
    oh = f.add_block("outer_header")
    ih = f.add_block("inner_header")
    ibody = f.add_block("inner_body")
    ilatch = f.add_block("inner_latch")
    olatch = f.add_block("outer_latch")
    done = f.add_block("done")
    b = IRBuilder(f, entry)
    b.br(oh)
    b.position_at_end(oh)
    j = b.phi(I32, "j")
    acc = b.phi(I32, "acc")
    j.append_operand(Constant(I32, 0))
    j.append_operand(entry)
    acc.append_operand(Constant(I32, 0))
    acc.append_operand(entry)
    b.condbr(b.icmp("ult", j, f.args[0]), ih, done)
    b.position_at_end(ih)
    k = b.phi(I32, "k")
    acc2 = b.phi(I32, "acc2")
    k.append_operand(Constant(I32, 0))
    k.append_operand(oh)
    acc2.append_operand(acc)
    acc2.append_operand(oh)
    b.condbr(b.icmp("ult", k, j), ibody, olatch)
    b.position_at_end(ibody)
    acc3 = b.binop("add", acc2, Constant(I32, 1))
    escape = b.icmp("eq", b.binop("add", j, k), Constant(I32, 5))
    if kind == "break":
        b.condbr(escape, done, ilatch)
    else:
        j_skip = b.binop("add", j, Constant(I32, 2))
        b.condbr(escape, oh, ilatch)
        j.append_operand(j_skip)
        j.append_operand(ibody)
        acc.append_operand(acc3)
        acc.append_operand(ibody)
    b.position_at_end(ilatch)
    k2 = b.binop("add", k, Constant(I32, 1))
    k.append_operand(k2)
    k.append_operand(ilatch)
    acc2.append_operand(acc3)
    acc2.append_operand(ilatch)
    b.br(ih)
    b.position_at_end(olatch)
    j2 = b.binop("add", j, Constant(I32, 1))
    j.append_operand(j2)
    j.append_operand(olatch)
    acc.append_operand(acc2)
    acc.append_operand(olatch)
    b.br(oh)
    b.position_at_end(done)
    if kind == "break":
        r = b.phi(I32, "r")
        r.append_operand(acc)
        r.append_operand(oh)
        r.append_operand(acc3)
        r.append_operand(ibody)
        b.ret(r)
    else:
        b.ret(acc)
    verify_function(f)
    return module, f


@pytest.mark.parametrize("kind", ["break", "continue"])
def test_multi_level_transfer_retired(kind):
    module, f = _multi_level_module(kind)
    _run_scalar_pair(module, f, [(0,), (1,), (4,), (8,)])


def _annotate(instr, mult):
    """Narrow charge prototype + multiplicity, the way ``backend.batch``
    annotates widened instructions (operand types preserved as undefs)."""
    proto = Instruction(
        instr.opcode, instr.type,
        [UndefValue(op.type) for op in instr.operands
         if not isinstance(op, (BasicBlock, Function))],
    )
    instr.attrs["batch_charges"] = (proto,)
    instr.attrs["batch_mult"] = mult


def _mixed_batched_module():
    """Hand-built batched function whose body mixes annotated and plain
    instructions and ends in an annotated ``ret`` — the shapes behind the
    retired ``mixed-batch-body`` and ``batched-terminator:ret`` bailouts.
    The decoded engine cannot run mixed blocks at all (its batch decode
    requires annotations on every instruction), so the oracle is the
    reference engine, which gates per instruction."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    f.attrs["batched"] = 2
    entry = f.add_block("entry")
    b = IRBuilder(f, entry)
    a = b.binop("add", f.args[0], Constant(I32, 7))
    _annotate(a, 2)
    m = b.binop("mul", a, Constant(I32, 3))  # plain: the mixed body
    r = b.ret(m)
    _annotate(r, 2)
    verify_function(f)
    return module, f


def test_mixed_batch_body_and_batched_ret_retired():
    module, f = _mixed_batched_module()
    _run_scalar_pair(module, f, [(0,), (5,), (41,)])


def test_function_too_large_bailout_pinned(monkeypatch):
    """The size guard stays: an oversized function must bail (not emit a
    pathological source) and still run bitwise via the decoded engine."""
    monkeypatch.setattr(cg, "MAX_CODEGEN_INSTRS", 4)
    module, f = _early_ret_module()
    ref = Interpreter(module, codegen=False)
    got = Interpreter(module, codegen=True)
    assert ref.run(f, 7) == got.run(f, 7)
    assert got.codegen_bailouts == {"function-too-large": 1}
    assert got.codegen_report()["calls"] == 0
    assert got.stats.cycles == ref.stats.cycles
    assert dict(got.stats.counts) == dict(ref.stats.counts)


def _batched_internal_call_module():
    module = Module("t")
    g = Function("g", FunctionType(I32, (I32,)), ["y"])
    module.add_function(g)
    bg = IRBuilder(g, g.add_block("entry"))
    bg.ret(bg.binop("add", g.args[0], Constant(I32, 1)))
    verify_function(g)
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    f.attrs["batched"] = 2
    b = IRBuilder(f, f.add_block("entry"))
    c = b.call(g, [f.args[0]])
    c.attrs["batch_mult"] = 2
    c.attrs["batch_charges"] = ()
    r = b.ret(c)
    _annotate(r, 2)
    verify_function(f)
    return module, f


def test_batched_internal_call_bailout_pinned():
    """An *annotated* internal call has no narrow-prototype emission: the
    bailout is deliberate (unannotated internal calls in batched bodies
    do compile)."""
    module, f = _batched_internal_call_module()
    interp = Interpreter(module)
    with pytest.raises(cg.CodegenBailout) as exc:
        cg.lower_function(f, interp.machine, interp.cost_model)
    assert exc.value.reason == "batched-internal-call"


def test_bailout_memo_keyed_by_batch_fingerprint():
    """Satellite bugfix: a bailout memoized against one batching
    configuration must not suppress emission for another.  Stripping the
    batch annotations mutates only attrs — block/instruction counts (and
    object identity) are unchanged, so only the batch fingerprint in the
    memo separates the two configurations."""
    module, f = _batched_internal_call_module()
    interp = Interpreter(module)
    with pytest.raises(cg.CodegenBailout):
        cg.lower_function(f, interp.machine, interp.cost_model)
    with pytest.raises(cg.CodegenBailout):
        # memoized replay, still a bailout
        cg.lower_function(f, interp.machine, interp.cost_model)

    # Unbatched re-run of the same Function object: attrs-only mutation.
    del f.attrs["batched"]
    for block in f.blocks:
        for ins in block.instructions:
            ins.attrs.pop("batch_mult", None)
            ins.attrs.pop("batch_charges", None)
    # must NOT replay the bailout
    kfn, _ = cg.lower_function(f, interp.machine, interp.cost_model)
    assert kfn.__name__ == "_kfn"

    # And the plain configuration actually runs, bitwise.
    _run_scalar_pair(module, f, [(3,), (12,)])


# -- fault injection at the codegen site --------------------------------------

def test_codegen_fault_site_bails_to_decoded():
    """An injected fault at the ``codegen`` site must land in the bailout
    table and degrade to the decoded engine — never trap the run."""
    module = compile_parsimony(TRAP_SRC)
    interp = Interpreter(module, codegen=True)
    function = module.get("kernel")
    with inject(FaultPlan(site="codegen")):
        kfn = interp._codegen_lower(function)
    assert kfn is None
    assert interp.codegen_bailouts == {"injected-fault": 1}
    # The bailout is sticky: the armed engine now runs decoded, with
    # results identical to a codegen=False interpreter.
    addr = interp.memory.alloc_array(np.zeros(37, np.float32))
    interp.run("kernel", addr, 37)
    assert interp.codegen_report()["calls"] == 0
    ref = Interpreter(module, codegen=False)
    ref_addr = ref.memory.alloc_array(np.zeros(37, np.float32))
    ref.run("kernel", ref_addr, 37)
    np.testing.assert_array_equal(
        interp.memory.read_array(addr, np.float32, 37),
        ref.memory.read_array(ref_addr, np.float32, 37),
    )
    assert interp.stats.cycles == ref.stats.cycles


def test_active_fault_plan_disarms_codegen():
    """While any fault plan is armed, run() skips the replay umbrella and
    codegen stays disarmed — replaying would double-fire one-shot plans."""
    module = compile_parsimony(TRAP_SRC)
    interp = Interpreter(module, codegen=True)
    addr = interp.memory.alloc_array(np.zeros(37, np.float32))
    with inject(FaultPlan(site="worker_crash")):  # unrelated site, armed
        interp.run("kernel", addr, 37)
    assert interp.codegen_report()["calls"] == 0


# -- disk-cache rehydration in a child process --------------------------------

REHYDRATE_SRC = NESTED_DIVERGENT_SRC

_CHILD = """
import json, sys
import numpy as np
from repro.driver import compile_parsimony
from repro.vm import Interpreter

module = compile_parsimony(sys.stdin.read())
interp = Interpreter(module, codegen=True)
A = np.arange(-18, 19, dtype=np.int32)
a = interp.memory.alloc_array(A)
o = interp.memory.alloc_array(np.zeros(37, np.int32))
interp.run("kernel", a, o, 37)
print(json.dumps({
    "out": interp.memory.read_array(o, np.int32, 37).tolist(),
    "cycles": interp.stats.cycles,
    "instructions": interp.stats.instructions,
    "report": interp.codegen_report(),
}))
"""


def test_generated_source_rehydrates_from_disk_in_child(tmp_path):
    """A child process with a cold in-memory cache must rehydrate the
    generated code object from the disk cache (``disk_hits``), and its run
    must agree bitwise with the parent's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["REPRO_DISK_CACHE"] = "1"

    # Parent leg: same kernel through the codegen engine with the disk
    # layer on, which persists the compiled code object.
    saved_dir = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path)
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    # A module an earlier test already ran keeps its bound emission, and
    # with it nothing would be compiled (or written) here.
    clear_compile_cache()
    try:
        module = compile_parsimony(REHYDRATE_SRC)
        interp = Interpreter(module, codegen=True)
        A = np.arange(-18, 19, dtype=np.int32)
        a = interp.memory.alloc_array(A)
        o = interp.memory.alloc_array(np.zeros(37, np.int32))
        interp.run("kernel", a, o, 37)
        parent_out = interp.memory.read_array(o, np.int32, 37)
        assert diskcache.code_stats()["writes"] >= 1, diskcache.code_stats()
    finally:
        diskcache.set_enabled(None)
        if saved_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_dir

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], input=REHYDRATE_SRC.encode(),
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-800:]
    child = json.loads(proc.stdout)
    report = child["report"]
    assert report["disk_hits"] >= 1, report
    assert report["compiles"] == 0, report  # rehydrated, not re-compiled
    assert not report["bailouts"], report
    np.testing.assert_array_equal(np.array(child["out"], np.int32),
                                  parent_out)
    assert child["cycles"] == interp.stats.cycles
    assert child["instructions"] == interp.stats.instructions
