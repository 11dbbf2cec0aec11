"""Engine-ladder tests on small hand-built modules.

Every module here runs on all three tiers — reference, predecoded,
codegen — on randomized inputs and must produce bit-identical results
*and* bit-identical ``ExecStats``, including when the instruction budget
traps mid-block (trap identity, exact trap-point stats, and the memory
image).  Also covers decode-cache invalidation after a module mutation
and call-edge attribution.

(The module keeps the path of the deleted fused-window tier's tests: the
behaviours below outlived the tier, and their test ids are pinned.)
"""

import numpy as np
import pytest

from repro.ir import (
    F32,
    I32,
    I64,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    verify_function,
)
from repro.vm import ExecutionLimitExceeded, Interpreter

ENGINES = {
    "codegen": dict(),
    "predecoded": dict(codegen=False),
    "reference": dict(predecode=False),
}


def _interp(module, mode, **kwargs):
    return Interpreter(module, **ENGINES[mode], **kwargs)


def _stats_snapshot(interp):
    s = interp.stats
    return (s.cycles, s.instructions, dict(s.counts))


def _compare_engines(module, run, seeds=range(8)):
    """Run every tier on identical randomized inputs.

    ``run(interp, rng)`` executes the kernel and returns a comparable
    result; all tiers must agree bit-for-bit on it and on ``ExecStats``.
    The codegen tier must have compiled the function (otherwise the
    equivalence claim is vacuous).
    """
    for seed in seeds:
        outcomes = {}
        for mode in ENGINES:
            interp = _interp(module, mode)
            result = run(interp, np.random.default_rng(seed))
            outcomes[mode] = (result, _stats_snapshot(interp))
            if mode == "codegen":
                report = interp.codegen_report()
                assert report["calls"] > 0 and not report["bailouts"], report
        for mode in ("codegen", "predecoded"):
            got_result, got_stats = outcomes[mode]
            want_result, want_stats = outcomes["reference"]
            np.testing.assert_array_equal(
                np.asarray(got_result), np.asarray(want_result),
                err_msg=f"seed {seed}: {mode} result differs from reference",
            )
            assert got_stats == want_stats, (
                f"seed {seed}: {mode} ExecStats differ from reference"
            )


# -- equivalence matrix -------------------------------------------------------

def _gep_load_module():
    module = Module("t")
    f = Function("f", FunctionType(I32, (PointerType(I32), I64)), ["p", "i"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.ret(b.load(b.gep(f.args[0], f.args[1])))
    verify_function(f)
    return module


def test_gep_load_pattern():
    module = _gep_load_module()

    def run(interp, rng):
        data = rng.integers(0, 2**31, size=16, dtype=np.uint32)
        addr = interp.memory.alloc_array(data)
        return interp.run("f", addr, int(rng.integers(0, 16)))

    _compare_engines(module, run)


def _gep_store_module():
    module = Module("t")
    f = Function(
        "f", FunctionType(I32, (PointerType(I32), I64, I32)), ["p", "i", "v"]
    )
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.store(f.args[2], b.gep(f.args[0], f.args[1]))
    b.ret(f.args[2])
    verify_function(f)
    return module


def test_gep_store_pattern():
    module = _gep_store_module()

    def run(interp, rng):
        data = np.zeros(16, dtype=np.uint32)
        addr = interp.memory.alloc_array(data)
        idx = int(rng.integers(0, 16))
        val = int(rng.integers(0, 2**31))
        interp.run("f", addr, idx, val)
        return interp.memory.read_array(addr, np.uint32, 16)

    _compare_engines(module, run)


def _binop_chain_module(opcodes, type_):
    module = Module("t")
    f = Function("f", FunctionType(type_, (type_, type_)), ["x", "y"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    acc = f.args[0]
    for opcode in opcodes:
        acc = b.binop(opcode, acc, f.args[1])
    b.ret(acc)
    verify_function(f)
    return module


def test_binop_binop_int_chain():
    module = _binop_chain_module(("add", "mul", "xor", "sub", "and"), I32)

    def run(interp, rng):
        return interp.run(
            "f", int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32))
        )

    _compare_engines(module, run)


def test_binop_binop_float_chain():
    module = _binop_chain_module(("fmul", "fadd", "fsub", "fdiv"), F32)

    def run(interp, rng):
        x = float(np.float32(rng.uniform(-1e3, 1e3)))
        y = float(np.float32(rng.uniform(-1e3, 1e3)))
        return interp.run("f", x, y)

    _compare_engines(module, run)


def _cmp_condbr_module(cmp):
    """Count down from n — every iteration ends in icmp/fcmp + condbr."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["n"])
    module.add_function(f)
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b = IRBuilder(f, entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I32, "i")
    total = b.phi(I32, "total")
    nxt = b.sub(i, b.const(I32, 1))
    acc = b.binop("add", total, i)
    if cmp == "icmp":
        cond = b.icmp("ugt", nxt, b.const(I32, 0))
    else:
        fi = b.cast("uitofp", nxt, F32)
        cond = b.fcmp("ogt", fi, b.const(F32, 0.0))
    b.condbr(cond, loop, done)
    for phi, first, again in ((i, f.args[0], nxt), (total, b.const(I32, 0), acc)):
        phi.append_operand(first)
        phi.append_operand(entry)
        phi.append_operand(again)
        phi.append_operand(loop)
    b.position_at_end(done)
    b.ret(acc)
    verify_function(f)
    return module


@pytest.mark.parametrize("cmp", ["icmp", "fcmp"])
def test_cmp_condbr_pattern(cmp):
    module = _cmp_condbr_module(cmp)

    def run(interp, rng):
        return interp.run("f", int(rng.integers(1, 50)))

    _compare_engines(module, run)


def _stream_triple_module():
    module = Module("t")
    ptr = PointerType(F32)
    f = Function("f", FunctionType(I32, (ptr, ptr)), ["src", "dst"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    mask = b.all_ones_mask(8)
    v = b.vload(f.args[0], 8, mask)
    o = b.binop("fadd", v, v)
    b.vstore(o, f.args[1], mask)
    b.ret(b.const(I32, 0))
    verify_function(f)
    return module


def test_vload_binop_vstore_pattern():
    module = _stream_triple_module()

    def run(interp, rng):
        src = rng.uniform(-100, 100, size=8).astype(np.float32)
        a_src = interp.memory.alloc_array(src)
        a_dst = interp.memory.alloc_array(np.zeros(8, dtype=np.float32))
        interp.run("f", a_src, a_dst)
        return interp.memory.read_array(a_dst, np.float32, 8)

    _compare_engines(module, run)


# -- instruction-budget traps --------------------------------------------------

def _trap_outcomes(module, limit, *args):
    """Trap message + trap-point stats per tier; codegen must have got
    there by replaying on its predecoded twin."""
    outcomes = {}
    for mode in ENGINES:
        interp = _interp(module, mode, max_instructions=limit)
        with pytest.raises(ExecutionLimitExceeded, match="@f") as excinfo:
            interp.run("f", *args)
        outcomes[mode] = (str(excinfo.value), _stats_snapshot(interp))
        assert interp.stats.instructions == limit + 1
        assert interp.codegen_report()["replays"] == (mode == "codegen")
    return outcomes


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 6])
def test_budget_trap_mid_window_matches_reference(limit):
    """A budget crossing in the middle of a straight-line block must leave
    the exact reference trap state (instructions == limit + 1, same counts)."""
    module = _binop_chain_module(("add", "mul", "xor", "sub", "and", "or"), I32)
    outcomes = _trap_outcomes(module, limit, 7, 9)
    assert outcomes["codegen"] == outcomes["reference"]
    assert outcomes["predecoded"] == outcomes["reference"]


@pytest.mark.parametrize("limit", [3, 4, 5, 10, 17])
def test_budget_trap_in_loop_matches_reference(limit):
    module = _cmp_condbr_module("icmp")
    outcomes = _trap_outcomes(module, limit, 1000)
    assert outcomes["codegen"] == outcomes["reference"]
    assert outcomes["predecoded"] == outcomes["reference"]


def test_budget_trap_mid_memory_window_leaves_exact_state():
    """Stores keep the reference engine's charge-then-execute order, so a
    store before the trap point has happened, one after it has not."""
    module = Module("t")
    ptr = PointerType(I32)
    f = Function("f", FunctionType(I32, (ptr,)), ["p"])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    one = b.const(I64, 1)
    b.store(b.const(I32, 11), b.gep(f.args[0], b.const(I64, 0)))
    b.store(b.const(I32, 22), b.gep(f.args[0], one))
    b.store(b.const(I32, 33), b.gep(f.args[0], b.const(I64, 2)))
    b.ret(b.const(I32, 0))
    verify_function(f)

    cells = {}
    for mode in ENGINES:
        interp = _interp(module, mode, max_instructions=3)
        addr = interp.memory.alloc_array(np.zeros(3, dtype=np.uint32))
        with pytest.raises(ExecutionLimitExceeded):
            interp.run("f", addr)
        cells[mode] = interp.memory.read_array(addr, np.uint32, 3).tolist()
    assert cells["reference"] == [11, 0, 0]
    assert cells["codegen"] == cells["reference"]
    assert cells["predecoded"] == cells["reference"]


# -- decode-cache invalidation ------------------------------------------------

def test_clear_decode_cache_invalidates_fused_blocks():
    for mode in ("codegen", "predecoded"):
        module = _binop_chain_module(("add", "mul"), I32)
        interp = _interp(module, mode)
        assert interp.run("f", 3, 5) == (3 + 5) * 5

        # Transform the module: the accumulation chain becomes sub/xor.
        f = module.functions["f"]
        instrs = [
            i for i in f.blocks[0].instructions if i.opcode in ("add", "mul")
        ]
        instrs[0].opcode = "sub"
        instrs[1].opcode = "xor"

        # Stale decode: the cached function still computes the old chain.
        assert interp.run("f", 3, 5) == (3 + 5) * 5, mode

        interp.clear_decode_cache()
        assert interp.run("f", 3, 5) == ((3 - 5) & 0xFFFFFFFF) ^ 5, mode
        assert set(interp.stats.counts) >= {"sub", "xor"}, mode


# -- call-edge attribution ----------------------------------------------------

def _call_module():
    module = Module("t")
    helper = Function("helper", FunctionType(I32, (I32,)), ["x"])
    module.add_function(helper)
    hb = IRBuilder(helper, helper.add_block("entry"))
    hb.ret(hb.binop("add", helper.args[0], hb.const(I32, 1)))
    main = Function("main", FunctionType(I32, (I32,)), ["x"])
    module.add_function(main)
    mb = IRBuilder(main, main.add_block("entry"))
    a = mb.call(helper, [main.args[0]])
    c = mb.call(helper, [a])
    mb.ret(c)
    verify_function(helper)
    verify_function(main)
    return module


def test_call_edge_attribution():
    module = _call_module()
    edges_by_mode = {}
    for mode in ENGINES:
        interp = _interp(module, mode)
        assert interp.run("main", 40) == 42

        edges = {(e["caller"], e["callee"]): e for e in interp.call_edges()}
        assert edges[("main", "helper")]["calls"] == 2
        assert edges[("<root>", "main")]["calls"] == 1
        # The root edge's inclusive cycles cover the whole run.
        assert edges[("<root>", "main")]["inclusive_cycles"] == pytest.approx(
            interp.stats.cycles
        )
        assert edges[("main", "helper")]["inclusive_cycles"] > 0

        hot = {h["function"]: h for h in interp.hotspots()}
        assert hot["helper"]["callers"]["main"]["calls"] == 2
        assert hot["main"]["callers"]["<root>"]["calls"] == 1
        edges_by_mode[mode] = (edges, hot)
    assert edges_by_mode["codegen"] == edges_by_mode["reference"]
    assert edges_by_mode["predecoded"] == edges_by_mode["reference"]
