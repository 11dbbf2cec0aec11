"""A replay runs in the interpreter that launched it.

A launch that leaves generated code rolls back and replays on the
reference engine in the same interpreter — on the module, or on a batched
module's unbatched twin — from the rolled-back stats, attribution, memory
and instruction budget.  So:

* a reused interpreter's budget trap lands on the same instruction on
  every engine and build: the replay does not restart the budget;
* ``codegen_report()["replays"]`` counts every replay, the twin's too
  (it is the count the request-level benchmark reads);
* ``hotspots()`` derives each function's exclusive cycles from the one
  attribution table, the call edges, so they sum to ``stats.cycles`` —
  with recursion, and at a trap inside a callee.
"""

import numpy as np
import pytest

from repro.benchsuite.ispc_suite import BY_NAME as FIG4
from repro.driver import compile_parsimony
from repro.ir import I32, Constant, Function, FunctionType, IRBuilder, Module
from repro.ir.verifier import verify_function
from repro.vm import ExecutionLimitExceeded, Interpreter, VMTrap
from repro.vm.memory import Memory

#: (build, engine) -> compile_parsimony's batch request, Interpreter kwargs.
CONFIGS = {
    ("unbatched", "reference"): (0, {"codegen": False}),
    ("unbatched", "codegen"): (0, {}),
    ("batched", "reference"): (None, {"codegen": False}),
    ("batched", "codegen"): (None, {}),
}


def _two_launches(spec, request, engine):
    """One interpreter, a budget of 1.5 launches, launched twice: the
    second launch's trap, trap-point stats, hot spots and memory."""
    module = compile_parsimony(spec.psim_src, batch_request=request)
    workload = spec.workload()
    once = Interpreter(module, codegen=False)
    args = [once.memory.alloc_array(a) for a in workload.arrays]
    once.run("kernel", *args, *workload.scalars)
    interp = Interpreter(module, max_instructions=once.stats.instructions
                         * 3 // 2, **engine)
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    interp.run("kernel", *addrs, *workload.scalars)
    with pytest.raises(ExecutionLimitExceeded) as trap:
        interp.run("kernel", *addrs, *workload.scalars)
    stats = interp.stats
    return {
        "trap": str(trap.value),
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "hotspots": interp.hotspots(),
        "image": interp.memory.image().tobytes(),
    }, interp


@pytest.mark.parametrize("name", ["mandelbrot", "stencil"])
def test_a_reused_interpreter_traps_at_one_point_on_every_engine(name):
    spec = FIG4[name]
    want, _ = _two_launches(spec, *CONFIGS["unbatched", "reference"])
    for (build, engine), config in CONFIGS.items():
        got, interp = _two_launches(spec, *config)
        assert got == want, (name, build, engine)
        # Codegen replays the trapping launch; the reference engine has
        # nothing to replay.
        assert interp.codegen_report()["replays"] == (engine == "codegen")


_INCREMENT = """
void kernel(i32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = a[i] * (i32)3 + (i32)1;
    }
}
"""


@pytest.mark.parametrize("request_", [None, 0], ids=["batched", "unbatched"])
def test_a_range_test_replay_counts_once_on_either_build(request_):
    """35 lanes at the end of memory: the partial tail gang's view would
    run past the buffer, so the range test sends the launch to the
    reference engine — the twin's for the batched build."""
    module = compile_parsimony(_INCREMENT, batch_request=request_)
    assert bool(module.attrs.get("batch_applied")) == (request_ is None)
    a = np.arange(35, dtype=np.int32)
    interp = Interpreter(module, memory=Memory(64 + a.nbytes))
    addr = interp.memory.alloc_array(a)
    assert interp.memory.extent == interp.memory.size
    interp.run("kernel", addr, 35)
    np.testing.assert_array_equal(
        interp.memory.read_array(addr, np.int32, 35), a * 3 + 1)
    report = interp.codegen_report()
    assert report["calls"] == 1 and report["replays"] == 1
    assert (module._unbatched_twin is not None) == (request_ is None)
    interp.reset_stats()
    assert interp.codegen_report()["replays"] == 0


def _recursive_module():
    """``main(x, d) = rec(x, d) + leaf(7)``; ``rec`` recurses ``x`` deep
    and calls ``leaf(d)`` at the bottom, which divides by ``d``: traps
    inside the deepest callee for ``d == 0``."""
    module = Module("t")
    sig = FunctionType(I32, (I32, I32))
    leaf = Function("leaf", FunctionType(I32, (I32,)), ["d"])
    rec = Function("rec", sig, ["x", "d"])
    main = Function("main", sig, ["x", "d"])
    for f in (leaf, rec, main):
        module.add_function(f)
    b = IRBuilder(leaf, leaf.add_block("entry"))
    b.ret(b.binop("sdiv", Constant(I32, 1000), leaf.args[0]))
    entry, base, step = (rec.add_block(n) for n in ("entry", "base", "step"))
    b = IRBuilder(rec, entry)
    x, d = rec.args
    b.condbr(b.icmp("eq", x, Constant(I32, 0)), base, step)
    b.position_at_end(base)
    b.ret(b.call(leaf, [d]))
    b.position_at_end(step)
    inner = b.call(rec, [b.binop("sub", x, Constant(I32, 1)), d])
    b.ret(b.binop("add", inner, x))
    b = IRBuilder(main, main.add_block("entry"))
    b.ret(b.binop("add", b.call(rec, list(main.args)),
                  b.call(leaf, [Constant(I32, 7)])))
    for f in (leaf, rec, main):
        verify_function(f)
    return module


def _attribution(interp):
    hot = interp.hotspots()
    assert sum(h["exclusive_cycles"] for h in hot) == interp.stats.cycles
    return hot


@pytest.mark.parametrize("engine", ["codegen", "reference"])
def test_exclusive_cycles_sum_to_the_launch_with_recursion_and_traps(engine):
    module = _recursive_module()
    kw = {} if engine == "codegen" else {"codegen": False}
    interp = Interpreter(module, **kw)
    assert interp.run("main", 5, 4) == 250 + 15 + 142
    hot = _attribution(interp)
    assert {h["function"]: h["calls"] for h in hot} == {
        "main": 1, "rec": 6, "leaf": 2}
    rec = next(h for h in hot if h["function"] == "rec")
    assert set(rec["callers"]) == {"main", "rec"}
    assert all(h["exclusive_cycles"] > 0 for h in hot)
    clean = interp.stats.cycles

    with pytest.raises(VMTrap, match="division by zero"):
        interp.run("main", 5, 0)
    # The trap's partial charges stay attributed, on top of the first run.
    assert interp.stats.cycles > clean
    trapped = _attribution(interp)
    assert {h["function"]: h["calls"] for h in trapped} == {
        "main": 2, "rec": 12, "leaf": 3}

    # Both engines attribute the same cycles to the same functions.
    other = Interpreter(module, codegen=engine == "reference")
    other.run("main", 5, 4)
    with pytest.raises(VMTrap):
        other.run("main", 5, 0)
    assert other.hotspots() == trapped


@pytest.mark.parametrize("name", sorted(FIG4))
def test_exclusive_cycles_sum_to_every_fig4_launch(name):
    spec = FIG4[name]
    workload = spec.workload()
    interp = Interpreter(compile_parsimony(spec.psim_src))
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    interp.run("kernel", *addrs, *workload.scalars)
    assert _attribution(interp)
