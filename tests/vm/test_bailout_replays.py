"""Codegen bailouts reached from valid PsimC, at default settings.

A launch leaves generated code one way: a function without generated
code — whatever the reason — rolls the launch back and replays it whole
on the reference engine, batched or not, exactly as a trap does.  So a
bailout is invisible in everything but the counters: outputs, memory,
``ExecStats``, trap text and hot-spot attribution are bit-identical to
``codegen=False``.  The interpreter that recorded the bailout runs its
later launches on the reference engine outright.

The two reasons valid source reaches:

* ``function-too-large``: a body above ``MAX_CODEGEN_INSTRS``;
* ``error:SyntaxError``: 20 nested loops, past the 20 statically nested
  blocks CPython's ``compile()`` takes once the ``try:`` around the body
  (and, inside a ``psim`` region, the gang loop) is counted.

A failure of any kind is memoized on the frozen function, so a second
interpreter over the same compiled module does not emit it again.
"""

import numpy as np
import pytest

from repro.backend import codegen as cg
from repro.backend.codegen import MAX_CODEGEN_INSTRS
from repro.driver import clear_compile_cache, compile_parsimony
from repro.vm import Interpreter, VMTrap


def _nest(depth: int, body: str) -> str:
    return "".join(
        f"for (u64 k{j} = (u64)0; k{j} < m; k{j} = k{j} + (u64)1) {{ "
        for j in range(depth)) + body + " }" * depth


#: 850 statements, 8525 IR instructions: above MAX_CODEGEN_INSTRS.
TOO_LARGE = """
void kernel(i32* a, u64 n, u64 m) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        i32 x = a[i];
        i32 y = x ^ (i32)3;
%s
        a[i] = x;
    }
}""" % "\n".join(
    f"        x = (x * (i32){k % 7 + 2} + y) ^ (y >> (i32){k % 5 + 1});"
    f" y = y - x;" for k in range(850))

#: 20 nested loops ahead of the gang loop: its function does not compile.
TOO_DEEP = """
void kernel(i32* a, u64 n, u64 m) {
    %s
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = a[i] * (i32)2;
    }
}""" % _nest(20, "a[0] = a[0] + (i32)1;")

#: Only the internal callee fails; the kernel itself compiles.
DEEP_CALLEE = """
i32 deep(i32 x, u64 m) {
    %s
    return x;
}
void kernel(i32* a, u64 n, u64 m) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = deep(a[i], m);
    }
}""" % _nest(20, "x = x * (i32)3 + (i32)1;")

#: A kernel codegen has no trouble with.
PLAIN = """
void kernel(i32* a, u64 n, u64 m) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = a[i] * (i32)5 + (i32)m;
    }
}"""

#: name -> (source, reason, batch requests: the default build where it
#: batches, and the unbatched build).
CASES = {
    "too-large": (TOO_LARGE, "function-too-large", (None, 0)),
    "too-deep": (TOO_DEEP, "error:SyntaxError", (None, 0)),
    "deep-callee": (DEEP_CALLEE, "error:SyntaxError", (0,)),
}

#: batch request -> the build it asks for.
BUILDS = {None: "batched", 0: "unbatched"}

N = 37


def _launch(module, max_instructions=None, interp=None, **engine):
    """One launch as plain data: outcome, memory, stats and hot spots."""
    if interp is None:
        if max_instructions is not None:
            engine["max_instructions"] = max_instructions
        interp = Interpreter(module, **engine)
    interp.reset_stats()
    addr = interp.memory.alloc_array(np.arange(-9, N - 9, dtype=np.int32))
    try:
        interp.run("kernel", addr, N, 1)
        outcome = None
    except VMTrap as exc:
        outcome = (type(exc).__name__, str(exc))
    stats = interp.stats
    return {
        "trap": outcome,
        "out": interp.memory.read_array(addr, np.int32, N).tolist(),
        "image": bytes(interp.memory.image()),
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "hotspots": interp.hotspots(),
    }, interp


@pytest.mark.parametrize("case,batch_request", [
    pytest.param(case, batch_request, id=f"{case}-{BUILDS[batch_request]}")
    for case, (_, _, requests) in sorted(CASES.items())
    for batch_request in requests])
def test_a_bailout_replays_the_launch_whole(case, batch_request, monkeypatch):
    source, reason, _ = CASES[case]
    module = compile_parsimony(source, batch_request=batch_request)
    batched = bool(module.attrs.get("batch_applied"))
    assert batched == (batch_request is None)
    if case == "too-large":
        size = sum(len(b.instructions) for b in module.get("kernel").blocks)
        assert size > MAX_CODEGEN_INSTRS

    want, _ = _launch(module, codegen=False)
    assert want["trap"] is None
    visits = []  # every function the reference engine is entered with
    reference = Interpreter._exec_reference
    monkeypatch.setattr(Interpreter, "_exec_reference",
                        lambda self, f, *a: (visits.append(f),
                                             reference(self, f, *a))[1])
    got, interp = _launch(module)
    assert got == want
    report = interp.codegen_report()
    assert report["bailouts"] == {reason: 1}
    assert report["replays"] == 1
    # A batched build replays on its unbatched twin, an unbatched one on
    # itself.
    assert visits[0] is (
        module._unbatched_twin if batched else module).get("kernel")
    if case == "deep-callee":
        # The kernel's generated code ran until it called @deep; the
        # whole launch then moved to the reference engine.
        assert report["calls"] == 1
        assert {h["function"] for h in got["hotspots"]} == {"kernel", "deep"}

    # The interpreter that recorded a bailout runs on the reference
    # engine from now on: no second replay, no generated code.
    again, _ = _launch(module, interp=interp)
    assert again["stats"] == want["stats"] and again["out"] == want["out"]
    report = interp.codegen_report()
    assert (report["calls"], report["replays"]) == (0, 0)

    # A trap replays to the same text and trap-point stats.
    budget = want["stats"][1] // 2
    trapped_want, _ = _launch(module, budget, codegen=False)
    trapped_got, trapped = _launch(module, budget)
    assert trapped_want["trap"] is not None
    assert trapped_got == trapped_want
    assert trapped.codegen_bailouts == {reason: 1}


def test_every_failure_is_emitted_once_per_module(monkeypatch):
    """An emitter bug is a failure like any other: memoized on the frozen
    function with its reason, so no later interpreter emits it again, and
    every launch runs bitwise like ``codegen=False``."""
    emitted = []

    class Broken:
        def __init__(self, function, machine, cost_model):
            emitted.append(function.name)

        def emit(self):
            raise ValueError("an emitter bug")

    clear_compile_cache()  # a module no interpreter has emitted yet
    want, _ = _launch(compile_parsimony(PLAIN), codegen=False)
    monkeypatch.setattr(cg, "_Emitter", Broken)
    for _ in range(3):
        got, interp = _launch(compile_parsimony(PLAIN))  # the same module
        assert got == want
        assert interp.codegen_bailouts == {"error:ValueError": 1}
        assert interp.codegen_report()["replays"] == 1
    assert emitted == ["kernel"]
