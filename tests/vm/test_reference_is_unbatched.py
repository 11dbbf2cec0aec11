"""The reference engine interprets unbatched IR only.

Gang batching promises outputs and ``ExecStats`` equal to the unbatched
build, so that build — run on the reference engine — is the spec of
batched IR.  Batched IR runs only as generated code; every other launch
of a batched module runs its unbatched twin:

* a batched function never reaches ``Interpreter._exec_reference`` —
  not with ``codegen=False``, not in a trap replay, not after a codegen
  bailout, not under an armed fault plan — and the engine refuses one
  handed to it directly;
* a codegen bailout on a batched function is handled like a trap: the
  launch rolls back and replays on the twin, bitwise (outputs,
  ``ExecStats``, ``image()``, ``extent``);
* the twin is built with fault plans suspended, so a compile-site plan
  armed around a run cannot degrade the spec it runs on.
"""

import pytest

from repro import driver
from repro.backend import codegen as cg
from repro.benchsuite.ispc_suite import BY_NAME as FIG4
from repro.benchsuite.simdlib import BY_NAME as FIG5
from repro.diagnostics import ExecutionError
from repro.faultinject import FaultPlan, inject
from repro.passes import clone_module
from repro.vectorizer import parsimony_records
from repro.vm import Interpreter

#: Divergent loops (mandelbrot), row-strided stores (BgrToBgra), and
#: per-gang segmented sums folded into an atomic (AbsDifferenceSum).
SPECS = {"mandelbrot": FIG4["mandelbrot"], "BgrToBgra": FIG5["BgrToBgra"],
         "AbsDifferenceSum": FIG5["AbsDifferenceSum"]}


def _launch(module, spec, interp=None, **engine):
    """One launch over the kernel's workload, as plain data."""
    workload = spec.workload()
    interp = interp or Interpreter(module, **engine)
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    ret = interp.run("kernel", *addrs, *workload.scalars)
    stats = interp.stats
    return {
        "ret": ret,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp


def _fresh_batched(spec):
    """A batched build whose twin is not built yet (a clone carries the
    recipe, not the twin, and owns its emissions)."""
    module = clone_module(driver.compile_parsimony(spec.psim_src))
    assert module.attrs["batch_applied"] and module._unbatched_twin is None
    return module


def _unbatched_reference(spec):
    return _launch(driver.compile_parsimony(spec.psim_src, batch_request=0),
                   spec, codegen=False)[0]


@pytest.fixture
def reference_visits(monkeypatch):
    """Every function the reference engine is entered with."""
    seen = []
    original = Interpreter._exec_reference

    def spy(self, function, argvals, depth):
        seen.append(function)
        return original(self, function, argvals, depth)

    monkeypatch.setattr(Interpreter, "_exec_reference", spy)
    return seen


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batched_ir_never_reaches_the_reference_engine(name, reference_visits):
    spec = SPECS[name]
    module = _fresh_batched(spec)
    want = _unbatched_reference(spec)
    del reference_visits[:]

    # Clean codegen runs stay in generated code.
    assert _launch(module, spec)[0] == want
    assert reference_visits == []

    # codegen=False, a run under an armed (idle) plan, and a trap replay
    # all run the twin.
    assert _launch(module, spec, codegen=False)[0] == want
    with inject(FaultPlan(site="mathlib", match="no-such-external")):
        assert _launch(module, spec)[0] == want
    budget = want["stats"][1] // 2
    trapped = Interpreter(module, max_instructions=budget)
    with pytest.raises(ExecutionError, match="exceeded"):
        _launch(module, spec, interp=trapped)
    assert trapped.codegen_report()["replays"] == 1
    assert reference_visits
    assert not any(f.attrs.get("batched") for f in reference_visits)

    # Handed a batched function directly, the engine refuses it.
    kernel = module.get("kernel")
    with pytest.raises(ExecutionError, match="unbatched IR only"):
        Interpreter(module, codegen=False)._exec_reference(
            kernel, [0] * len(kernel.args), 0)

    # A hand-batched module has no twin to run: a clear error.
    orphan = clone_module(module)
    del orphan.attrs["unbatched_recipe"]
    with pytest.raises(ExecutionError, match="no unbatched recipe"):
        _launch(orphan, spec, codegen=False)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_codegen_bailout_on_batched_ir_replays_on_the_twin(name, monkeypatch):
    spec = SPECS[name]
    module = _fresh_batched(spec)
    want = _unbatched_reference(spec)
    monkeypatch.setattr(cg, "MAX_CODEGEN_INSTRS", 4)
    got, interp = _launch(module, spec)
    assert got == want
    assert interp.codegen_bailouts == {"function-too-large": 1}
    assert interp.codegen_report()["replays"] == 1
    assert module._unbatched_twin is not None


def test_an_armed_compile_plan_cannot_degrade_the_twin():
    spec = SPECS["mandelbrot"]
    module = _fresh_batched(spec)
    want = _unbatched_reference(spec)
    plan = FaultPlan(site="vectorize")
    with inject(plan):
        got, interp = _launch(module, spec)
    assert got == want
    assert interp.codegen_report()["calls"] == 0
    assert plan.fired == 0
    twin = module._unbatched_twin
    assert twin is not None
    records = parsimony_records(twin).values()
    assert records and not any(r.get("parsimony_fallback")
                               for r in records)
