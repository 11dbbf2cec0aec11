"""Fault-injection differential: a failing vectorizer must never produce a
wrong answer, only a slower one.

For every Figure 4 benchmark, a deterministically injected failure in the
vectorizer forces the graceful-degradation path; the resulting module must
execute bit-identically to the pure scalar build, with the fallback reason
recorded in telemetry.  No injected compile-stage fault may escape
``compile_parsimony``.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.diagnostics import CompileError
from repro.driver import compile_parsimony
from repro.faultinject import FaultPlan, InjectedFault, fired_log, inject
from repro.vectorizer import parsimony_records

SPECS = {spec.name: spec for spec in BENCHMARKS}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_forced_fallback_is_bit_identical_to_scalar(name):
    spec = SPECS[name]
    scalar = run_impl(spec, "scalar")
    with inject(FaultPlan(site="vectorize")), telemetry.collect() as session:
        degraded = run_impl(spec, "parsimony")
    fallbacks = session.as_dict()["vectorizer"]["fallbacks"]
    assert fallbacks, "forced vectorizer failure produced no fallback record"
    for entry in fallbacks:
        assert entry["reason"]["error"] == "InjectedFault"
        assert entry["reason"]["stage"] == "faultinject"
    got = degraded.output_signature()
    want = scalar.output_signature()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_whole_function_fallback_execstats_deterministic():
    """Repeated launches of one degraded build report identical
    ``ExecStats``: the fallback's accounting is as exact as its outputs."""
    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="vectorize_block", after=3, times=1)):
        module = compile_parsimony(spec.psim_src, module_name="statsdet")
    assert any(r.get("parsimony_fallback")
               for r in parsimony_records(module).values())
    first = run_impl(spec, "parsimony", module=module).stats
    second = run_impl(spec, "parsimony", module=module).stats
    assert first.cycles == second.cycles
    assert first.instructions == second.instructions
    assert dict(first.counts) == dict(second.counts)


def test_strict_mode_reraises_instead_of_degrading():
    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="vectorize")):
        with pytest.raises(InjectedFault):
            compile_parsimony(spec.psim_src, strict=True,
                              module_name="strict.parsimony")


def test_pass_stage_fault_carries_provenance():
    # A fault inside the scalar pass pipeline (before the vectorizer runs)
    # is a hard compile error, but it must surface as a structured
    # diagnostic naming the pass and function — never a bare traceback.
    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="pass", match="dce", times=1)):
        with pytest.raises(CompileError) as excinfo:
            compile_parsimony(spec.psim_src, module_name="passfault")
    diag = excinfo.value.diagnostic
    assert diag.stage == "faultinject"
    assert "dce" in str(excinfo.value)


def test_corrupting_pass_caught_and_named_before_the_vm():
    # ``corrupt`` silently deletes a terminator after a pass runs.  The
    # inter-pass verifier must catch the damage and attribute it to the
    # offending pass; broken IR never reaches the VM.
    from repro.passes.pass_manager import PassVerificationError

    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="corrupt", match="constant_fold", times=1)):
        with pytest.raises(PassVerificationError) as excinfo:
            compile_parsimony(spec.psim_src, module_name="corruptfault")
    assert "constant_fold" in str(excinfo.value)
    assert excinfo.value.diagnostic.pass_name == "constant_fold"


def test_fault_plans_do_not_poison_the_compile_cache():
    from repro import driver

    spec = SPECS["mandelbrot"]
    driver.clear_compile_cache()
    clean_before = compile_parsimony(spec.psim_src, module_name="cachechk")
    with inject(FaultPlan(site="vectorize")):
        degraded = compile_parsimony(spec.psim_src, module_name="cachechk")
    clean_after = compile_parsimony(spec.psim_src, module_name="cachechk")
    assert any(
        r.get("parsimony_fallback") for r in parsimony_records(degraded).values()
    )
    for module in (clean_before, clean_after):
        assert not any(
            r.get("parsimony_fallback") for r in parsimony_records(module).values()
        )


def test_injection_scope_and_log():
    spec = SPECS["mandelbrot"]
    plan = FaultPlan(site="vectorize", times=1)
    with inject(plan):
        with pytest.raises(InjectedFault):
            compile_parsimony(spec.psim_src, strict=True, module_name="scopechk")
        log = fired_log()
        assert log and log[0]["site"] == "vectorize"
        assert plan.fired == 1
    # Outside the context the same compile must succeed unfaulted.
    module = compile_parsimony(spec.psim_src, strict=True, module_name="scopechk")
    assert module.functions


def test_unmatched_plan_never_fires():
    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="vectorize", match="no-such-function")), \
            telemetry.collect() as session:
        compile_parsimony(spec.psim_src, module_name="nomatch")
    assert not session.fallbacks
    assert not fired_log()


# -- runtime fault sites: mathlib and costmodel (issue 4) ---------------------


def test_mathlib_fault_carries_full_external_name():
    # black_scholes calls exp/log/sqrt; a fault armed on the mathlib site
    # fires inside the external's implementation at *run* time and names
    # the exact external (flavour, function, element type, lanes).
    spec = SPECS["options"]
    with inject(FaultPlan(site="mathlib", match="exp")) as state:
        with pytest.raises(InjectedFault) as excinfo:
            run_impl(spec, "parsimony")
    detail = excinfo.value.diagnostic.detail
    assert detail["site"] == "mathlib"
    assert ".exp." in detail["name"] and detail["name"].startswith("ml.")
    assert excinfo.value.diagnostic.stage == "faultinject"
    assert state.log and state.log[0]["site"] == "mathlib"


def test_mathlib_fault_hook_survives_rehydration():
    # The disk compile cache serializes math externals as bare names and
    # rebuilds them via rehydrate_external on load; the rebuilt impls must
    # still carry the injection hook (and still compute correctly when no
    # plan is armed).
    from repro.runtime.mathlib import rehydrate_external

    scalar = rehydrate_external("ml.exp.f32")
    vector = rehydrate_external("ml.sleef.pow.f32x8")
    assert scalar.impl(0.0) == 1.0
    ones = np.ones(8, np.float32)
    np.testing.assert_array_equal(vector.impl(ones, ones), ones)

    with inject(FaultPlan(site="mathlib", match="ml.exp.f32")):
        with pytest.raises(InjectedFault) as excinfo:
            scalar.impl(1.0)
    assert excinfo.value.diagnostic.detail["name"] == "ml.exp.f32"
    with inject(FaultPlan(site="mathlib", match="sleef.pow")):
        with pytest.raises(InjectedFault) as excinfo:
            vector.impl(ones, ones)
    assert excinfo.value.diagnostic.detail["name"] == "ml.sleef.pow.f32x8"


def test_costmodel_fault_names_the_opcode():
    # The cost model is consulted by the VM when charging cycles; a fault
    # on the costmodel site surfaces during execution with the opcode as
    # provenance.  Armed plans bypass the compile cache, so the module's
    # instructions are fresh (no cost memoized from earlier runs).
    spec = SPECS["mandelbrot"]
    with inject(FaultPlan(site="costmodel", match="fmul")):
        with pytest.raises(InjectedFault) as excinfo:
            run_impl(spec, "parsimony")
    detail = excinfo.value.diagnostic.detail
    assert detail == {"site": "costmodel", "name": "fmul"}


def test_costmodel_fault_direct_consultation():
    from repro.backend.costmodel import DEFAULT_COST_MODEL
    from repro.backend.machine import AVX512

    module = compile_parsimony(SPECS["mandelbrot"].psim_src,
                               module_name="costprov")
    func = next(iter(module.functions.values()))
    instr = next(
        i for block in func.blocks for i in block.instructions
        if i.opcode not in ("phi",)
    )
    with inject(FaultPlan(site="costmodel")):
        with pytest.raises(InjectedFault) as excinfo:
            DEFAULT_COST_MODEL.cost(instr, AVX512)
    assert excinfo.value.diagnostic.detail["name"] == instr.opcode
    # Unarmed, the same consultation succeeds.
    assert DEFAULT_COST_MODEL.cost(instr, AVX512) >= 0
