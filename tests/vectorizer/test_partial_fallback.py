"""Differential matrix for region-granular scalar fallback (issue 4).

For every fig4 benchmark, force a vectorization failure at each basic
block the vectorizer emits (via the ``"vectorize_block"`` fault site) and
check that the degraded module — region-granular where provenance allows,
whole-function otherwise — produces **bit-identical** outputs to both the
fully vectorized build and the whole-function scalarized build.

On ExecStats: cycle/instruction counts legitimately differ *between*
degradation strategies (that is the point of keeping vector code), so the
stats contract pinned here is determinism — repeated runs of the same
degraded module report identical ExecStats.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.benchsuite import build_impl, run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS, BY_NAME
from repro.faultinject import FaultPlan, inject
from repro.ir.verifier import VerificationError, verify_function
from repro.passes import clone_module
from repro.vectorizer import parsimony_records


def _count_block_emissions(spec):
    """How many blocks the vectorizer emits compiling ``spec`` clean.

    ``FaultPlan.hits`` counts every site match even when the plan never
    fires (``after`` is effectively infinite), so one clean compile under
    this probe enumerates the fault indices the matrix below iterates.
    """
    probe = FaultPlan(site="vectorize_block", after=10**9)
    with inject(probe):
        build_impl(spec, "parsimony")
    return probe.hits


def _signatures(result):
    return [np.asarray(o) for o in result.output_signature()]


def _assert_bit_identical(got, want, context):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, err_msg=context)


def _partial_functions(module):
    return [
        name for name, record in parsimony_records(module).items()
        if record.get("parsimony_partial_fallback")
    ]


@pytest.mark.parametrize("spec", BENCHMARKS, ids=lambda s: s.name)
def test_partial_fallback_matrix_bit_identical(spec):
    hits = _count_block_emissions(spec)
    assert hits > 0, "vectorizer emitted no blocks — probe site dead?"

    plain = run_impl(spec, "parsimony")
    with inject(FaultPlan(site="vectorize")):
        whole_module = build_impl(spec, "parsimony")
    whole = run_impl(spec, "parsimony", module=whole_module)
    _assert_bit_identical(
        _signatures(plain), _signatures(whole),
        f"{spec.name}: vectorized vs whole-function scalar",
    )

    partial_entries = 0
    for i in range(hits):
        with inject(FaultPlan(site="vectorize_block", after=i, times=1)), \
                telemetry.collect() as session:
            module = build_impl(spec, "parsimony")
        # The plan fired inside the build.  Outside it the launch runs on
        # the default engine (an armed plan would keep it on the
        # reference engine), so the degraded build is also checked under
        # codegen.
        got = run_impl(spec, "parsimony", module=module)
        _assert_bit_identical(
            _signatures(got), _signatures(whole),
            f"{spec.name}: fault at block emission {i}",
        )
        partials = session.partial_fallbacks
        fulls = session.fallbacks
        # The fault fired inside some SPMD function, so *some* degradation
        # must be on record — and attributed, not silently swallowed.
        assert partials or fulls, f"{spec.name}: fault {i} left no record"
        for entry in partials:
            partial_entries += 1
            assert entry["regions"], entry
            assert 0 < entry["blocks_scalarized"] <= entry["blocks_total"]
            assert 0 < entry["instrs_scalarized"] <= entry["instrs_total"]
            # Region granularity must have preserved vector code: at least
            # one block of the function stayed vectorized.
            assert entry["block_fraction"] < 1.0, entry
            for region in entry["regions"]:
                assert region["reason"]["error"] == "InjectedFault"
                assert region["blocks"], region
        degraded = _partial_functions(module)
        assert len(degraded) == len(partials)

    # Every fig4 kernel has at least one non-entry vectorizable block, so
    # the matrix must have exercised the region path at least once.
    assert partial_entries > 0, f"{spec.name}: region fallback never engaged"


def test_partial_fallback_execstats_deterministic():
    spec = BY_NAME["mandelbrot"]
    hits = _count_block_emissions(spec)
    module = None
    for i in range(hits):
        with inject(FaultPlan(site="vectorize_block", after=i, times=1)):
            candidate = build_impl(spec, "parsimony")
        if _partial_functions(candidate):
            module = candidate
            break
    assert module is not None, "no fault index produced a partial fallback"

    first = run_impl(spec, "parsimony", module=module).stats
    second = run_impl(spec, "parsimony", module=module).stats
    assert first.cycles == second.cycles
    assert first.instructions == second.instructions
    assert dict(first.counts) == dict(second.counts)


def test_whole_function_fault_still_degrades_whole_function():
    # Faults at the "vectorize" site carry no block provenance, so the
    # pre-existing whole-function degradation path must be taken verbatim.
    spec = BY_NAME["mandelbrot"]
    with inject(FaultPlan(site="vectorize")), telemetry.collect() as session:
        module = build_impl(spec, "parsimony")
    assert session.fallbacks
    assert not session.partial_fallbacks
    assert not _partial_functions(module)


def _region_helpers(module):
    return [
        f for f in module.functions.values()
        if f.attrs.get("parsimony_partial_region")
    ]


def test_verifier_enforces_seam_invariants():
    spec = BY_NAME["mandelbrot"]
    hits = _count_block_emissions(spec)
    module = None
    for i in range(hits):
        with inject(FaultPlan(site="vectorize_block", after=i, times=1)):
            candidate = build_impl(spec, "parsimony")
        if _region_helpers(candidate):
            module = clone_module(candidate)  # the test edits attrs below
            break
    assert module is not None
    helper = _region_helpers(module)[0]

    verify_function(helper)  # well-formed as emitted

    helper.attrs["noinline"] = False
    with pytest.raises(VerificationError, match="noinline"):
        verify_function(helper)
    helper.attrs["noinline"] = True

    saved = helper.spmd
    helper.spmd = object()  # the invariant only checks presence
    with pytest.raises(VerificationError, match="SPMD annotation"):
        verify_function(helper)
    helper.spmd = saved
