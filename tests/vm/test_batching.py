"""Gang-batching equivalence (issue 5 tentpole).

The batching layer widens the vectorized gang loop from G to G×B lanes
and must be **invisible** to everything but wall-clock:

* every fig4 kernel's batched build is bit-identical to the unbatched
  build on outputs *and* ``ExecStats`` (cycles, instructions, per-opcode
  counts — the narrow-prototype charging contract);
* a budget trap that lands inside a batched chunk replays that chunk on
  the unbatched twin, reproducing the trap's message, stats, and memory
  effects exactly;
* cross-gang-unsafe kernels (atomics, gang-sync shuffles/reductions,
  private alloca storage, partial-fallback seams) are rejected by the
  legality scan, run unbatched, and surface in ``vm.batch.rejected``.
"""

import numpy as np
import pytest

from repro import autotune, telemetry
from repro.backend.batch import batch_module, batching_request, select_batch_factor
from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.diagnostics import ReproWarning
from repro.driver import compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.ir import Constant, Function, FunctionType, I32, IRBuilder, Module
from repro.passes import clone_module
from repro.vm import ExecutionLimitExceeded, Interpreter

SPECS = {spec.name: spec for spec in BENCHMARKS}


def _assert_stats_equal(got, want, context):
    assert got.cycles == want.cycles, f"{context}: cycles diverge"
    assert got.instructions == want.instructions, (
        f"{context}: instruction counts diverge")
    assert dict(got.counts) == dict(want.counts), (
        f"{context}: per-opcode counts diverge")


# ---------------------------------------------------------------------------
# fig4-wide differential: batched vs unbatched, outputs and ExecStats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SPECS))
def test_fig4_batched_matches_unbatched(name, monkeypatch):
    spec = SPECS[name]
    batched = run_impl(spec, "parsimony")
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = run_impl(spec, "parsimony")

    _assert_stats_equal(batched.stats, unbatched.stats, name)
    sig_b, sig_u = batched.output_signature(), unbatched.output_signature()
    assert len(sig_b) == len(sig_u), name
    for got, want in zip(sig_b, sig_u):
        np.testing.assert_array_equal(got, want, err_msg=name)


# ---------------------------------------------------------------------------
# mid-batch budget-trap replay
# ---------------------------------------------------------------------------

#: Divergent per-lane loop (trip count varies with the thread index), so a
#: mid-run trap lands inside a batched chunk with live activity masks.
TRAP_SRC = """
void kernel(f32* a, f32* out, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = a[i];
        f32 acc = 0.0f;
        i32 k = 0;
        i32 lim = (i32)(i % 17ul) + 3;
        while (k < lim) {
            acc = acc + x * 0.25f + (f32)k;
            k = k + 1;
        }
        out[i] = acc;
    }
}
"""

_TRAP_N = 256


def _run_trapping(module, budget):
    interp = Interpreter(module, max_instructions=budget)
    rng = np.random.default_rng(7)
    a = interp.memory.alloc_array(rng.random(_TRAP_N, dtype=np.float32))
    out = interp.memory.alloc_array(np.zeros(_TRAP_N, np.float32))
    trap = None
    try:
        interp.run("kernel", a, out, _TRAP_N)
    except ExecutionLimitExceeded as exc:
        trap = str(exc)
    return trap, interp.stats, interp.memory.read_array(
        out, np.float32, _TRAP_N), interp


def test_mid_batch_budget_trap_replays_bit_exactly(monkeypatch):
    batched = compile_parsimony(TRAP_SRC)
    assert batched.attrs.get("batch_applied"), batched.attrs.get("batch_rejected")
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    reference = compile_parsimony(TRAP_SRC)
    assert "batch_factor" not in reference.attrs
    monkeypatch.delenv("REPRO_NO_BATCH")

    # Total instruction count of a clean run, to aim budgets mid-stream.
    _, clean_stats, clean_out, _ = _run_trapping(reference, 500_000_000)
    total = clean_stats.instructions

    # A generous budget does not trap and replays nothing.
    trap, stats, out, interp = _run_trapping(batched, 500_000_000)
    assert trap is None and interp.batch_replays == 0
    _assert_stats_equal(stats, clean_stats, "clean batched run")
    np.testing.assert_array_equal(out, clean_out)

    # Budgets landing inside the batched region: the trap message, stats,
    # and memory effects must reproduce the unbatched engine's exactly,
    # via one gang-by-gang replay of the trapping chunk.
    for budget in (total // 4, total // 2, total - 1):
        want_trap, want_stats, want_out, _ = _run_trapping(reference, budget)
        assert want_trap is not None
        got_trap, got_stats, got_out, interp = _run_trapping(batched, budget)
        assert got_trap == want_trap, f"budget={budget}"
        assert interp.batch_replays == 1, f"budget={budget}"
        _assert_stats_equal(got_stats, want_stats, f"budget={budget}")
        np.testing.assert_array_equal(got_out, want_out,
                                      err_msg=f"budget={budget}")


# ---------------------------------------------------------------------------
# legality-rejection matrix
# ---------------------------------------------------------------------------

_TEMPLATE = """
void kernel(u32* a, u32* out, u64 n) {{
    psim (gang_size=8, num_threads=n) {{
        u64 i = psim_get_thread_num();
        {body}
    }}
}}
"""

REJECTED = {
    "atomic": (
        # The atomic fastpath lowers this through per-lane extracts; either
        # the atomicrmw itself or its extractelement chain trips the scan.
        "u32 v = a[i];\n        psim_atomic_add(out, v);",
        "in gang loop",
    ),
    "gang_shuffle": (
        "u32 v = a[i];\n        out[i] = psim_shuffle_sync(v, psim_get_lane_num() ^ 1);",
        "shuffle",
    ),
    "gang_reduction": (
        "u32 v = psim_reduce_add_sync(a[i]);\n        out[i] = v;",
        "reduce",
    ),
    "private_alloca": (
        "u32 V[4];\n        V[0] = a[i];\n        V[1] = V[0] + 1u;\n"
        "        V[2] = V[1] + 1u;\n        V[3] = V[2] + 1u;\n"
        "        out[i] = V[(u64)(a[i] % 4u)];",
        "alloca",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_legality_rejects_cross_gang_unsafe_kernels(case):
    body, expect = REJECTED[case]
    module = compile_parsimony(_TEMPLATE.format(body=body),
                               module_name=f"reject.{case}")
    assert not module.attrs.get("batch_applied"), case
    rejected = module.attrs.get("batch_rejected")
    assert rejected, f"{case}: kernel was not marked rejected"
    reasons = " | ".join(entry["reason"] for entry in rejected)
    assert expect in reasons, f"{case}: {reasons}"

    # Rejected kernels still execute correctly — just unbatched.
    interp = Interpreter(module)
    a = interp.memory.alloc_array(np.arange(1, 33, dtype=np.uint32))
    out = interp.memory.alloc_array(np.zeros(32, np.uint32))
    interp.run("kernel", a, out, 32)
    assert interp.batch_replays == 0


def test_partial_fallback_seam_is_rejected():
    """A region-granular scalar fallback outlines part of the gang loop
    into an internal call; the batcher must refuse to widen across it."""
    src = _TEMPLATE.format(
        body="u32 v = a[i];\n"
             "        if (v > 16u) { v = v * 3u; } else { v = v + 7u; }\n"
             "        out[i] = v;")
    seam = None
    for after in range(8):
        with inject(FaultPlan(site="vectorize_block", after=after, times=1)):
            module = compile_parsimony(src, module_name=f"seam.{after}")
        if any(f.attrs.get("parsimony_partial_fallback")
               for f in module.functions.values()):
            seam = module
            break
    assert seam is not None, "no fault offset produced a partial fallback"

    # Fault injection already gates batching off in the driver; feeding the
    # seamed module to the pass directly must hit the legality wall too.
    report = batch_module(clone_module(seam), None)
    assert not report["applied"]
    assert report["rejected"], report
    # Outlining stages region state through allocas and an internal call;
    # whichever the scan reaches first, the seam must not be widened over.
    reasons = " | ".join(r for _, _, r in report["rejected"])
    assert ("partial-fallback seam" in reasons or "alloca" in reasons
            or "gang loop" in reasons), reasons


def test_rejections_surface_in_telemetry():
    spec = SPECS["binomial_options"]
    with telemetry.collect() as session:
        run_impl(spec, "parsimony")
    totals = session.vm_batch_totals()
    assert totals["vm.batch.rejected"] > 0, totals
    assert totals["vm.batch.applied"] == 0, totals


# ---------------------------------------------------------------------------
# batch-factor selection
# ---------------------------------------------------------------------------

def test_batch_factor_selection():
    # Auto: largest power of two keeping G*B within the lane target.
    assert select_batch_factor(8) * 8 <= 256
    assert select_batch_factor(8) >= 2
    # Requests floor to a power of two; 0/1 disable.
    assert select_batch_factor(8, 8) == 8
    assert select_batch_factor(8, 7) == 4
    assert select_batch_factor(8, 1) == 1
    assert select_batch_factor(8, 0) == 1


# ---------------------------------------------------------------------------
# environment-knob parsing
# ---------------------------------------------------------------------------

def test_batching_request_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    assert batching_request() is None
    monkeypatch.setenv("REPRO_BATCH", "8")
    assert batching_request() == 8
    # Disable always wins over a forced factor.
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert batching_request() == 0


def test_unparsable_batch_request_warns(monkeypatch):
    """An unparsable REPRO_BATCH is a misconfiguration, not a silent auto
    request: the fallback to the cost model must come with a structured
    warning (issue 6 satellite)."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    monkeypatch.setenv("REPRO_BATCH", "banana")
    with pytest.warns(ReproWarning, match="unparsable REPRO_BATCH") as caught:
        assert batching_request() is None
    diag = caught[0].message.diagnostic
    assert diag.stage == "backend"
    assert diag.pass_name == "batch"
    assert diag.detail == {"variable": "REPRO_BATCH", "value": "banana"}


# ---------------------------------------------------------------------------
# non-power-of-two gang sizes
# ---------------------------------------------------------------------------

def _step_loop_module(step):
    """A module holding the canonical gang loop with the given step — the
    front-end refuses non-power-of-two gang sizes outright, so exercising
    the batcher's own rejection path needs hand-built IR."""
    f = Function("kernel", FunctionType(I32, (I32,)), ["n"])
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(f, entry)
    b.br(header)
    b.position_at_end(header)
    phi = b.phi(I32, "i")
    phi.append_operand(Constant(I32, 0))
    phi.append_operand(entry)
    b.condbr(b.icmp("ult", phi, f.args[0]), body, exit_)
    b.position_at_end(body)
    nxt = b.add(phi, Constant(I32, step))
    phi.append_operand(nxt)
    phi.append_operand(body)
    b.br(header)
    b.position_at_end(exit_)
    b.ret(Constant(I32, 0))
    module = Module(f"step{step}")
    module.add_function(f)
    return module


def test_non_power_of_two_gang_size_is_a_recorded_rejection():
    """A 12-wide gang loop must not be silently left unbatched: the reason
    lands in the report and in ``module.attrs["batch_rejected"]`` — the
    record ``run_impl`` rolls up into ``vm.batch.rejected`` telemetry."""
    module = _step_loop_module(12)
    report = batch_module(module, None)
    assert not report["applied"]
    assert report["factor"] == 1
    reasons = [r for _, _, r in report["rejected"]]
    assert "non-power-of-two gang size 12" in reasons, reasons
    recorded = module.attrs["batch_rejected"]
    assert any(e["reason"] == "non-power-of-two gang size 12" for e in recorded)
    assert module.attrs["batch_factor"] == 1

    # Power-of-two steps take the normal path on the identical CFG shape.
    pow2 = _step_loop_module(8)
    report = batch_module(pow2, None)
    assert not any("non-power-of-two" in r for _, _, r in report["rejected"])


# ---------------------------------------------------------------------------
# profile-guided selection (issue 6 tentpole): the autotune state machine
# ---------------------------------------------------------------------------

@pytest.fixture
def tuner_store(tmp_path, monkeypatch):
    """Isolated on-disk profile store + clean counters per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    autotune.reset_stats()
    yield tmp_path
    autotune.clear()
    autotune.reset_stats()


def test_choose_factor_needs_a_decisive_win():
    # Real batching wins are multiples: far outside the margin.
    assert autotune.choose_factor({1: 10.0, 16: 2.0}) == 16
    # A batched config that merely ties (within PIN_MARGIN) loses to the
    # safe unbatched side — sampling noise must not pin it.
    assert autotune.choose_factor({1: 10.0, 2: 9.0}) == 1
    # Just inside the margin still ties; decisively past it, batching wins.
    assert autotune.choose_factor({1: 10.0, 2: 10.0 / autotune.PIN_MARGIN}) == 1
    assert autotune.choose_factor({1: 10.0, 2: 10.0 / autotune.PIN_MARGIN - 1e-6}) == 2
    assert autotune.choose_factor({1: 26.0}) == 1


def test_measure_pin_decision_cycle(tuner_store):
    fp = autotune.fingerprint("void kernel() {}")
    engine = autotune.engine_config()
    assert engine == "avx512"

    dec = autotune.decision(fp, engine)
    assert dec["state"] == "measure"
    assert dec["requests"] == autotune.CANDIDATE_REQUESTS

    measured = {1: 0.010, 16: 0.002}
    for factor, wall in measured.items():
        autotune.record_measurement(fp, engine, factor, wall)
    best = autotune.choose_factor(measured)
    assert best == 16
    reason = autotune.pin(fp, engine, best, measured[best], measured,
                          request=None)
    assert "measured fastest" in reason

    dec = autotune.decision(fp, engine)
    assert dec["state"] == "pinned"
    assert dec["factor"] == 16
    # The pin replays the *request* the winner compiled from (auto here):
    # a forced factor batches multi-gang-loop kernels differently.
    assert dec["request"] is None
    assert autotune.stats()["pins"] == 1
    assert autotune.stats()["measurements"] == 2


def test_pin_margin_prefers_smaller_factor_reason(tuner_store):
    fp = autotune.fingerprint("tie")
    engine = autotune.engine_config()
    measured = {1: 0.010, 2: 0.009}
    best = autotune.choose_factor(measured)
    assert best == 1
    reason = autotune.pin(fp, engine, best, measured[best], measured,
                          request=0)
    assert "preferring simpler B" in reason
    assert autotune.pinned_request(fp, engine) == 0


def test_deopt_drops_pin_after_sustained_regression(tuner_store):
    fp = autotune.fingerprint("deopt")
    engine = autotune.engine_config()
    autotune.pin(fp, engine, 8, 0.010, {1: 0.050, 8: 0.010}, request=8)

    slow = autotune.DEOPT_RATIO * 0.010 * 1.1
    # One-off noise (fewer than DEOPT_WINDOW slow samples) is forgiven...
    for _ in range(autotune.DEOPT_WINDOW - 1):
        assert autotune.observe(fp, engine, 8, slow) is None
    assert autotune.decision(fp, engine)["state"] == "pinned"
    # ...a faster sample ratchets the baseline and clears the window...
    assert autotune.observe(fp, engine, 8, 0.008) is None
    for _ in range(autotune.DEOPT_WINDOW - 1):
        assert autotune.observe(fp, engine, 8, slow) is None
    # ...but a full window of slow samples drops the pin.
    assert autotune.observe(fp, engine, 8, slow) == "deopt"
    dec = autotune.decision(fp, engine)
    assert dec["state"] == "measure"
    assert "deopt" in dec["reason"]
    assert autotune.stats()["deopts"] == 1


def test_corrupt_profile_entry_is_discarded(tuner_store):
    fp = autotune.fingerprint("corrupt")
    engine = autotune.engine_config()
    autotune.pin(fp, engine, 2, 0.001, {1: 0.010, 2: 0.001}, request=2)
    path = autotune._entry_path(fp, engine)
    assert path.exists()

    autotune._ENTRY_CACHE.clear()
    path.write_text("{ not json")
    dec = autotune.decision(fp, engine)
    assert dec["state"] == "measure"
    assert not path.exists()  # damaged entry unlinked, not resurrected
    assert autotune.stats()["errors"] >= 1


def test_autotuned_stencil_matches_unbatched_bitwise(tuner_store, monkeypatch):
    """The issue-6 acceptance pair: REPRO_AUTOTUNE=1 on the regression
    kernel (stencil) yields outputs and ExecStats bit-identical to the
    plain unbatched engine, and the sweep surfaces measure/pin telemetry."""
    monkeypatch.setenv("REPRO_AUTOTUNE_REPS", "1")
    spec = SPECS["stencil"]

    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = run_impl(spec, "parsimony")
    monkeypatch.delenv("REPRO_NO_BATCH")

    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    with telemetry.collect() as session:
        tuned = run_impl(spec, "parsimony")   # measurement sweep + pin
        pinned = run_impl(spec, "parsimony")  # rehydrates the pin

    _assert_stats_equal(tuned.stats, unbatched.stats, "stencil autotuned")
    _assert_stats_equal(pinned.stats, unbatched.stats, "stencil pinned")
    for got, want in zip(tuned.output_signature(),
                         unbatched.output_signature()):
        np.testing.assert_array_equal(got, want)

    totals = session.vm_autotune_totals()
    assert totals.get("vm.autotune.measure", 0) >= 2, totals
    assert totals.get("vm.autotune.pin") == 1, totals
    states = [r["autotune"]["state"] for r in session.vm_runs
              if r.get("autotune")]
    assert states == ["measured", "pinned"], states
