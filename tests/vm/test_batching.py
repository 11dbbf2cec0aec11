"""Gang-batching equivalence (issue 5 tentpole).

The batching layer widens the vectorized gang loop from G to G×B lanes
and must be **invisible** to everything but wall-clock:

* every fig4 kernel's batched build is bit-identical to the unbatched
  build on outputs *and* ``ExecStats`` (cycles, instructions, per-opcode
  counts — the narrow-prototype charging contract);
* a budget trap that lands inside a batched chunk replays that chunk on
  the unbatched twin, reproducing the trap's message, stats, and memory
  effects exactly;
* cross-gang-unsafe kernels (per-lane atomics, runtime-index shuffles,
  per-gang values reaching an address, private storage read through a
  gather, internal calls) are rejected by the legality scan, run
  unbatched, and surface in ``vm.batch.rejected``;
* the gang-local horizontal forms — constant-index shuffles, integer
  reductions feeding a broadcast or an atomic — and strided stores batch,
  bit-identically (the acceptance matrix);
* the auto factor is the cost model's lane target, for a gang loop
  nested in a row loop too (its trip spans the gangs of several rows),
  and a forced request beats it.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.backend.batch import batch_module, select_batch_factor
from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.simdlib import KERNELS
from repro.driver import compile_parsimony
from repro.ir import Constant, Function, FunctionType, I32, IRBuilder, Module
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
def test_fig4_batched_matches_unbatched(name):
    spec = SPECS[name]
    batched = run_impl(spec, "parsimony")
    unbatched = run_impl(spec, "parsimony", module=compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony", batch_request=0))

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
    reference = compile_parsimony(TRAP_SRC, batch_request=0)
    assert "batch_factor" not in reference.attrs

    # Total instruction count of a clean run, to aim budgets mid-stream.
    _, clean_stats, clean_out, _ = _run_trapping(reference, 500_000_000)
    total = clean_stats.instructions

    # A generous budget does not trap and replays nothing.
    trap, stats, out, interp = _run_trapping(batched, 500_000_000)
    assert trap is None and interp.codegen_report()["replays"] == 0
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
        assert interp.codegen_report()["replays"] == 1, f"budget={budget}"
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
        # The vectorizer serializes this per lane; a serialized add runs as
        # a scatter-add (ACCEPTED below), a max keeps the extractelement
        # chain, which trips the scan.
        "u32 v = a[i];\n        psim_atomic_max(out, v);",
        "in gang loop",
    ),
    # A constant-index shuffle batches (ACCEPTED below); an index read
    # from memory differs per gang.
    "gang_shuffle": (
        "u32 v = a[i];\n        out[i] = psim_shuffle_sync(v, a[i] & 7u);",
        "shuffle with a runtime index",
    ),
    # A per-gang sum may feed a broadcast or an atomic, not an address.
    "gang_reduction": (
        "u32 s = psim_reduce_add_sync(a[i]);\n"
        "        out[i] = a[i + (u64)(s & 7u)];",
        "per-gang value reaches an address",
    ),
    # Private storage read at a varying index: a gather, which per-gang
    # expansion does not serve (packed rows at uniform offsets only).
    "private_alloca": (
        "u32 V[4];\n        V[0] = a[i];\n        V[1] = V[0] + 1u;\n"
        "        V[2] = V[1] + 1u;\n        V[3] = V[2] + 1u;\n"
        "        out[i] = V[(u64)(a[i] % 4u)];",
        "private storage read through a gather",
    ),
    # Gang k reads and writes the rows below gang 0's: the per-gang delta
    # is negative, read as a signed 64-bit coefficient.
    "reversed": (
        "out[n - 1 - i] = a[n - 1 - i];",
        "vload rows overlap across gangs (stride -32 below the 32-byte row)",
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
    assert interp.codegen_report()["replays"] == 0


# ---------------------------------------------------------------------------
# legality-acceptance matrix: the gang-local forms that batch
# ---------------------------------------------------------------------------

#: case -> (kernel body, a batched form its IR must print; ``batch.exit``,
#: the batched loop's exit block, when the form is just a wider trip).
ACCEPTED = {
    "constant_shuffle": (
        "u32 v = a[i];\n        out[i] = psim_shuffle_sync(v, psim_get_lane_num() ^ 1);",
        "segments",
    ),
    "stride3_store": (
        "u32 v = a[i];\n        out[3 * i] = v;\n        out[3 * i + 1] = v + 1u;\n"
        "        out[3 * i + 2] = v + 2u;",
        "row_stride",
    ),
    "reduce_atomic_add": (
        "u32 s = psim_reduce_add_sync(a[i] * 3u);\n"
        "        if (psim_get_lane_num() == 0) { psim_atomic_add(out, s); }",
        "segments",
    ),
    "reduce_atomic_umin": (
        "u32 s = psim_reduce_min_sync(a[i] ^ 5u);\n"
        "        if (psim_get_lane_num() == 0) { psim_atomic_min(out, s); }",
        "segments",
    ),
    "reduce_broadcast_store": (
        "u32 s = psim_reduce_add_sync(a[i]);\n        out[i] = a[i] + s;",
        "segments",
    ),
    # A shift by a constant scales the per-gang delta like a multiply.
    "shl_store": (
        "out[i << 1] = a[i];",
        "row_stride",
    ),
    # An op the affine form cannot see into, over loop-invariant
    # operands, is an opaque invariant term of the address.
    "opaque_offset": (
        "u64 k = (n / 3) ^ 5;\n        out[i + k] = a[i];",
        "batch.exit",
    ),
    # A scalar phi fed only by gang-invariant values stays invariant.
    "invariant_phi": (
        "u32 s = a[i];\n        for (u32 j = 0u; j < 4u; j++) s = s + j;\n"
        "        out[i] = s;",
        "batch.exit",
    ),
    # Serialized atomic adds run as one scatter-add per trip: on a cell
    # the data picks, under a mask, and on one cell for every lane.
    "scatter_add": (
        "psim_atomic_add(out + (u64)(a[i] & 7u), a[i]);",
        "atomicrmw add <",
    ),
    "masked_scatter_add": (
        "if ((a[i] & 3u) != 0u) { psim_atomic_add(out + (u64)(a[i] & 7u), 1u); }",
        "atomicrmw add <",
    ),
    "uniform_cell_add": (
        "u32 v = a[i];\n        psim_atomic_add(out, v);",
        "atomicrmw add <",
    ),
}

#: Threads for the acceptance runs: not a multiple of G·B, so full
#: batched trips and a predicated last trip both run.
_N_ACCEPT = 200


def _run_accepted(module, **engine):
    interp = Interpreter(module, **engine)
    rng = np.random.default_rng(11)
    a = interp.memory.alloc_array(
        rng.integers(0, 1 << 32, _N_ACCEPT, dtype=np.uint64).astype(np.uint32))
    init = np.zeros(3 * _N_ACCEPT, np.uint32)
    init[0] = 0xFFFFFFFF  # the atomic-min cell starts high
    out = interp.memory.alloc_array(init)
    interp.run("kernel", a, out, _N_ACCEPT)
    return {
        "out": interp.memory.read_array(out, np.uint32, 3 * _N_ACCEPT).tolist(),
        "stats": (interp.stats.cycles, interp.stats.instructions,
                  dict(interp.stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
        "replays": interp.codegen_report()["replays"],
    }


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_legality_accepts_gang_local_forms(case):
    """Constant-index shuffles, strided stores, integer reductions feeding
    an atomic or a broadcast, and serialized atomic adds batch — and stay
    invisible: outputs,
    ``ExecStats``, the memory image and its extent match the unbatched
    build on both engines, at the cost model's factor and at B=4."""
    from repro.ir.printer import print_module

    body, form = ACCEPTED[case]
    src = _TEMPLATE.format(body=body)
    want = _run_accepted(compile_parsimony(src, batch_request=0), codegen=False)
    for request in (None, 4):
        module = compile_parsimony(src, module_name=f"accept.{case}",
                                   batch_request=request)
        assert module.attrs.get("batch_applied"), module.attrs.get("batch_rejected")
        assert form in print_module(module), case
        for engine in ({}, {"codegen": False}):
            assert _run_accepted(module, **engine) == want, (case, request, engine)


#: Two stores whose footprints interleave across gangs: thread i writes
#: dst[i] and dst[i + 1], so gang k's second store writes the byte gang
#: k+1's first store writes.  Both stores advance one element per thread,
#: which a per-store rule accepts; in the batched order gang k's second
#: store would clobber gang k+1's first one.
OVERLAP_SRC = """
void kernel(u8* a, u8* dst, u64 n) {
    psim (gang_size=64, num_threads=n) {
        u64 i = psim_get_thread_num();
        dst[i] = a[i];
        dst[i + 1] = a[i] + (u8)1;
    }
}
"""

#: Two stores to one base advancing by different per-gang deltas.
TWO_DELTA_SRC = """
void kernel(u8* a, u8* dst, u64 n) {
    psim (gang_size=64, num_threads=n) {
        u64 i = psim_get_thread_num();
        dst[i] = a[i];
        dst[2 * i + 1] = a[i] + (u8)1;
    }
}
"""


@pytest.mark.parametrize("src, reason", [
    (OVERLAP_SRC,
     "lockstep reverses a write-after-write dependence at distance 1"),
    (TWO_DELTA_SRC, "accesses to one base advance by different steps"),
], ids=["overlapping_stores", "two_deltas_one_base"])
def test_stores_that_may_meet_across_gangs_stay_unbatched(src, reason):
    n = 1024

    def run(module):
        interp = Interpreter(module)
        rng = np.random.default_rng(3)
        a = interp.memory.alloc_array(rng.integers(0, 256, n, dtype=np.uint8))
        dst = interp.memory.alloc_array(np.zeros(4 * n, np.uint8))
        interp.run("kernel", a, dst, n)
        return interp.memory.read_array(dst, np.uint8, 4 * n)

    module = compile_parsimony(src)
    reasons = [r["reason"] for r in module.attrs.get("batch_rejected", ())]
    want = run(compile_parsimony(src, batch_request=0))
    np.testing.assert_array_equal(run(module), want)
    assert reasons == [reason], reasons


def test_recursive_internal_call_is_rejected():
    """A recursive user function survives inlining as an internal call in
    the gang loop; the batcher names the callee and leaves the loop
    unbatched, bit-identical to the unbatched build."""
    src = """
i32 f(i32 x) {
    if (x <= (i32)0) { return (i32)0; }
    return x + f(x - (i32)1);
}

void kernel(i32* a, i32* b, i32 k, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        b[i] = a[i] + f(k);
    }
}
"""
    n = 100

    def run(module):
        interp = Interpreter(module)
        a = interp.memory.alloc_array(np.arange(n, dtype=np.int32))
        b = interp.memory.alloc_array(np.zeros(n, np.int32))
        interp.run("kernel", a, b, 5, n)
        return interp.memory.read_array(b, np.int32, n), interp.stats

    module = compile_parsimony(src)
    assert not module.attrs.get("batch_applied")
    reasons = [r["reason"] for r in module.attrs["batch_rejected"]]
    assert reasons == ["internal call to @f in gang loop"], reasons
    got, got_stats = run(module)
    want, want_stats = run(compile_parsimony(src, batch_request=0))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(want, np.arange(n) + 15)
    _assert_stats_equal(got_stats, want_stats, "recursive call")


def test_rejections_surface_in_telemetry():
    spec = {s.name: s for s in KERNELS}["Reorder16bit"]
    with telemetry.collect() as session:
        run_impl(spec, "parsimony")
    totals = session.vm_batch_totals()
    assert totals["vm.batch.rejected"] > 0, totals
    assert totals["vm.batch.applied"] == 0, totals


# ---------------------------------------------------------------------------
# batch-factor selection
# ---------------------------------------------------------------------------

def test_batch_factor_selection():
    # Auto: the largest power of two keeping G*B within the one lane
    # target; a gang at the target is not batched.
    assert select_batch_factor(8) == 128
    assert select_batch_factor(16) == 64
    assert select_batch_factor(64) == 16
    assert select_batch_factor(1024) == 1
    # Requests floor to a power of two; 0/1 disable.
    assert select_batch_factor(8, 8) == 8
    assert select_batch_factor(8, 7) == 4
    assert select_batch_factor(8, 1) == 1
    assert select_batch_factor(8, 0) == 1


#: The auto factor of every fig4 and fig5 kernel: the cost model's one
#: lane target (1024 lanes, whatever the loop shape), also for the row
#: nests — stencil (G=16) and the fig5 kernels that walk an image row by
#: row (G=64), whose trips span rows × gangs (1: nothing batched, see
#: ``test_batch_forms.py`` for why).
AUTO_FACTORS = {
    1: "AbsDifferenceSumMasked Reorder16bit Reorder32bit",
    16: "AbsGradientSaturatedSum GaussianBlur3x3 GetAbsDyRowSums GetRowSums "
        "Laplace LaplaceAbs LbpEstimate MeanFilter3x3 MedianFilter3x3 "
        "MedianFilterRhomb3x3 SobelDx SobelDxAbs SobelDy SobelDyAbs "
        "AbsDifference AbsDifferenceSum AlphaBlending AlphaFilling "
        "AlphaPremultiply BackgroundAdjustRange BackgroundGrowRangeFast "
        "BackgroundGrowRangeSlow BackgroundIncrementCount BackgroundInitMask "
        "BackgroundShiftRange BgrToBgra BgrToGray BgraToBgr BgraToGray "
        "Binarization ChangeColors ConditionalCount8u Copy CorrelationSum "
        "DeinterleaveUv EdgeBackgroundGrowRangeFast "
        "EdgeBackgroundGrowRangeSlow Fill FillBgr FillBgra GetStatistic "
        "GrayToBgr GrayToBgra InterleaveUv OperationBinary8uAnd "
        "OperationBinary8uAverage OperationBinary8uMaximum "
        "OperationBinary8uMinimum OperationBinary8uOr "
        "OperationBinary8uSaturatedAddition "
        "OperationBinary8uSaturatedSubtraction ReduceGray2x2 "
        "SegmentationChangeIndex ShiftBilinear SquareSum SquaredDifference "
        "SquaredDifferenceSum StretchGray2x2 TextureBoostedUv "
        "TexturePerformCompensation ValueSum",
    32: "Int16ToGray InterferenceDecrement InterferenceIncrement "
        "OperationBinary16iAddition OperationBinary16iSaturatedSubtraction",
    64: "aobench binomial_options mandelbrot volume_rendering "
        "Histogram HistogramMasked NeuralConvert noise options stencil",
}


def test_auto_factor_of_every_suite_kernel():
    want = {name: factor for factor, names in AUTO_FACTORS.items()
            for name in names.split()}
    specs = list(BENCHMARKS) + list(KERNELS)
    assert sorted(want) == sorted(spec.name for spec in specs)
    got = {
        spec.name: compile_parsimony(
            spec.psim_src, module_name=f"{spec.name}.parsimony",
        ).attrs.get("batch_factor", 1)
        for spec in specs
    }
    assert got == want


def test_forced_batch_request_overrides_the_nesting_rule():
    src = SPECS["stencil"].psim_src
    assert compile_parsimony(src, batch_request=8).attrs["batch_factor"] == 8
    assert compile_parsimony(src, batch_request=16).attrs["batch_factor"] == 16


def test_batch_request_of_one_is_the_unbatched_build():
    """A request below 2 — one, or a negative one — batches nothing: it
    hands out the unbatched build itself (one compile, one cache slot),
    not a second copy that ran the batcher for nothing and recorded a
    rejection."""
    off = compile_parsimony(TRAP_SRC, batch_request=0)
    assert compile_parsimony(TRAP_SRC, batch_request=1) is off
    assert compile_parsimony(TRAP_SRC, batch_request=-3) is off
    assert "batch_rejected" not in off.attrs


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
