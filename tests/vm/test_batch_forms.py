"""Gang batching is invisible, whatever the factor.

The batched forms — per-gang segments (constant-index shuffles, integer
reductions, the broadcasts and atomics that consume them) and
row-strided ``vload``/``vstore`` — change how many lanes one VM step
covers, never what a launch computes or what it is charged:

* every fig4 and fig5 kernel, built at the cost model's factor and at
  forced factors 2, 4, 8 and 16, runs as generated code (no bailout)
  and matches its unbatched build on the reference engine: outputs,
  ``ExecStats`` (cycles, instructions, per-opcode counts), the memory
  ``image()`` and its ``extent``.  (``codegen=False`` on a batched
  build runs that same unbatched twin, so it needs no leg of its own);
* a budget trap and an out-of-bounds access inside a batched trip replay
  on the unbatched twin bit-identically (``BgrToBgra``: row-strided
  stores; ``AbsDifferenceSum``: segmented sums folded into an atomic);
* ``Memory.load_rows``/``store_rows``, the slow path of the row form, go
  row by row through ``load_lanes``/``store_lanes``: a row traps with the
  unbatched access's text before any of its lanes is written.
"""

import numpy as np
import pytest

from repro import driver
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import BY_NAME, KERNELS as FIG5
from repro.diagnostics import ExecutionError
from repro.vm import Interpreter, Memory
from repro.vm.memory import MemoryError_

SPECS = {spec.name: spec for spec in list(FIG4) + list(FIG5)}

#: ``None``: the cost model's factor.
FACTORS = (None, 2, 4, 8, 16)


def _launch(module, spec, **engine):
    """One launch over the kernel's workload: everything batching must
    leave alone, as plain data."""
    workload = spec.workload()
    interp = Interpreter(module, **engine)
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    ret = interp.run("kernel", *addrs, *workload.scalars)
    stats = interp.stats
    return {
        "ret": ret,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
        "replays": interp.batch_replays + interp.codegen_stats["replays"],
    }, interp.codegen_report()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batching_is_invisible_at_every_factor(name):
    spec = SPECS[name]
    want, _ = _launch(
        driver.compile_parsimony(spec.psim_src, batch_request=0), spec,
        codegen=False)
    for factor in FACTORS:
        module = driver.compile_parsimony(spec.psim_src, batch_request=factor)
        got, report = _launch(module, spec)
        assert report["calls"] > 0 and not report["bailouts"], (
            name, factor, report)
        assert got == want, (name, factor)


def test_fig5_kernels_batch_but_the_known_five():
    """What stays unbatched, and why (ROADMAP's open item)."""
    rejected = {}
    for spec in FIG5:
        module = driver.compile_parsimony(spec.psim_src)
        for entry in module.attrs.get("batch_rejected", ()):
            rejected[spec.name] = entry["reason"]
    assert rejected == {
        "Reorder16bit": "gang-dependent scalar xor is not affine",
        "Reorder32bit": "gang-dependent scalar xor is not affine",
        "AbsDifferenceSumMasked": "mask_popcnt in gang loop",
        "Histogram": "extractelement in gang loop",
        "HistogramMasked": "extractelement in gang loop",
    }


# ---------------------------------------------------------------------------
# traps inside a batched trip replay on the twin
# ---------------------------------------------------------------------------

#: kernel -> the array a memory cut runs through: ``BgrToBgra``'s output
#: (row-strided stores), ``AbsDifferenceSum``'s second input (loads
#: feeding the segmented sums).
CUT = {"BgrToBgra": 1, "AbsDifferenceSum": 1}


def _trapping_launch(module, spec, budget=500_000_000, cut=None):
    """One launch; with ``cut``, the memory ends halfway through that
    array, which is allocated last."""
    workload = spec.workload()
    arrays = workload.arrays
    order = [i for i in range(len(arrays)) if i != cut]
    size = 1 << 22
    if cut is not None:
        size = 64
        for i in order:
            size = (size + 63) // 64 * 64 + arrays[i].nbytes
        size = (size + 63) // 64 * 64 + arrays[cut].nbytes // 2
        order.append(cut)
    interp = Interpreter(module, max_instructions=budget, memory=Memory(size))
    addrs = [None] * len(arrays)
    for i in order:
        if i == cut:
            addrs[i] = interp.memory.alloc(size - interp.memory.extent - 63)
        else:
            addrs[i] = interp.memory.alloc_array(arrays[i])
    trap = None
    try:
        interp.run("kernel", *addrs, *workload.scalars)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp.batch_replays


@pytest.mark.parametrize("name", sorted(CUT))
@pytest.mark.parametrize("kind", ["budget", "oob"])
def test_trap_in_a_batched_trip_replays_bit_identically(name, kind):
    spec = BY_NAME[name]
    unbatched = driver.compile_parsimony(spec.psim_src, batch_request=0)
    batched = driver.compile_parsimony(spec.psim_src)
    assert batched.attrs["batch_applied"]
    if kind == "budget":
        clean, _ = _trapping_launch(unbatched, spec)
        trap_args = {"budget": clean["stats"][1] // 2}
    else:
        trap_args = {"cut": CUT[name]}
    want, replays = _trapping_launch(unbatched, spec, **trap_args)
    assert want["trap"] is not None and replays == 0
    # Halfway through the work: the trap lands inside the gang loop.
    assert want["stats"][2].get("vstore" if name == "BgrToBgra" else "vload")
    got, replays = _trapping_launch(batched, spec, **trap_args)
    assert replays == 1
    assert got == want


# ---------------------------------------------------------------------------
# the row form's one slow path
# ---------------------------------------------------------------------------

def test_rows_go_through_the_lane_accesses_row_by_row():
    memory = Memory(4096)
    base = memory.alloc(4000)
    u2 = np.dtype(np.uint16)
    values = np.arange(24, dtype=np.uint16)
    mask = np.array([1, 0, 1, 1, 0, 0] * 4, dtype=bool)
    memory.store_rows(base, u2, values, 4, 20, mask)
    for k in range(4):
        row = memory.load_lanes(base + 20 * k, u2, 6)
        np.testing.assert_array_equal(
            row, np.where(mask[:6], values[6 * k:6 * k + 6], 0))
    np.testing.assert_array_equal(
        memory.load_rows(base, u2, 24, 4, 20, mask),
        np.where(mask, values, 0))

    # A row that leaves memory traps as its own packed access would, after
    # the rows before it were written and before any lane of it is.
    top = 4096 - 20
    memory.write_array(top - 40, np.zeros(20, np.uint16))
    with pytest.raises(MemoryError_) as rows_exc:
        memory.store_rows(top - 40, u2, values + 100, 4, 20)
    with pytest.raises(MemoryError_) as lanes_exc:
        Memory(4096).store_lanes(top + 20, u2, values[18:])
    assert str(rows_exc.value) == str(lanes_exc.value)
    written = memory.read_array(top - 40, u2, 20)
    np.testing.assert_array_equal(written[:6], values[:6] + 100)
    np.testing.assert_array_equal(written[10:16], values[6:12] + 100)
