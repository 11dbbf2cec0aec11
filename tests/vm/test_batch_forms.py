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
  stores; ``AbsDifferenceSum``: segmented sums folded into an atomic;
  the histograms: a scatter-add);
* the histograms' serialized atomics run as one scatter-add per trip:
  with their cells inside the image they count, the launch replays on
  the twin, and budget traps anywhere in a scatter-add trip replay
  bit-identically;
* the predicated last trip: every gang count from 1 to B+1, with and
  without a partial tail gang, at every B, over private storage,
  divergent loops, row-strided stores and atomics; with the arrays at the
  very end of memory (an inactive gang that touched anything would trap
  and replay); a budget trap inside a predicated trip and inside the
  expanded-storage loops of ``binomial_options``; a private array read
  before it is written, which replays on the twin;
* a gang loop whose gather may read another gang's stores stays
  unbatched (an inlined scan over the kernel's own output), and one
  whose ``vload`` is shifted into a neighbour gang's stores batches
  exactly when lockstep keeps the unbatched order of the two: a read
  of the next gang's cells before the store, or of the previous gang's
  after it.
"""

import linecache
import sys

import numpy as np
import pytest

from repro import driver
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import BY_NAME, KERNELS as FIG5
from repro.diagnostics import ExecutionError
from repro.vm import Interpreter, Memory

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
        "replays": interp.codegen_stats["replays"],
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
        # Exact ints: a ``numpy.int64`` count passes ``==`` above.
        _, instructions, counts = got["stats"]
        assert type(instructions) is int, (name, factor)
        assert all(type(n) is int for n in counts.values()), (name, factor)


def test_fig5_kernels_batch_but_the_known_three():
    """What stays unbatched, and why (ROADMAP's open item).  The
    histograms batch since their serialized atomics run as one
    scatter-add per trip."""
    rejected = {}
    for spec in FIG5:
        module = driver.compile_parsimony(spec.psim_src)
        for entry in module.attrs.get("batch_rejected", ()):
            rejected[spec.name] = entry["reason"]
    assert rejected == {
        "Reorder16bit": "gang-dependent scalar xor is not affine",
        "Reorder32bit": "gang-dependent scalar xor is not affine",
        "AbsDifferenceSumMasked": "mask_popcnt in gang loop",
    }


# ---------------------------------------------------------------------------
# traps inside a batched trip replay on the twin
# ---------------------------------------------------------------------------

#: kernel -> the array a memory cut runs through: ``BgrToBgra``'s output
#: (row-strided stores), ``AbsDifferenceSum``'s second input (loads
#: feeding the segmented sums), the histograms' cells (a scatter-add
#: whose upper cells lie past the end of memory).
CUT = {"BgrToBgra": 1, "AbsDifferenceSum": 1, "Histogram": 1,
       "HistogramMasked": 2}


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
    }, interp.codegen_report()["replays"]


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
    # The unbatched build replays once, on itself: it has no twin.
    assert want["trap"] is not None and replays == 1
    assert "unbatched_recipe" not in unbatched.attrs
    # Halfway through the work: the trap lands inside the gang loop.
    assert want["stats"][2].get("vstore" if name == "BgrToBgra" else "vload")
    got, replays = _trapping_launch(batched, spec, **trap_args)
    assert replays == 1
    assert got == want


# ---------------------------------------------------------------------------
# the scatter-add: a serialized atomic, one np.add.at per trip
# ---------------------------------------------------------------------------

HISTOGRAMS = ("Histogram", "HistogramMasked")


def _histogram_launch(module, spec, overlap=False, budget=500_000_000):
    """One launch; with ``overlap``, the histogram's cells lie inside the
    image it counts (``hist = src + 64``), which every trip reads."""
    workload = spec.workload()
    interp = Interpreter(module, max_instructions=budget)
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    if overlap:
        addrs[workload.outputs[0]] = addrs[0] + 64
    trap = None
    try:
        interp.run("kernel", *addrs, *workload.scalars)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    assert all(type(n) is int for n in stats.counts.values())
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp.codegen_report()["replays"]


@pytest.mark.parametrize("name", HISTOGRAMS)
def test_histograms_batch_as_one_scatter_add_per_trip(name):
    spec = BY_NAME[name]
    module = driver.compile_parsimony(spec.psim_src)
    assert module.attrs["batch_applied"] == [
        f"kernel:gang.header scatter-add %{'old.5' if name == 'Histogram' else 'old.8'}"
        " x16 lanes"]
    got, replays = _histogram_launch(module, spec)
    want, _ = _histogram_launch(
        driver.compile_parsimony(spec.psim_src, batch_request=0), spec)
    assert replays == 0 and got == want


@pytest.mark.parametrize("name", HISTOGRAMS)
def test_scatter_add_over_its_own_input_replays_on_the_twin(name):
    """The cells meet the image the trip reads: an update of an earlier
    gang would reach a later gang's load unbatched, so the trip must not
    reorder them — the launch replays on the unbatched twin."""
    spec = BY_NAME[name]
    want, replays = _histogram_launch(
        driver.compile_parsimony(spec.psim_src, batch_request=0), spec,
        overlap=True)
    assert replays == 0 and want["trap"] is None
    got, replays = _histogram_launch(
        driver.compile_parsimony(spec.psim_src), spec, overlap=True)
    assert replays == 1
    assert got == want


@pytest.mark.parametrize("name", HISTOGRAMS)
@pytest.mark.parametrize("part", range(1, 8))
def test_budget_trap_in_a_scatter_add_trip_replays_bit_identically(name, part):
    """Budgets spread over the launch: the crossing lands on each kind of
    check of a trip — the body's, the scatter-add's own (its lanes, once
    per active lane under a mask) and the backedge's."""
    spec = BY_NAME[name]
    unbatched = driver.compile_parsimony(spec.psim_src, batch_request=0)
    clean, _ = _histogram_launch(unbatched, spec)
    budget = clean["stats"][1] * part // 8
    want, _ = _histogram_launch(unbatched, spec, budget=budget)
    assert want["trap"] is not None and want["stats"][2].get("atomicrmw")
    got, replays = _histogram_launch(
        driver.compile_parsimony(spec.psim_src), spec, budget=budget)
    assert replays == 1
    assert got == want


# ---------------------------------------------------------------------------
# the predicated last trip, and private storage expanded per gang
# ---------------------------------------------------------------------------

_MATRIX_TEMPLATE = """
void kernel(u32* a, u32* out, u64 n) {{
    psim (gang_size=8, num_threads=n) {{
        u64 i = psim_get_thread_num();
        u32 v = a[i];
        {body}
    }}
}}
"""

#: kernel -> body: each a batched form the predicated trip must mask.
MATRIX = {
    # SoA rows of a private array at uniform offsets, written and read in
    # divergent loops whose counters are gang-invariant scalar phis.
    "private": "u32 V[4];\n"
               "        for (i32 k = 0; k < 4; k++) { V[(u64)k] = v + (u32)k; }\n"
               "        u32 acc = 0u;\n"
               "        for (i32 k = 0; k < 4; k++) {\n"
               "            acc = acc + V[(u64)k] * (u32)(k + 1);\n        }\n"
               "        out[i] = acc;",
    # Per-lane trip counts: activity counts over the active gangs only.
    "divergent": "u32 k = 0u;\n"
                 "        while (v > 1u && k < 40u) {\n"
                 "            if ((v & 1u) == 1u) { v = 3u * v + 1u; } else { v = v >> 1; }\n"
                 "            k = k + 1u;\n        }\n"
                 "        out[i] = k;",
    "row_strided": "out[3 * i] = v;\n        out[3 * i + 1] = v + 1u;\n"
                   "        out[3 * i + 2] = v + 2u;",
    "atomic": "u32 s = psim_reduce_add_sync(v * 3u);\n"
              "        if (psim_get_lane_num() == 0) { psim_atomic_add(out, s); }",
    # A mask known at emit time that ends before the gang does: every
    # gang's last lanes stay unwritten, in the trip's span too.
    "prefix": "if (psim_get_lane_num() < 5) { out[i] = v * 3u + 1u; }",
    # A known mask with holes up to the gang's last lane.
    "holes": "if ((psim_get_lane_num() & 1) == 1) { out[i] = v * 5u; }",
}

#: A private row read before any thread wrote it: the unbatched gangs read
#: the zeroed block, the batched trip has no copy of it and replays.
READ_BEFORE_WRITE = (
    "u32 V[4];\n"
    "        for (i32 k = 1; k < 4; k++) { V[(u64)k] = v + (u32)k; }\n"
    "        u32 acc = 0u;\n"
    "        for (i32 k = 0; k < 4; k++) { acc = acc + V[(u64)k]; }\n"
    "        out[i] = acc;")


def _matrix_launch(module, n, budget=500_000_000, last=None):
    """One launch over ``n`` threads.  With ``last`` (``"a"`` or
    ``"out"``), that array is allocated last and memory ends where it
    does — past the kernel's allocas, which the launch allocates after
    it."""
    rng = np.random.default_rng(n)
    arrays = {"a": rng.integers(0, 1 << 16, n, dtype=np.uint32),
              "out": np.zeros(3 * n + 1, np.uint32)}
    order = ["out", "a"] if last == "a" else ["a", "out"]
    size = 1 << 22
    if last is not None:
        size = 64
        for nbytes in [arrays[name].nbytes for name in order] + [
                i.type.pointee.size_bytes() * i.attrs.get("count", 1)
                for i in module.get("kernel").instructions()
                if i.opcode == "alloca"]:
            size = (size + 63) // 64 * 64 + nbytes
    interp = Interpreter(module, max_instructions=budget, memory=Memory(size))
    addrs = {name: interp.memory.alloc_array(arrays[name]) for name in order}
    trap = None
    try:
        interp.run("kernel", addrs["a"], addrs["out"], n)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp


def _matrix_module(body, factor):
    module = driver.compile_parsimony(_MATRIX_TEMPLATE.format(body=body),
                                      batch_request=factor)
    if factor:
        assert module.attrs["batch_factor"] == factor, module.attrs.get(
            "batch_rejected")
    return module


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_predicated_trip_at_every_gang_count(name):
    """1…B+1 gangs at B = 2…16, and 1, 2, B−1, B and B+1 gangs at the
    cost model's factor (B = 128), each with and without a partial tail
    gang: full trips, a predicated last trip, both, or (one gang at B=2) a
    trip of one gang — bitwise against the unbatched build, no bailout,
    no replay.  With the input or the output array ending memory, a
    predicated trip touches nothing past its live gangs.  A partial tail
    gang replays exactly once there when its inactive lanes run past that
    array and nothing follows it (no kernel alloca): its range tests
    cover every lane."""
    body = MATRIX[name]
    unbatched = _matrix_module(body, 0)
    wants = {}
    for factor in (2, 4, 8, 16, None):
        module = _matrix_module(body, factor)
        b = module.attrs["batch_factor"]
        allocas = any(i.opcode == "alloca"
                      for i in module.get("kernel").instructions())
        counts = range(1, b + 2) if factor else (1, 2, b - 1, b, b + 1)
        assert factor or b == 128
        for gangs in counts:
            for n in (8 * gangs, 8 * gangs + 3):
                for last in (None, "a", "out"):
                    key = (n, last)
                    if key not in wants:
                        wants[key] = _matrix_launch(unbatched, n, last=last)[0]
                    got, interp = _matrix_launch(module, n, last=last)
                    report = interp.codegen_report()
                    assert got == wants[key], (name, factor, n, last)
                    assert got["trap"] is None, (name, factor, n, last)
                    # Elements a's and out's lanes reach, past their sizes.
                    lanes = -(-n // 8) * 8
                    past = {"a": lanes > n,
                            "out": (3 if name == "row_strided" else 1)
                            * lanes > 3 * n + 1}
                    assert interp.codegen_report()["replays"] == (
                        last is not None and not allocas and past[last]), (
                            name, factor, n, last)
                    assert report["calls"] and not report["bailouts"]


@pytest.mark.parametrize("kind", ["predicated", "private"])
def test_budget_trap_in_a_predicated_trip_replays_bit_identically(kind):
    """``predicated``: three gangs at B=4 run as one predicated trip, and
    the budget runs out halfway through it.  ``private``:
    ``binomial_options`` — eight gangs at B=64, one predicated trip —
    runs out inside the loops over its expanded lattice."""
    if kind == "predicated":
        batched = _matrix_module(MATRIX["private"], 4)
        unbatched = _matrix_module(MATRIX["private"], 0)

        def launch(module, budget):
            got, interp = _matrix_launch(module, 24, budget=budget)
            return got, interp.codegen_report()["replays"]
    else:
        spec = SPECS["binomial_options"]
        batched = driver.compile_parsimony(spec.psim_src)
        unbatched = driver.compile_parsimony(spec.psim_src, batch_request=0)
        assert batched.attrs["batch_applied"]

        def launch(module, budget):
            return _trapping_launch(module, spec, budget=budget)
    clean, _ = launch(unbatched, 500_000_000)
    budget = clean["stats"][1] // 2
    want, _ = launch(unbatched, budget)
    assert want["trap"] is not None
    got, replays = launch(batched, budget)
    assert replays == 1
    assert got == want


def test_private_row_read_before_written_replays_on_the_twin():
    """Row 0 of ``V`` is read but never written: the unbatched gangs read
    the zeroed block; the batched trip holds no copy of that row, so the
    launch replays on the twin — bitwise, and visibly."""
    module = _matrix_module(READ_BEFORE_WRITE, 4)
    assert "private" in " ".join(module.attrs["batch_applied"])
    want, _ = _matrix_launch(_matrix_module(READ_BEFORE_WRITE, 0), 40)
    got, interp = _matrix_launch(module, 40)
    assert interp.codegen_report()["replays"] == 1
    assert got == want


def _trips(module, spec):
    """The active-gang count of every batched trip one launch runs, read
    off the generated code's ``_r`` as it executes."""
    trips = []
    after = []

    def local(frame, event, arg):
        if event == "line":
            if after:
                trips.append(frame.f_locals["_r"])
                after.clear()
            text = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
            if text.strip().startswith("_r = "):
                after.append(True)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith("<repro-vm-codegen:"):
            return local
        return None

    workload = spec.workload()
    interp = Interpreter(module)
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    sys.settrace(tracer)
    try:
        interp.run("kernel", *addrs, *workload.scalars)
    finally:
        sys.settrace(None)
    assert not interp.codegen_report()["bailouts"] and not interp.codegen_report()["replays"]
    return trips


def test_binomial_batches_with_its_lattice_expanded_per_gang():
    """``binomial_options`` batches at the cost model's factor with its
    ``f32 V[16]`` lattice expanded per gang (16 rows of 16 lanes), and
    runs — like ``FillBgra`` — as exactly one predicated trip."""
    module = driver.compile_parsimony(SPECS["binomial_options"].psim_src)
    assert module.attrs["batch_factor"] == 64
    assert module.attrs["batch_applied"] == [
        "kernel:gang.header private %V.0 16 rows x 64 bytes"]
    assert _trips(module, SPECS["binomial_options"]) == [8]
    fill = driver.compile_parsimony(SPECS["FillBgra"].psim_src)
    assert fill.attrs["batch_factor"] == 16
    assert _trips(fill, SPECS["FillBgra"]) == [4]


def test_no_compiled_module_holds_a_remainder_loop():
    for spec in SPECS.values():
        for factor in (None, 2):
            module = driver.compile_parsimony(spec.psim_src, batch_request=factor)
            names = [b.name for f in module.functions.values() for b in f.blocks]
            assert not [n for n in names if n.endswith(".rem")], spec.name


#: ``find`` scans ``a`` with an early ``break`` and is inlined into the
#: gang loop, where its read of ``a[j]`` is a gather over cells every gang
#: stores: unbatched, gang k sees what gangs below k stored.
SCAN_OWN_OUTPUT = """
i32 find(i32* a, u64 n, i32 v) {
    i32 r = (i32)0;
    for (u64 j = (u64)0; j < n; j = j + (u64)1) {
        if (a[j] < (i32)0) { break; }
        if (a[j] == v) { r = r + (i32)1; }
    }
    return r;
}
void kernel(i32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = find(a, n, a[i]);
    }
}
"""

@pytest.mark.parametrize("src, reason", [
    (SCAN_OWN_OUTPUT, "gather may read another gang's store"),
], ids=["scan-own-output"])
def test_a_load_of_another_gangs_store_keeps_its_loop_unbatched(src, reason):
    def launch(module):
        interp = Interpreter(module)
        addr = interp.memory.alloc_array(np.arange(-5, 35, dtype=np.int32))
        interp.run("kernel", addr, 32)
        stats = interp.stats
        return (interp.memory.image().tobytes(), stats.cycles,
                stats.instructions, dict(stats.counts))

    module = driver.compile_parsimony(src)
    assert not module.attrs.get("batch_applied")
    assert [r["reason"] for r in module.attrs["batch_rejected"]] == [reason]
    assert launch(module) == launch(
        driver.compile_parsimony(src, batch_request=0))
    # Forcing a factor does not get round the check either.
    assert not driver.compile_parsimony(
        src, batch_request=4).attrs.get("batch_applied")


#: ``a`` read one gang (8 threads) away from where it is stored: before or
#: after the store, from the next gang's cells or the previous gang's.
#: Unbatched, gang k sees what gangs below k stored and not what gangs
#: above will; a batched trip runs each access for all its gangs at once.
SHIFTED = """
void kernel(i32* a, i32* b, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        %s
    }
}
"""

#: ``None``: the loop batches, else its rejection reason.
SHIFTED_CASES = {
    # The next gang's cells before it stores them: old values both ways.
    "shifted-vload": ("a[i] = a[i + (u64)8] + (i32)1;", None),
    # The previous gang's cells after it stored them: new values both ways.
    "store-then-earlier": ("a[i + (u64)8] = b[i] + (i32)1; b[i] = a[i];",
                           None),
    # Listing 1's a[i+1] = a[i], a gang apart: unbatched, gang k reads
    # what gang k - 1 stored; in lockstep it reads before that store.
    "shifted-store": ("a[i + (u64)8] = a[i] + (i32)1;",
                      "lockstep reverses a read-after-write dependence at"
                      " distance 1"),
    # The next gang's cells after this gang's store: unbatched they are
    # old; in lockstep the next gang has stored them.
    "store-then-later": ("a[i] = b[i] + (i32)1; b[i] = a[i + (u64)8];",
                         "lockstep reverses a write-after-read dependence"
                         " at distance 1"),
}


@pytest.mark.parametrize("case", sorted(SHIFTED_CASES))
def test_a_shifted_load_batches_when_lockstep_keeps_its_order(case):
    body, reason = SHIFTED_CASES[case]
    src = SHIFTED % body

    def launch(module):
        interp = Interpreter(module)
        a = interp.memory.alloc_array(np.arange(-5, 35, dtype=np.int32))
        b = interp.memory.alloc_array(np.arange(100, 140, dtype=np.int32))
        interp.run("kernel", a, b, 32)
        stats = interp.stats
        assert not interp.codegen_report()["replays"]
        return (interp.memory.image().tobytes(), stats.cycles,
                stats.instructions, dict(stats.counts))

    want = launch(driver.compile_parsimony(src, batch_request=0))
    for request in (None, 2, 4):
        module = driver.compile_parsimony(src, batch_request=request)
        got = [r["reason"] for r in module.attrs.get("batch_rejected", ())]
        assert got == ([] if reason is None else [reason]), (case, request)
        assert bool(module.attrs.get("batch_applied")) == (reason is None)
        assert launch(module) == want, (case, request)
