"""Window groups run as one strided view, invisibly.

The vectorizer lowers a bounded-stride access (§4.2.3) as k packed
accesses ``G`` lanes apart plus shuffles; generated code recognises the
group from the IR and runs it as one numpy view of the lane memory, ``(slots,
G)`` in a batched trip.  Whatever the stride, element type, trip shape or
mask, a launch must leave what the reference engine leaves:

* the memory image, ``extent``, ``ExecStats`` and trap text equal the
  reference engine's (``codegen=False``: the unbatched build), for the
  batched and the unbatched build, with and without a tail gang;
* the view form runs (``windows=`` in the source header) and, in bounds,
  never leaves generated code; a window that straddles the end of memory
  fails its range test, and the launch replays on the reference engine
  and traps as it does;
* seeded mutants of the recognizer — a wrong stride, a runtime mask
  ignored, a wrong extent (a view one lane short: its extent ends a lane
  early, the lane unwritten) — fail these checks;
* across the 79 benchsuite builds, every window the vectorizer emits with
  a stride selector runs as one access (the ``windows=`` count), so the
  view form cannot silently revert.
"""

import re

import numpy as np
import pytest

from repro import driver, telemetry
from repro.backend import codegen as cg
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.diagnostics import ExecutionError
from repro.vm import Interpreter, Memory

GANG = 8
TYPES = {"u8": np.uint8, "i16": np.int16, "i32": np.int32, "f32": np.float32}

LOAD = """
void kernel({t}* src, {t}* dst, u64 n) {{
    psim (gang_size={g}, num_threads=n) {{
        u64 i = psim_get_thread_num();
        dst[i] = src[{s} * i + {o}] + src[{s} * i];
    }}
}}
"""

STORE = """
void kernel({t}* src, {t}* dst, u64 n) {{
    psim (gang_size={g}, num_threads=n) {{
        u64 i = psim_get_thread_num();
        {t} v = src[i];
        dst[{s} * i] = v;
        dst[{s} * i + {o}] = v + v;
    }}
}}
"""

#: A conditional store: the runtime mask ``M`` sits inside the group.
COND_STORE = """
void kernel({t}* src, {t}* dst, u64 n) {{
    psim (gang_size={g}, num_threads=n) {{
        u64 i = psim_get_thread_num();
        {t} v = src[i];
        {t} lim = src[0];
        if (v > lim) {{ dst[{s} * i + {o}] = v; }}
    }}
}}
"""

#: StretchGray2x2 and ReduceGray2x2 over rows: windows in a row nest.
STRETCH_ROWS = """
void kernel(u8* src, u8* dst, u64 w, u64 h) {
    for (u64 y = 0; y < h; y++) {
        u64 row = y * w;
        psim (gang_size=8, num_threads=w) {
            u64 x = psim_get_thread_num();
            u8 v = src[row + x];
            dst[2 * row + 2 * x] = v;
            dst[2 * row + 2 * x + 1] = v;
        }
    }
}
"""

REDUCE_ROWS = """
void kernel(u8* src, u8* dst, u64 w, u64 h) {
    for (u64 y = 0; y < h; y++) {
        u64 row = y * w;
        psim (gang_size=8, num_threads=w) {
            u64 x = psim_get_thread_num();
            u64 p = 4 * row + 2 * x;
            u32 s = (u32)src[p] + (u32)src[p + 1] + (u32)src[p + 2 * w]
                  + (u32)src[p + 2 * w + 1];
            dst[row + x] = (u8)((s + 2u) >> 2);
        }
    }
}
"""


def _arrays(kind, dtype, stride, n):
    """Inputs of a flat kernel over ``n`` threads.  ``dst`` is allocated
    last, and a store kernel's one gang short: its last gang writes past
    every allocation, so the extent ends where its stores do."""
    rng = np.random.default_rng(stride * 1000 + n)
    count = {"load": stride * n + GANG * stride}.get(kind, n)
    if np.dtype(dtype).kind == "f":
        src = rng.uniform(-8, 8, count).astype(dtype)
    else:
        src = rng.integers(0, 100, count).astype(dtype)
    dst = np.zeros(n if kind == "load" else stride * max(n - GANG, 1), dtype)
    return [src, dst], [n]


def _run(module, arrays, scalars, size=1 << 20, **engine):
    """Everything a launch leaves: trap text, stats, image, extent."""
    return _launch(module, lambda memory: [
        *(memory.alloc_array(a) for a in arrays), *scalars], size, **engine)


def _launch(module, place, size=1 << 20, **engine):
    """Everything a launch leaves; ``place(memory)`` allocates the inputs
    and returns the kernel's arguments."""
    interp = Interpreter(module, memory=Memory(size), **engine)
    args = place(interp.memory)
    trap = None
    try:
        interp.run("kernel", *args)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp


def _windows(module) -> int:
    """Window groups the kernel runs as one view (its source header)."""
    return _windows_of(module, module.functions["kernel"])


def _replays(interp) -> int:
    """Launches that left generated code for the reference engine — every
    access, windows and packed alike, does when its range test fails."""
    return interp.codegen_report()["replays"]


def _check(source, runs, batch_requests=(None, 0), size=1 << 20):
    """Each build of ``source`` against the reference engine, over each
    ``(arrays, scalars)`` of ``runs``; returns the outcomes.  A launch
    replays only where it traps: in bounds, every view ran."""
    reference = driver.compile_parsimony(source, batch_request=0)
    outcomes = []
    for batch in batch_requests:
        module = driver.compile_parsimony(source, batch_request=batch)
        assert _windows(module), (batch, "no window group recognised")
        for arrays, scalars in runs:
            want, _ = _run(reference, arrays, scalars, size, codegen=False)
            got, interp = _run(module, arrays, scalars, size)
            assert got == want, (batch, scalars)
            report = interp.codegen_report()
            assert report["calls"] and not report["bailouts"]
            assert _replays(interp) == (got["trap"] is not None)
            outcomes.append(got)
    return outcomes


def _flat_runs(kind, dtype, stride):
    # A partial last trip with a tail gang, whole trips, one gang.
    return [_arrays(kind, dtype, stride, n)
            for n in (GANG * 5 + 3, GANG * 16, GANG - 3)]


CASES = [(kind, t, s) for kind in ("load", "store", "cond")
         for t in TYPES for s in (2, 3, 4)]


@pytest.mark.parametrize("kind,t,stride", CASES,
                         ids=[f"{k}-{t}-s{s}" for k, t, s in CASES])
def test_flat_windows_match_the_reference(kind, t, stride):
    template = {"load": LOAD, "store": STORE, "cond": COND_STORE}[kind]
    source = template.format(t=t, g=GANG, s=stride, o=stride - 1)
    outcomes = _check(source, _flat_runs(kind, TYPES[t], stride))
    assert not any(o["trap"] for o in outcomes)


def _row_runs(load, w, h):
    rng = np.random.default_rng(w * 100 + h)
    src = rng.integers(0, 256, (4 if load else 1) * w * h, dtype=np.uint8)
    dst = np.zeros((1 if load else 2) * w * h, np.uint8)
    return [src, dst], [w, h]


@pytest.mark.parametrize("source", [STRETCH_ROWS, REDUCE_ROWS],
                         ids=["stretch", "reduce"])
def test_windows_in_a_row_nest_match_the_reference(source):
    module = driver.compile_parsimony(source)
    assert "rows of" in module.attrs["batch_applied"][0]
    load = source is REDUCE_ROWS
    runs = [_row_runs(load, w, h)
            for w, h in ((8, 1), (16, 5), (21, 3), (3, 4), (64, 9))]
    _check(source, runs)


def test_a_window_that_straddles_the_end_of_memory_traps_as_the_reference():
    """A tail gang's window load reads every lane's position (its masks
    are the window's, not the launch's): with ``src`` ending memory, the
    window runs past it — its range test fails and the launch replays on
    the reference engine, which traps.  A launch whose windows stop short
    of the end runs the view."""
    source = LOAD.format(t="u8", g=GANG, s=3, o=2)
    n = GANG * 5 + 3
    arrays = [np.arange(3 * n, dtype=np.uint8), np.zeros(n, np.uint8)]
    size = 64 + 64 + 3 * n  # null page, dst, then src ends memory
    tight = [arrays[1], arrays[0]]

    def run(module, **engine):
        interp = Interpreter(module, memory=Memory(size), **engine)
        a_dst = interp.memory.alloc_array(tight[0])
        a_src = interp.memory.alloc_array(tight[1])
        try:
            interp.run("kernel", a_src, a_dst, n)
        except ExecutionError as exc:
            return f"{type(exc).__name__}: {exc}", interp
        return None, interp

    reference = driver.compile_parsimony(source, batch_request=0)
    want, _ = run(reference, codegen=False)
    assert want and "out-of-bounds" in want
    for batch in (None, 0):
        got, interp = run(driver.compile_parsimony(source,
                                                   batch_request=batch))
        assert got == want
        # The trap left generated code and replayed on the reference.
        assert _replays(interp) == 1
    # Room for the whole window: the same launch runs the view.
    _check(source, [(arrays, [n - GANG])])


# -- a window load that only a window store reads --------------------------------

#: BgraToBgr's shape: each channel a window load whose value only a window
#: store writes, so the store assigns its view from the load's view.
COPY = """
void kernel({t}* src, {t}* dst, u64 n) {{
    psim (gang_size={g}, num_threads=n) {{
        u64 i = psim_get_thread_num();
{body}
    }}
}}
"""


def _copy_source(t, s, d, channels=2):
    return COPY.format(t=t, g=GANG, body="\n".join(
        f"        dst[{d} * i + {c}] = src[{s} * i + {c}];"
        for c in range(channels)))


COPY_CASES = [(t, s, d) for t in ("u8", "i16", "f32")
              for s, d in ((4, 3), (3, 2), (2, 3))]


def _copies(module) -> int:
    """Window stores assigned straight from a window load's view."""
    source = cg.generated_source(module.functions["kernel"], AVX512,
                                 DEFAULT_COST_MODEL, module.fingerprint)
    return len(re.findall(r"\[\.\.\.\] = (_h\d+\(|_w\[)", source))


def _copy_runs(t, s, d):
    runs = []
    for n in (GANG * 5 + 3, GANG * 16, GANG - 3):
        src = np.arange(s * n + GANG * s, dtype=TYPES[t])
        runs.append(([src, np.zeros(d * n + GANG * d, TYPES[t])], [n]))
    return runs


@pytest.mark.parametrize("t,s,d", COPY_CASES,
                         ids=[f"{t}-s{s}-d{d}" for t, s, d in COPY_CASES])
def test_a_window_copy_matches_the_reference(t, s, d):
    source = _copy_source(t, s, d)
    assert _copies(driver.compile_parsimony(source)) == 2
    _check(source, _copy_runs(t, s, d))


def _in_place(n, s, shift):
    """One buffer, ``dst`` ``shift`` elements past ``src``."""
    def place(memory):
        base = memory.alloc_array(np.arange(s * n + 64, dtype=np.uint8))
        return [base, base + shift, n]
    return place


@pytest.mark.parametrize("shift", [0, 1, 5])
def test_a_window_copy_in_place_matches_the_reference(shift):
    """Compaction in place (``dst`` at or just past ``src``, stride 3 from
    stride 4): no gang reads what another gang writes before it, so the
    batched trip owes the reference engine's answer — with the two views
    of one trip overlapping."""
    source = _copy_source("u8", 4, 3, channels=1)
    reference = driver.compile_parsimony(source, batch_request=0)
    for n in (GANG * 5 + 3, GANG * 16):
        want, _ = _launch(reference, _in_place(n, 4, shift), codegen=False)
        for batch, copies in ((None, 1), (0, 0)):
            module = driver.compile_parsimony(source, batch_request=batch)
            assert _copies(module) == copies  # a trip's views only
            got, interp = _launch(module, _in_place(n, 4, shift))
            assert got == want, (batch, n)
            assert not _replays(interp), (batch, n)


def test_an_overlapping_window_copy_is_what_load_then_store_was(
        monkeypatch):
    """Expansion in place (stride 3 to stride 4 over one buffer, two
    channels) is a cross-gang race the SPMD model leaves unspecified, so
    the batched build need not match the reference engine.  It must
    still match the unpaired groups exactly: load every slot of the trip,
    then store — what numpy's copy through a temporary of overlapping
    views is."""
    source = _copy_source("u8", 3, 4)

    def outcomes():
        driver.clear_compile_cache()
        module = driver.compile_parsimony(source)
        got = [_launch(module, _in_place(n, 3, shift))[0]
               for n in (GANG * 5 + 3, GANG * 16) for shift in (0, 2, 9)]
        return _copies(module), got

    paired, want = outcomes()
    monkeypatch.setattr(cg._Emitter, "_find_copies", lambda self: None)
    unpaired, got = outcomes()
    monkeypatch.undo()
    driver.clear_compile_cache()
    assert (paired, unpaired) == (2, 0)
    assert got == want


@pytest.mark.parametrize("end", ["src", "dst"])
def test_a_window_copy_at_the_end_of_memory_runs_as_the_reference(end):
    """The load (``src`` ends memory) or the store (``dst`` does) fails its
    range test: the launch replays on the reference engine — which traps
    where the tail gang's load window runs past memory, and writes just
    the active lanes where its store window would."""
    source = _copy_source("u8", 4, 3)
    n = GANG * 5 + 3
    src, dst = np.arange(4 * n, dtype=np.uint8), np.zeros(3 * n, np.uint8)
    first, last = (dst, src) if end == "src" else (src, dst)
    size = 64 + -(-first.size // 64) * 64 + last.size  # ``last`` ends memory

    def place(memory):
        a_first = memory.alloc_array(first)
        a_last = memory.alloc_array(last)
        return ([a_last, a_first] if end == "src" else [a_first, a_last]) \
            + [n]

    reference = driver.compile_parsimony(source, batch_request=0)
    want, _ = _launch(reference, place, size, codegen=False)
    assert (want["trap"] is not None) == (end == "src")
    for batch in (None, 0):
        got, interp = _launch(
            driver.compile_parsimony(source, batch_request=batch), place, size)
        assert got == want, batch
        assert _replays(interp) == 1, batch


# -- seeded mutants of the recognizer ---------------------------------------------

def _wrong_stride(monkeypatch):
    real = cg._Emitter._stride_of
    monkeypatch.setattr(cg._Emitter, "_stride_of", staticmethod(
        lambda positions: real(positions) + 1 if real(positions) else 0))


def _ignored_mask(monkeypatch):
    real = cg._Emitter._store_mask

    def mutant(self, store, index, rows):
        found = real(self, store, index, rows)
        return found and (found[0], None, False)

    monkeypatch.setattr(cg._Emitter, "_store_mask", mutant)


def _wrong_extent(monkeypatch):
    real = cg._Emitter._store_window

    def mutant(self, head):
        found = real(self, head)
        if found is not None and found[0].mask is None:
            found[0].needed -= 1
        return found

    monkeypatch.setattr(cg._Emitter, "_store_window", mutant)


MUTANTS = {
    "wrong-stride": (_wrong_stride, LOAD, "load"),
    "ignored-mask": (_ignored_mask, COND_STORE, "cond"),
    "wrong-extent": (_wrong_extent, STORE, "store"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutants_of_the_recognizer_fail_the_check(name, monkeypatch):
    mutate, template, kind = MUTANTS[name]
    source = template.format(t="u8", g=GANG, s=3, o=2)
    runs = _flat_runs(kind, np.uint8, 3)
    driver.clear_compile_cache()
    try:
        _check(source, runs)  # the check itself passes unmutated
        driver.clear_compile_cache()
        mutate(monkeypatch)
        with pytest.raises(AssertionError):
            _check(source, runs)
    finally:
        monkeypatch.undo()
        driver.clear_compile_cache()


# -- coverage over the benchsuite ---------------------------------------------------

#: Window accesses the vectorizer emits per benchsuite build (its
#: ``memory_forms``, ``load.window`` + ``store.window``: body and tail
#: gang each count), as recorded before window groups ran as one view.
#: Reorder16bit's and Reorder32bit's select lanes ``x ^ 1``, a permutation
#: and no stride: they keep the packed loads and their shuffle.
WINDOW_FORMS = {
    "FillBgr": 6, "FillBgra": 8, "StretchGray2x2": 4, "ReduceGray2x2": 4,
    "Reorder16bit": 2, "Reorder32bit": 2, "BgraToGray": 6, "BgrToGray": 6,
    "GrayToBgr": 6, "GrayToBgra": 8, "BgraToBgr": 12, "BgrToBgra": 14,
    "DeinterleaveUv": 4, "InterleaveUv": 4,
}
PERMUTATIONS = {"Reorder16bit", "Reorder32bit"}


def test_every_strided_window_of_the_suite_runs_as_one_access():
    forms, views = {}, {}
    for spec in list(FIG4) + list(FIG5):
        driver.clear_compile_cache()  # a miss: the vectorizer counts
        with telemetry.collect() as session:
            module = driver.compile_parsimony(
                spec.psim_src, module_name=f"{spec.name}.parsimony")
        counted = session.vectorizer_totals()["memory_forms"]
        total = sum(n for form, n in counted.items() if ".window" in form)
        if total:
            forms[spec.name] = total
        found = sum(_windows_of(module, f) for f in module.functions.values()
                    if f.blocks)
        if found:
            views[spec.name] = found
    driver.clear_compile_cache()
    assert forms == WINDOW_FORMS
    assert views == {name: n for name, n in WINDOW_FORMS.items()
                     if name not in PERMUTATIONS}
    assert sum(views.values()) == 82


def _windows_of(module, function) -> int:
    source = cg.generated_source(function, AVX512, DEFAULT_COST_MODEL,
                                 module.fingerprint)
    found = re.search(r"windows=(\d+)", source.splitlines()[1])
    return int(found.group(1)) if found else 0
