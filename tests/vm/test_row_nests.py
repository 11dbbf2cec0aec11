"""Row nests collapse into the gang trip, invisibly.

A psim region inside a counted row loop (the Simd Library filters,
stencil) runs R rows per outer trip: the rows' full gangs as one trip of
R·P gangs, their tail gangs as one predicated trip of R gangs.  R is
chosen at nest entry by a zero-charge no-alias check over each access's
byte hull; a failed check runs the nest one row per trip, the unbatched
order, through the same generated code.  Whatever R is:

* outputs, ``ExecStats``, ``image()`` and ``extent`` equal the unbatched
  build's on the reference engine — rows 1…R+1, with and without a tail
  gang, more full gangs per row than a trip holds (P > B), per-row
  atomic cells reset by a prologue store, and arrays that end memory;
* an input the output aliases in place, or one row apart, fails the
  check: the launch counts in ``codegen_report()["row_fallbacks"]``;
* a budget trap inside a collapsed trip replays on the twin;
* a nest that cannot collapse names why;
* packed accesses under a runtime mask with a lane clear run inline when
  their whole window is in bounds, bitwise like ``Memory``'s lane path.
"""

import numpy as np
import pytest

from repro import driver
from repro.diagnostics import ExecutionError
from repro.vm import Interpreter, Memory

NEST_SRC = """
void kernel(u32* src, u32* dst, u32* sums, u64 w, u64 h, u64 n) {
    for (u64 y = 0; y < h; y++) {
        sums[y] = 7u;
        u64 row = y * w;
        psim (gang_size=8, num_threads=n) {
            u64 x = psim_get_thread_num();
            u32 v = src[row + x] + src[row + w + x] * 3u;
            dst[row + x] = v;
            u32 s = psim_reduce_add_sync(v);
            if (psim_get_lane_num() == 0) { psim_atomic_add(sums + y, s); }
        }
    }
}
"""


def _module(factor):
    return driver.compile_parsimony(NEST_SRC, batch_request=factor)


def _launch(module, w, h, n, alias=None, budget=500_000_000, tight=False,
            **engine):
    """One launch over an ``h``-row image of pitch ``w``, ``n`` threads
    per row.  ``alias``: ``"inplace"`` writes ``src`` itself,
    ``"shifted"`` writes it one row down.  ``tight``: memory ends where
    the last array does."""
    rng = np.random.default_rng(w * 1000 + h * 10 + n)
    src = rng.integers(0, 1 << 20, (h + 2) * w, dtype=np.uint32)
    dst = rng.integers(0, 1 << 20, h * w, dtype=np.uint32)
    sums = rng.integers(0, 1 << 20, h + 1, dtype=np.uint32)
    size = 1 << 22
    if tight:
        size = 64
        for array in (sums, dst, src):
            size = (size + 63) // 64 * 64 + array.nbytes
    interp = Interpreter(module, max_instructions=budget, memory=Memory(size),
                         **engine)
    a_sums = interp.memory.alloc_array(sums)
    a_dst = interp.memory.alloc_array(dst)
    a_src = interp.memory.alloc_array(src)
    out = {None: a_dst, "inplace": a_src, "shifted": a_src + 4 * w}[alias]
    trap = None
    try:
        interp.run("kernel", a_src, out, a_sums, w, h, n)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp


def test_the_nest_collapses_and_names_its_gangs_per_row():
    module = _module(None)
    assert module.attrs["batch_applied"] == [
        "kernel:gang.header rows of for.header: P = %n_full / 8 gangs per row"]
    assert module.attrs["batch_rejected"] == []


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_nest_matrix_matches_the_twin(factor):
    """P = 1…B+1 full gangs per row, with and without a tail gang, over
    1, 2, R, R+1 and B+1 rows; the pitch leaves room after a row's
    threads or none, and memory may end at the last array."""
    batched = _module(factor)
    unbatched = _module(0)
    for gangs in range(1, factor + 2):
        rows_per_trip = max(1, factor // gangs)
        for n in (8 * gangs, 8 * gangs + 3):
            for w in (n, n + 13):
                for h in sorted({1, 2, rows_per_trip, rows_per_trip + 1,
                                 factor + 1}):
                    for tight in (False, True):
                        args = (w, h, n)
                        want, _ = _launch(unbatched, *args, tight=tight,
                                          codegen=False)
                        got, interp = _launch(batched, *args, tight=tight)
                        where = (factor, args, tight)
                        assert got == want, where
                        assert got["trap"] is None, where
                        assert interp.codegen_report()["replays"] == 0, where
                        report = interp.codegen_report()
                        assert report["calls"] and not report["bailouts"]
                        assert report["row_fallbacks"] == 0, where


@pytest.mark.parametrize("alias", ["inplace", "shifted"])
def test_aliased_rows_run_one_per_trip(alias):
    """Writing the input in place (rows read the row below), or one row
    down (each row reads what the row before wrote): the check fails,
    the nest runs in the unbatched order, and the launch is counted."""
    batched = _module(None)
    unbatched = _module(0)
    for n in (16, 19):
        args = (24, 9, n)
        want, _ = _launch(unbatched, *args, alias=alias, codegen=False)
        got, interp = _launch(batched, *args, alias=alias)
        assert got == want, (alias, n)
        assert interp.codegen_report()["replays"] == 0
        assert interp.codegen_report()["row_fallbacks"] == 1
        interp.reset_stats()
        assert interp.codegen_report()["row_fallbacks"] == 0


def test_budget_trap_in_a_collapsed_trip_replays_on_the_twin():
    batched = _module(None)
    unbatched = _module(0)
    args = (40, 12, 35)
    clean, _ = _launch(unbatched, *args, codegen=False)
    budget = clean["stats"][1] // 2
    want, _ = _launch(unbatched, *args, budget=budget, codegen=False)
    assert want["trap"] is not None
    got, interp = _launch(batched, *args, budget=budget)
    assert interp.codegen_report()["replays"] == 1
    assert got == want


REJECTIONS = {
    "row prologue scalar not affine in the row index":
        ("u64 row = y * y * w;", "n", "dst[row + x] = src[row + x];"),
    "thread count varies by row":
        ("u64 row = y * w;", "y + 1", "dst[row + x] = src[row + x];"),
    "row prologue computes a vector":
        ("u64 row = y * w;", "n", "dst[row + x] = src[row + x] + y;"),
}


@pytest.mark.parametrize("reason", sorted(REJECTIONS))
def test_a_nest_that_cannot_collapse_says_why(reason):
    prologue, threads, body = REJECTIONS[reason]
    src = f"""
    void kernel(u64* src, u64* dst, u64 w, u64 h, u64 n) {{
        for (u64 y = 0; y < h; y++) {{
            {prologue}
            psim (gang_size=8, num_threads={threads}) {{
                u64 x = psim_get_thread_num();
                {body}
            }}
        }}
    }}
    """
    module = driver.compile_parsimony(src)
    assert {"function": "kernel", "loop": "for.header", "reason": reason} \
        in module.attrs["batch_rejected"]
    assert not any("rows of" in entry for entry in module.attrs["batch_applied"])


# ---------------------------------------------------------------------------
# runtime-masked packed accesses run inline
# ---------------------------------------------------------------------------

MASKED_SRC = """
void kernel(u32* a, u32* out, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        u32 v = a[i];
        if ((v & 1u) == 1u) { out[i] = v + 1u; }
    }
}
"""


def _masked_launch(module, n, tight, **engine):
    """``n`` threads: a tail gang unless 8 divides ``n``, holes wherever
    ``a`` is even; ``tight``: ``out`` ends memory.  Returns what the launch
    leaves, and how often it replayed."""
    rng = np.random.default_rng(n)
    a = rng.integers(0, 1 << 16, n, dtype=np.uint32)
    out = rng.integers(0, 1 << 16, n, dtype=np.uint32)
    size = 1 << 22
    if tight:
        size = (64 + a.nbytes + 63) // 64 * 64 + out.nbytes
    interp = Interpreter(module, memory=Memory(size), **engine)
    addrs = [interp.memory.alloc_array(x) for x in (a, out)]
    interp.run("kernel", *addrs, n)
    return (interp.memory.image().tobytes(), interp.memory.extent,
            interp.stats.instructions), \
        interp.codegen_report()["replays"]


@pytest.mark.parametrize("factor", [0, None])
def test_runtime_masked_accesses_run_inline_bitwise(factor):
    module = driver.compile_parsimony(MASKED_SRC, batch_request=factor)
    reference = driver.compile_parsimony(MASKED_SRC, batch_request=0)
    for n in (5, 8, 21, 64, 67):
        for tight in (False, True):
            want, _ = _masked_launch(reference, n, tight, codegen=False)
            got, replays = _masked_launch(module, n, tight)
            assert got == want, (factor, n, tight)
            # In bounds nothing leaves generated code; a tail gang whose
            # inactive lanes fall off memory fails its range test and
            # the launch replays.
            assert replays == (tight and n % 8 != 0), (factor, n)
