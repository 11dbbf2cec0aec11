"""Differential SPMD kernel fuzzer.

Each seed deterministically generates one random SPMD kernel (see
``repro.benchsuite.fuzzgen``) and compiles it three ways:

* **plain** — the normal Parsimony pipeline, which must vectorize every
  SPMD function: valid source never degrades;
* **block-fault** — with an injected single-shot ``vectorize_block``
  fault, which fails the vectorizer mid-emission and degrades the whole
  function to the scalar lane loop (or misses every emitted block and
  builds clean);
* **whole** — with a ``vectorize`` fault, which always degrades the
  entire function to the scalar pipeline.

All three executions over the same seeded inputs must agree **bitwise**
on every output array.  ``N_THREADS`` is coprime to all gang sizes, so
the tail gang is exercised on every kernel.

Kernels containing a cross-lane intrinsic — a gang reduction
(``psim_reduce_*_sync``, possibly repeated inside a uniform-trip loop)
or a lane exchange (``psim_shuffle_sync`` butterflies/rotations) — have
no scalar execution strategy — cross-lane communication cannot be
scalarized — so for those the degraded legs must raise ``CompileError``
instead of falling back (tallied as the ``sync`` corpus bucket); the
vector-engine differentials below still apply to them.

Every fifth seed additionally runs the plain module through the
**whole-kernel codegen** engine (``Interpreter(codegen=True)``, see
``repro.backend.codegen``) and compares outputs *and* ``ExecStats``
bitwise against the reference engine: codegen is accounting-transparent
by contract.  Bailouts are legal (the kernel silently runs on the
reference engine) but tallied, so a corpus where codegen never compiles
fails the suite.

Every third seed additionally pits two **gang-batched** builds — forced
``batch_request=2``, which runs full trips and a predicated last trip,
and the cost model's factor, whose one trip over 37 threads is
predicated — against an unbatched build, comparing outputs *and*
``ExecStats`` bitwise: gang batching is accounting-transparent by
contract, so cycles, instruction counts, and per-opcode tallies must not
move.  The leg reaches the per-gang forms: constant-index shuffles,
integer reductions and the atomics that fold them, and per-thread arrays
at uniform indices expanded per gang.  A kernel that reads a row of such
an array no thread writes (``FuzzKernel.reads_unwritten``) must replay on
the unbatched twin.  Every kernel whose region sits in a row loop
(``FuzzKernel.rows``) runs that leg too, whatever its seed: a collapsed
nest must agree bitwise, and its in-place variant — ``B`` written one row
down, which the next row reads — must fail the nest's no-alias check and
say so (``codegen_report()["row_fallbacks"]``).  A data-dependent atomic
batches as one scatter-add per trip; in its aliasing variant
(``FuzzKernel.scatter_aliases``) a trip whose cells meet the loop's reads
of ``C`` must replay on the unbatched twin, and the corpus must reach
both.  Outputs are ``OUT``, ``IOUT``, ``B`` and ``C``.

A second generator, ``fuzzgen.generate_shifted_kernel``, reads one array
``k`` cells from where it writes it, before or after the write: gang
batching must batch exactly the kernels whose lockstep order keeps the
unbatched one (``backend.lockstep``).  Its batched leg pits forced
``batch_request=2`` and the cost model's factor against the unbatched
build, outputs and ``ExecStats`` bitwise, and the corpus must reach
kernels that batch and kernels that stay unbatched at both factors.

Both of the first generator's batched legs run their builds again in a
memory that ends where
``OUT`` does (``tight``): a tail gang's inactive lanes fall off the end,
so a range test of generated code fails and the launch replays on the
reference engine, which must leave exactly what the reference engine
leaves in the same memory — outputs, ``ExecStats``, image and extent —
and the corpus must reach that replay.
(A kernel that allocates at launch needs room past its arrays and skips
this variant.)

Every ~25th seed compiles the kernel in a *subprocess* with the disk
cache on, rehydrates that entry in this process, and runs it: cold,
cross-process builds must agree bitwise with the in-process one,
``ExecStats`` included.

Tier-1 runs ``REPRO_FUZZ_N`` seeds (default 200); CI's fuzz-smoke job and
local soak runs scale it up via the environment::

    REPRO_FUZZ_N=500 python -m pytest tests/fuzz -q
"""

import atexit
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import diskcache
from repro.benchsuite.fuzzgen import (
    N_CELLS,
    N_THREADS,
    generate_kernel,
    generate_shifted_kernel,
    workload_arrays,
)
from repro.diagnostics import CompileError
from repro.driver import clear_compile_cache, compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.vectorizer import parsimony_records
from repro.vm import Interpreter, Memory

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))

#: Corpus-wide tally of how each block-fault compile landed, so the suite
#: can assert the fault actually degraded builds instead of silently
#: missing every emitted block.  ``sync`` counts cross-lane kernels, whose
#: degraded legs must raise (no scalar strategy exists for cross-lane
#: communication).
_CORPUS = {"whole": 0, "clean": 0, "sync": 0}

#: Every Nth seed also runs the forced-batch differential below.
_BATCH_EVERY = 3

#: Tally of how those forced-batch compiles landed, so the suite can
#: assert the batching layer actually engages on the fuzz corpus.
_BATCH_CORPUS = {"batched": 0, "rejected": 0}

#: Batched kernels carrying each gang-local form (lane exchanges, integer
#: reductions, the atomics folding them, storage expanded per gang, and a
#: read of an unwritten row that replayed): the leg must reach every one,
#: not only elementwise code.
_BATCH_FORMS = {"shuffle": 0, "int_reduction": 0, "atomic": 0,
                "expanded": 0, "replayed": 0}
#: Row kernels whose nest collapsed, and in-place ones among them whose
#: launch fell back to one row per trip.
_ROW_CORPUS = {"collapsed": 0, "fell_back": 0}
#: Batched builds holding a scatter-add, and launches of aliasing ones
#: that replayed on the unbatched twin.
_SCATTER_CORPUS = {"batched": 0, "replayed": 0}

#: Shifted kernels per batch request (2, or the cost model's: ``None``)
#: that batched, and that stayed unbatched.
_SHIFTED_CORPUS = {(request, applied): 0 for request in (2, None)
                   for applied in (True, False)}

#: Every Nth seed also runs the forced-codegen differential below.
_CODEGEN_EVERY = 5

#: Kernels the codegen leg compiled (every one must: a bailout fails the
#: launch, see :func:`_launch`).  ``shuffle`` counts codegen-leg kernels
#: carrying cross-lane exchanges, so the leg provably exercises them.
_CODEGEN_CORPUS = {"compiled": 0, "shuffle": 0}

#: Every ~25th seed additionally runs the cross-process differential:
#: compile + persist in a *subprocess* (disk cache), rehydrate in the
#: parent, compare bitwise.
_XPROC_EVERY = 25

#: How many rehydrated modules ran, and how many of them ran generated
#: code (a corpus that never reaches the disk layer fuzzes nothing).
_XPROC_CORPUS = {"rehydrated": 0, "compiled": 0}

_XPROC_DIR = None

#: Launches of the ``tight`` variant, and those among them that left
#: generated code at a failed range test and replayed.
_TIGHT_CORPUS = {"launched": 0, "replayed": 0}


def _xproc_cache_dir():
    global _XPROC_DIR
    if _XPROC_DIR is None:
        _XPROC_DIR = tempfile.mkdtemp(prefix="repro-fuzz-xproc-")
        atexit.register(shutil.rmtree, _XPROC_DIR, ignore_errors=True)
    return _XPROC_DIR


def _outputs(interp, addrs):
    """``OUT``, ``IOUT``, ``B`` (which in-place kernels write) and ``C``
    (which aliasing scatter-adds update)."""
    memory = interp.memory
    return (memory.read_array(addrs[3], np.float32, N_THREADS),
            memory.read_array(addrs[4], np.int32, N_CELLS),
            memory.read_array(addrs[1], np.float32, N_THREADS),
            memory.read_array(addrs[2], np.int32, N_THREADS))


def _launch(module, seed, tight=False, **engine):
    """One launch; a codegen bailout of any kind fails it — including
    ``error:*``, an emitter exception the interpreter degrades to the
    reference engine instead of raising.  ``tight``: ``OUT`` is allocated
    last, and memory ends where it does."""
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    order = (4, 0, 1, 2, 3) if tight else range(5)
    arrays = (A, B, C, OUT, IOUT)
    memory = None
    if tight:
        size = 64
        for k in order:
            size = (size + 63) // 64 * 64 + arrays[k].nbytes
        memory = Memory(size)
    interp = Interpreter(module, memory=memory, **engine)
    addrs = [None] * 5
    for k in order:
        addrs[k] = interp.memory.alloc_array(arrays[k])
    interp.run("kernel", *addrs, sv, si, N_THREADS)
    bailouts = interp.codegen_report()["bailouts"]
    assert not bailouts, f"codegen bailed out on seed {seed}: {bailouts}"
    return _outputs(interp, addrs), interp


def _run(module, seed, replays=None, **engine):
    """Outputs and ``ExecStats`` of one launch; with ``replays``, assert
    how many times it replayed."""
    outputs, interp = _launch(module, seed, **engine)
    if replays is not None:
        assert interp.codegen_report()["replays"] == replays
    return outputs, interp.stats


def _classify(module):
    records = parsimony_records(module).values()
    if any(r.get("parsimony_fallback") for r in records):
        return "whole"
    return "clean"


def _assert_exact_counts(stats, context):
    """``ExecStats`` counts are Python ints: a ``numpy.int64`` (say, an
    unwrapped ``count_nonzero`` in generated code) passes every ``==``
    above and fails only where the stats are serialized."""
    assert type(stats.instructions) is int, context
    for key, n in stats.counts.items():
        assert type(n) is int, (key, type(n), context)


def _assert_same(got, want, context):
    for name, g, w in zip(("OUT", "IOUT", "B", "C"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=f"{context}: {name}")


@pytest.mark.parametrize("seed", range(FUZZ_N))
def test_differential_fuzz_kernel(seed):
    kernel = generate_kernel(seed)
    context = f"seed={seed} gang={kernel.gang_size}\n{kernel.source}"

    plain = compile_parsimony(kernel.source)
    assert _classify(plain) == "clean", context
    # The oracle leg runs on the reference engine — on the unbatched twin
    # when the auto build batched; every other leg runs the default
    # engine (whole-kernel codegen), so each comparison also crosses
    # engines, and batching.
    plain_out, plain_stats = _run(plain, seed, codegen=False)

    if kernel.refuses_whole_fallback:
        # Cross-lane communication (reductions, lane exchanges) has no
        # scalar strategy: the degraded legs must refuse loudly
        # (CompileError), never fall back to a semantically different
        # kernel.
        with pytest.raises(CompileError):
            with inject(FaultPlan(site="vectorize")):
                compile_parsimony(kernel.source)
        try:
            with inject(FaultPlan(site="vectorize_block", after=seed % 6,
                                  times=1)):
                degraded = compile_parsimony(kernel.source)
        except CompileError:
            # The fault degraded the function whole: correctly refused
            # rather than scalarized.
            pass
        else:
            # The fault missed every emitted block, so the build is clean
            # and must agree with plain.  A whole-function fallback here
            # would be a bug: it cannot represent the cross-lane op.
            assert _classify(degraded) == "clean", context
            _assert_same(_run(degraded, seed)[0], plain_out,
                         f"degraded-sync vs plain: {context}")
        _CORPUS["sync"] += 1
    else:
        with inject(FaultPlan(site="vectorize")):
            whole = compile_parsimony(kernel.source)
        assert _classify(whole) == "whole", context
        _assert_same(_run(whole, seed)[0], plain_out,
                     f"whole vs plain: {context}")

        # Fault the (seed%6)-th emitted block: this degrades the whole
        # function, or lands past the last emission (clean build) —
        # either must still be bit-identical to the plain build.
        with inject(FaultPlan(site="vectorize_block", after=seed % 6,
                              times=1)):
            degraded = compile_parsimony(kernel.source)
        _CORPUS[_classify(degraded)] += 1
        _assert_same(_run(degraded, seed)[0], plain_out,
                     f"degraded vs plain: {context}")

    if seed % _BATCH_EVERY == 0 or kernel.rows:
        _batched_differential(kernel, seed, plain_out, context)

    if seed % _CODEGEN_EVERY == 2:
        _codegen_differential(kernel, plain, seed, plain_out, plain_stats,
                              context)

    if seed % _XPROC_EVERY == 1:
        _cross_process_differential(kernel, seed, plain_out, plain_stats,
                                    context)


def _batched_differential(kernel, seed, plain_out, context):
    """Batched builds (forced B=2, and the cost model's factor) vs the
    unbatched build: outputs and ExecStats."""
    reference = compile_parsimony(kernel.source, batch_request=0)
    ref_out, ref_stats = _run(reference, seed, replays=0)
    _assert_same(ref_out, plain_out, f"unbatched vs plain: {context}")
    for request in (2, None):
        batched = compile_parsimony(kernel.source, batch_request=request)
        applied = batched.attrs.get("batch_applied", [])
        expanded = any(" private " in entry for entry in applied)
        replays = int(kernel.reads_unwritten and expanded)
        got_out, interp = _launch(batched, seed)
        got_stats = interp.stats
        if any(" scatter-add " in entry for entry in applied):
            # A trip whose scatter-add meets C's reads replays; any other
            # scatter-add never does.
            _SCATTER_CORPUS["batched"] += 1
            if kernel.scatter_aliases:
                replayed = interp.codegen_report()["replays"]
                _SCATTER_CORPUS["replayed"] += replayed
                replays = min(replayed, 1)
        assert interp.codegen_report()["replays"] == replays, context
        collapsed = any(" rows of " in entry for entry in applied)
        fell_back = interp.codegen_report()["row_fallbacks"]
        # The check runs when a row's full gangs fit a trip.
        fits = (N_THREADS // 3) // kernel.gang_size <= batched.attrs[
            "batch_factor"]
        assert fell_back == int(collapsed and kernel.in_place and fits), (
            context)
        if request is None and collapsed:
            _ROW_CORPUS["collapsed"] += 1
            _ROW_CORPUS["fell_back"] += fell_back
        if request == 2 and seed % _BATCH_EVERY == 0:
            _BATCH_CORPUS["batched" if applied else "rejected"] += 1
            if applied:
                for form, present in (
                        ("shuffle", kernel.has_shuffle),
                        ("int_reduction", kernel.has_int_reduction),
                        ("atomic", kernel.has_atomic),
                        ("expanded", kernel.has_uniform_array and expanded),
                        ("replayed", replays)):
                    _BATCH_FORMS[form] += bool(present)
        where = f"B={request or 'auto'}: {context}"
        _assert_same(got_out, ref_out, f"batched vs unbatched, {where}")
        assert got_stats.cycles == ref_stats.cycles, (
            f"batched cycles diverge, {where}")
        assert got_stats.instructions == ref_stats.instructions, (
            f"batched instruction count diverges, {where}")
        assert dict(got_stats.counts) == dict(ref_stats.counts), (
            f"batched per-opcode counts diverge, {where}")
        _assert_exact_counts(got_stats, where)
        _tight_differential(batched, reference, seed, where)


def _assert_same_stats(got, want, context):
    assert (got.cycles, got.instructions, dict(got.counts)) == (
        want.cycles, want.instructions, dict(want.counts)), context
    _assert_exact_counts(got, context)


@pytest.mark.parametrize("seed", range(FUZZ_N // 2))
def test_shifted_kernel_batches_only_in_order(seed):
    """Batched builds of a shifted kernel against its unbatched build:
    outputs and ``ExecStats``, bitwise, whether the loop batched or not."""
    kernel = generate_shifted_kernel(seed)
    context = f"shifted seed={seed}\n{kernel.source}"
    want_out, want = _run(compile_parsimony(kernel.source, batch_request=0),
                          seed, replays=0)
    for request in (2, None):
        module = compile_parsimony(kernel.source, batch_request=request)
        applied = bool(module.attrs.get("batch_applied"))
        _SHIFTED_CORPUS[request, applied] += 1
        got_out, got = _run(module, seed, replays=0)
        where = f"B={request or 'auto'}: {context}"
        _assert_same(got_out, want_out, where)
        _assert_same_stats(got, want, where)


def _tight_differential(module, reference, seed, context):
    """``module`` on the default engine against ``reference`` on the
    reference engine, both in a memory that ends where ``OUT`` does:
    outputs, ``ExecStats``, image and extent, bitwise."""
    if any(i.opcode == "alloca" for f in reference.functions.values()
           for i in f.instructions()):
        return  # its allocas need room past the arrays
    want_out, want = _launch(reference, seed, tight=True, codegen=False)
    got_out, got = _launch(module, seed, tight=True)
    _TIGHT_CORPUS["launched"] += 1
    _TIGHT_CORPUS["replayed"] += \
        got.codegen_report()["replays"] > 0
    context = f"tight memory, {context}"
    _assert_same(got_out, want_out, context)
    assert (got.stats.cycles, got.stats.instructions,
            dict(got.stats.counts)) == (want.stats.cycles,
                                        want.stats.instructions,
                                        dict(want.stats.counts)), context
    assert got.memory.extent == want.memory.extent, context
    np.testing.assert_array_equal(got.memory.image(), want.memory.image(),
                                  err_msg=context)


def _codegen_differential(kernel, plain, seed, plain_out, plain_stats,
                          context):
    """Whole-kernel codegen engine vs reference engine on the same module:
    outputs and ExecStats must agree bitwise (accounting transparency is
    the codegen contract — block-merged charges sum to the exact
    reference totals because every per-instruction cost is a dyadic
    rational)."""
    got_out, interp = _launch(plain, seed, codegen=True)
    _CODEGEN_CORPUS["compiled"] += 1
    if kernel.has_shuffle:
        _CODEGEN_CORPUS["shuffle"] += 1
    _assert_same(got_out, plain_out, f"codegen vs reference: {context}")
    got_stats = interp.stats
    assert got_stats.cycles == plain_stats.cycles, (
        f"codegen cycles diverge: {context}")
    assert got_stats.instructions == plain_stats.instructions, (
        f"codegen instruction count diverges: {context}")
    assert dict(got_stats.counts) == dict(plain_stats.counts), (
        f"codegen per-opcode counts diverge: {context}")
    _assert_exact_counts(got_stats, context)
    _tight_differential(plain, plain, seed, f"codegen: {context}")


def _cross_process_differential(kernel, seed, plain_out, plain_stats,
                                context):
    """Compile + persist in a subprocess, rehydrate from the disk cache in
    the parent, run: outputs and ExecStats must agree bitwise with the
    in-process build's reference run."""
    cache_dir = _xproc_cache_dir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_DISK_CACHE"] = "1"
    child = (
        "import sys\n"
        "from repro import diskcache\n"
        "from repro.driver import compile_parsimony\n"
        "compile_parsimony(sys.stdin.read())\n"
        "stats = diskcache.stats()\n"
        "assert stats['writes'] + stats['hits'] >= 1, stats\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], input=kernel.source.encode(),
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"child compile failed: {proc.stderr.decode()[-500:]}\n{context}"
    )

    saved_dir = os.environ.get("REPRO_CACHE_DIR")
    clear_compile_cache()  # force the parent through the disk layer
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    try:
        module = compile_parsimony(kernel.source)
        assert diskcache.stats()["hits"] >= 1, (diskcache.stats(), context)
    finally:
        diskcache.set_enabled(None)
        if saved_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_dir

    got_out, interp = _launch(module, seed)
    _XPROC_CORPUS["rehydrated"] += 1
    _XPROC_CORPUS["compiled"] += bool(interp.codegen_report()["calls"])
    _assert_same(got_out, plain_out, f"rehydrated vs plain: {context}")
    got_stats = interp.stats
    assert got_stats.cycles == plain_stats.cycles, (
        f"rehydrated cycles diverge: {context}")
    assert got_stats.instructions == plain_stats.instructions, (
        f"rehydrated instruction count diverges: {context}")
    assert dict(got_stats.counts) == dict(plain_stats.counts), (
        f"rehydrated per-opcode counts diverge: {context}")
    _assert_exact_counts(got_stats, context)


def test_zz_corpus_exercised_whole_fallback():
    """Runs after the matrix above (pytest preserves file order): the
    block-fault leg must have degraded at least one build whole, and the
    corpus must have generated cross-lane kernels (the ``sync`` bucket)."""
    assert sum(_CORPUS.values()) == FUZZ_N
    assert _CORPUS["whole"] > 0, _CORPUS
    assert _CORPUS["sync"] > 0, _CORPUS


def test_zz_corpus_exercised_batching():
    """The forced-batch differential must have run on every Nth seed and
    actually widened kernels (legality rejections are fine, but a corpus
    where batching never applies means the hook fuzzes a dead layer)."""
    assert sum(_BATCH_CORPUS.values()) == len(range(0, FUZZ_N, _BATCH_EVERY))
    assert _BATCH_CORPUS["batched"] > 0, _BATCH_CORPUS
    if FUZZ_N >= 200:
        assert all(_BATCH_FORMS.values()), _BATCH_FORMS


def test_zz_corpus_exercised_scatter_adds():
    """Kernels with a data-dependent atomic must have batched it as a
    scatter-add, and aliasing ones among them replayed on the twin."""
    if FUZZ_N < 200:
        pytest.skip("FUZZ_N too small to draw enough scatter-add kernels")
    assert _SCATTER_CORPUS["batched"] > 0, _SCATTER_CORPUS
    assert _SCATTER_CORPUS["replayed"] > 0, _SCATTER_CORPUS


def test_zz_corpus_exercised_row_nests():
    """Row kernels must have collapsed their nest, and in-place ones
    among them fallen back to one row per trip."""
    if FUZZ_N < 200:
        pytest.skip("FUZZ_N too small to draw enough row kernels")
    assert _ROW_CORPUS["collapsed"] > 0, _ROW_CORPUS
    assert _ROW_CORPUS["fell_back"] > 0, _ROW_CORPUS


def test_zz_corpus_exercised_both_sides_of_the_lockstep_test():
    """Shifted kernels must have batched, and stayed unbatched, at each
    batch request."""
    if FUZZ_N < 40:
        pytest.skip("FUZZ_N too small to draw both kinds of shifted kernel")
    assert all(_SHIFTED_CORPUS.values()), _SHIFTED_CORPUS


def test_zz_corpus_exercised_codegen():
    """The forced-codegen differential must have run, and compiled, on
    every Nth seed (a bailout fails its seed's test outright)."""
    expected = len([s for s in range(FUZZ_N) if s % _CODEGEN_EVERY == 2])
    if expected == 0:
        pytest.skip("FUZZ_N too small for the codegen cadence")
    assert _CODEGEN_CORPUS["compiled"] == expected, _CODEGEN_CORPUS
    if expected >= 20:
        # Cross-lane exchange kernels must flow through the codegen leg
        # (p≈0.3 per seed: 20 draws miss with probability < 0.1%).
        assert _CODEGEN_CORPUS["shuffle"] > 0, _CODEGEN_CORPUS


def test_zz_corpus_exercised_the_range_test_replay():
    """The tight variant must have run, and a range test of generated code
    must have failed — replaying the launch — in at least one of those
    launches."""
    if FUZZ_N < 20:
        pytest.skip("FUZZ_N too small for the tight variant")
    assert _TIGHT_CORPUS["launched"] > 0, _TIGHT_CORPUS
    assert _TIGHT_CORPUS["replayed"] > 0, _TIGHT_CORPUS


def test_zz_corpus_exercised_cross_process_rehydration():
    """The cross-process differential must have run on every ~25th seed,
    and the rehydrated modules must have run generated code."""
    expected = len([s for s in range(FUZZ_N) if s % _XPROC_EVERY == 1])
    if expected == 0:
        pytest.skip("FUZZ_N too small for the cross-process cadence")
    assert _XPROC_CORPUS["rehydrated"] == expected
    assert _XPROC_CORPUS["compiled"] > 0, _XPROC_CORPUS
