"""Differential SPMD kernel fuzzer (issue 4, satellite of partial fallback).

Each seed deterministically generates one random SPMD kernel (see
``repro.benchsuite.fuzzgen``) and compiles it three ways:

* **plain** — the normal Parsimony pipeline (fully vectorized);
* **partial** — with an injected single-shot ``vectorize_block`` fault,
  which engages region-granular scalar fallback when the failing block
  admits a valid region (and whole-function fallback otherwise);
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
bitwise against the decoded engine: codegen is accounting-transparent by
contract.  Bailouts are legal (the kernel silently runs decoded) but
tallied, so a corpus where codegen never compiles fails the suite.

Every third seed additionally pits a **gang-batched** build (forced
``REPRO_BATCH=2`` — auto selection would pick a batch too wide for 37
threads and route everything through the remainder loop) against an
unbatched build, comparing outputs *and* ``ExecStats`` bitwise: gang
batching is accounting-transparent by contract, so cycles, instruction
counts, and per-opcode tallies must not move.

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

from repro import diskcache, shard
from repro.benchsuite.fuzzgen import N_THREADS, generate_kernel, workload_arrays
from repro.diagnostics import CompileError
from repro.driver import clear_compile_cache, compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.vm import Interpreter

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))

#: Corpus-wide tally of how each degraded compile landed, so the suite can
#: assert the fuzzer actually exercises the region path (not just the
#: whole-function one) instead of silently fuzzing a dead feature.
#: ``sync`` counts reduction kernels whose degraded legs correctly raised
#: (no scalar strategy exists for cross-lane communication).
_CORPUS = {"partial": 0, "whole": 0, "clean": 0, "sync": 0}

#: Every Nth seed also runs the forced-batch differential below.
_BATCH_EVERY = 3

#: Tally of how those forced-batch compiles landed, so the suite can
#: assert the batching layer actually engages on the fuzz corpus.
_BATCH_CORPUS = {"batched": 0, "rejected": 0}

#: Every Nth seed also runs the forced-codegen differential below.
_CODEGEN_EVERY = 5

#: Tally of how the codegen compiles landed, so the suite can assert the
#: whole-kernel engine actually compiles fuzz kernels (bailouts are legal
#: but a corpus that only bails fuzzes a dead engine).  ``shuffle``
#: counts codegen-leg kernels carrying cross-lane exchanges, so the leg
#: provably exercises them.
_CODEGEN_CORPUS = {"compiled": 0, "bailed": 0, "shuffle": 0}

#: Every ~25th seed additionally runs the cross-process differential:
#: compile + persist in a *subprocess* (disk cache), rehydrate in the
#: parent, run sharded across worker processes, compare bitwise.
_XPROC_EVERY = 25

#: Tally of how the sharded launches landed (legality rejections are
#: fine; a corpus where sharding never engages fuzzes a dead layer).
_XPROC_CORPUS = {"sharded": 0, "rejected": 0}

_XPROC_DIR = None


def _xproc_cache_dir():
    global _XPROC_DIR
    if _XPROC_DIR is None:
        _XPROC_DIR = tempfile.mkdtemp(prefix="repro-fuzz-xproc-")
        atexit.register(shutil.rmtree, _XPROC_DIR, ignore_errors=True)
    return _XPROC_DIR


def _run(module, seed, **engine):
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    interp = Interpreter(module, **engine)
    a = interp.memory.alloc_array(A)
    b = interp.memory.alloc_array(B)
    c = interp.memory.alloc_array(C)
    out = interp.memory.alloc_array(OUT)
    iout = interp.memory.alloc_array(IOUT)
    interp.run("kernel", a, b, c, out, iout, sv, si, N_THREADS)
    outputs = (
        interp.memory.read_array(out, np.float32, N_THREADS),
        interp.memory.read_array(iout, np.int32, N_THREADS),
    )
    return outputs, interp.stats


def _classify(module):
    for f in module.functions.values():
        if f.attrs.get("parsimony_partial_fallback"):
            return "partial"
    for f in module.functions.values():
        if f.attrs.get("parsimony_fallback"):
            return "whole"
    return "clean"


def _assert_same(got, want, context):
    np.testing.assert_array_equal(got[0], want[0], err_msg=f"{context}: OUT")
    np.testing.assert_array_equal(got[1], want[1], err_msg=f"{context}: IOUT")


@pytest.mark.parametrize("seed", range(FUZZ_N))
def test_differential_fuzz_kernel(seed):
    kernel = generate_kernel(seed)
    context = f"seed={seed} gang={kernel.gang_size}\n{kernel.source}"

    plain = compile_parsimony(kernel.source)
    # The oracle leg runs predecoded; every other leg runs the default
    # engine (whole-kernel codegen), so each comparison also crosses tiers.
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
            # The faulted region contained the sync point: correctly
            # refused rather than scalarized.
            pass
        else:
            # The fault missed every emitted block (clean) or landed on a
            # sync-free region (partial, with the reduction kept in vector
            # code) — either way the build must agree with plain.  A
            # whole-function fallback here would be a bug: it cannot
            # represent the reduction.
            assert _classify(degraded) in ("clean", "partial"), context
            _assert_same(_run(degraded, seed)[0], plain_out,
                         f"degraded-sync vs plain: {context}")
        _CORPUS["sync"] += 1
    else:
        with inject(FaultPlan(site="vectorize")):
            whole = compile_parsimony(kernel.source)
        assert _classify(whole) == "whole", context
        _assert_same(_run(whole, seed)[0], plain_out,
                     f"whole vs plain: {context}")

        # Fault the (seed%6)-th emitted block: depending on the kernel's
        # shape this lands on a valid region (partial fallback), the entry
        # block (whole-function fallback), or past the last emission
        # (clean build) — all three must still be bit-identical to the
        # plain build.
        with inject(FaultPlan(site="vectorize_block", after=seed % 6,
                              times=1)):
            degraded = compile_parsimony(kernel.source)
        _CORPUS[_classify(degraded)] += 1
        _assert_same(_run(degraded, seed)[0], plain_out,
                     f"degraded vs plain: {context}")

    if seed % _BATCH_EVERY == 0:
        _batched_differential(kernel, seed, plain_out, context)

    if seed % _CODEGEN_EVERY == 2:
        _codegen_differential(kernel, plain, seed, plain_out, plain_stats,
                              context)

    if seed % _XPROC_EVERY == 1:
        _cross_process_differential(kernel, seed, plain_out, context)


def _batched_differential(kernel, seed, plain_out, context):
    """Forced-batch build vs unbatched build: outputs and ExecStats."""
    saved = {k: os.environ.get(k) for k in ("REPRO_BATCH", "REPRO_NO_BATCH")}
    try:
        os.environ.pop("REPRO_BATCH", None)
        os.environ["REPRO_NO_BATCH"] = "1"
        reference = compile_parsimony(kernel.source)
        del os.environ["REPRO_NO_BATCH"]
        # B=2: small enough that batched bodies execute real trips at
        # every gang size (auto selection over 37 threads would not).
        os.environ["REPRO_BATCH"] = "2"
        batched = compile_parsimony(kernel.source)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    applied = bool(batched.attrs.get("batch_applied"))
    _BATCH_CORPUS["batched" if applied else "rejected"] += 1

    ref_out, ref_stats = _run(reference, seed)
    got_out, got_stats = _run(batched, seed)
    _assert_same(ref_out, plain_out, f"unbatched vs plain: {context}")
    _assert_same(got_out, ref_out, f"batched vs unbatched: {context}")
    assert got_stats.cycles == ref_stats.cycles, (
        f"batched cycles diverge: {context}")
    assert got_stats.instructions == ref_stats.instructions, (
        f"batched instruction count diverges: {context}")
    assert dict(got_stats.counts) == dict(ref_stats.counts), (
        f"batched per-opcode counts diverge: {context}")


def _codegen_differential(kernel, plain, seed, plain_out, plain_stats,
                          context):
    """Whole-kernel codegen engine vs decoded engine on the same module:
    outputs and ExecStats must agree bitwise (accounting transparency is
    the codegen contract — block-merged charges sum to the exact decoded
    totals because every per-instruction cost is a dyadic rational)."""
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    interp = Interpreter(plain, codegen=True)
    addrs = [interp.memory.alloc_array(a) for a in (A, B, C, OUT, IOUT)]
    interp.run("kernel", *addrs, sv, si, N_THREADS)
    got_out = (
        interp.memory.read_array(addrs[3], np.float32, N_THREADS),
        interp.memory.read_array(addrs[4], np.int32, N_THREADS),
    )
    report = interp.codegen_report()
    _CODEGEN_CORPUS["bailed" if report["bailouts"] else "compiled"] += 1
    if kernel.has_shuffle:
        _CODEGEN_CORPUS["shuffle"] += 1
    _assert_same(got_out, plain_out, f"codegen vs decoded: {context}")
    got_stats = interp.stats
    assert got_stats.cycles == plain_stats.cycles, (
        f"codegen cycles diverge: {context}")
    assert got_stats.instructions == plain_stats.instructions, (
        f"codegen instruction count diverges: {context}")
    assert dict(got_stats.counts) == dict(plain_stats.counts), (
        f"codegen per-opcode counts diverge: {context}")


def _run_sharded(module, seed, shards=3):
    """Like :func:`_run`, but through the supervised multi-process engine."""
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    interp = Interpreter(module)
    addrs = [interp.memory.alloc_array(a) for a in (A, B, C, OUT, IOUT)]
    result = shard.run_sharded(
        module, "kernel", (*addrs, sv, si, N_THREADS),
        memory=interp.memory, shards=shards,
    )
    outputs = (
        interp.memory.read_array(addrs[3], np.float32, N_THREADS),
        interp.memory.read_array(addrs[4], np.int32, N_THREADS),
    )
    return outputs, result.stats, result.report


def _cross_process_differential(kernel, seed, plain_out, context):
    """Compile + persist in a subprocess, rehydrate from the disk cache in
    the parent, run sharded across worker processes: outputs and ExecStats
    must agree bitwise end-to-end."""
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

    ref_out, ref_stats = _run(module, seed)
    _assert_same(ref_out, plain_out, f"rehydrated vs plain: {context}")
    got_out, got_stats, report = _run_sharded(module, seed)
    _XPROC_CORPUS["sharded" if report["mode"] == "sharded" else "rejected"] += 1
    _assert_same(got_out, ref_out, f"sharded vs in-process: {context}")
    assert got_stats.cycles == ref_stats.cycles, (
        f"sharded cycles diverge: {context}")
    assert got_stats.instructions == ref_stats.instructions, (
        f"sharded instruction count diverges: {context}")
    assert dict(got_stats.counts) == dict(ref_stats.counts), (
        f"sharded per-opcode counts diverge: {context}")


def test_zz_corpus_exercised_partial_fallback():
    """Runs after the matrix above (pytest preserves file order): the corpus
    must have engaged the region-granular path, not just whole-function,
    and must have generated reduction kernels (the ``sync`` bucket)."""
    assert sum(_CORPUS.values()) == FUZZ_N
    assert _CORPUS["partial"] > 0, _CORPUS
    assert _CORPUS["sync"] > 0, _CORPUS


def test_zz_corpus_exercised_batching():
    """The forced-batch differential must have run on every Nth seed and
    actually widened kernels (legality rejections are fine, but a corpus
    where batching never applies means the hook fuzzes a dead layer)."""
    assert sum(_BATCH_CORPUS.values()) == len(range(0, FUZZ_N, _BATCH_EVERY))
    assert _BATCH_CORPUS["batched"] > 0, _BATCH_CORPUS


def test_zz_corpus_exercised_codegen():
    """The forced-codegen differential must have run on every Nth seed and
    actually compiled kernels (bailouts are legal, but a corpus where the
    whole-kernel engine never engages fuzzes a dead layer)."""
    expected = len([s for s in range(FUZZ_N) if s % _CODEGEN_EVERY == 2])
    if expected == 0:
        pytest.skip("FUZZ_N too small for the codegen cadence")
    assert _CODEGEN_CORPUS["compiled"] + _CODEGEN_CORPUS["bailed"] == expected
    assert _CODEGEN_CORPUS["compiled"] > 0, _CODEGEN_CORPUS
    if expected >= 20:
        # Cross-lane exchange kernels must flow through the codegen leg
        # (p≈0.3 per seed: 20 draws miss with probability < 0.1%).
        assert _CODEGEN_CORPUS["shuffle"] > 0, _CODEGEN_CORPUS


def test_zz_corpus_exercised_cross_process_sharding():
    """The cross-process differential must have run on every ~25th seed
    and actually sharded kernels across worker processes."""
    expected = len([s for s in range(FUZZ_N) if s % _XPROC_EVERY == 1])
    if expected == 0:
        pytest.skip("FUZZ_N too small for the cross-process cadence")
    assert sum(_XPROC_CORPUS.values()) == expected
    assert _XPROC_CORPUS["sharded"] > 0, _XPROC_CORPUS
