#!/usr/bin/env python3
"""Differential SPMD kernel fuzz smoke: random kernels, four execution
strategies, bitwise agreement.

    REPRO_FUZZ_N=500 python examples/fuzz_smoke.py [--n N] [--telemetry out.json]

Every seed generates one random SPMD kernel (``repro.benchsuite.fuzzgen``)
and compares the fully vectorized build bitwise against the
whole-function-scalarized build (``vectorize`` fault).  On a
deterministic 10% of the seeds a single-shot ``vectorize_block`` fault
additionally fails the vectorizer mid-emission; that build must degrade
the whole function and agree bitwise too.  Every seed also runs the plain build —
gang-batched at the cost model's factor — as generated code
(``codegen=True``) against its unbatched twin on the reference engine,
which must agree bitwise on outputs *and* on cycles/instructions (the
accounting contract).  A kernel whose region sits in a row loop must
collapse the nest when it can, and its in-place variant (the output one
row below the input) must fall back to one row per trip.

Kernels containing a ``psim_reduce_*_sync`` intrinsic have no scalar
execution strategy — cross-lane communication cannot be scalarized — so
their degraded compiles must *refuse* with ``CompileError`` rather
than fall back.

``--telemetry PATH`` writes the session JSON — including
``vectorizer.fallbacks`` records, and in its meta how many plain builds
gang batching widened (``batched``) and why it left loops unbatched
(``batch_rejections``, reason → loops) — for the CI fuzz-smoke job's
artifact.

Exits non-zero on any mismatch, on any codegen bailout (``error:*``
included: an emitter or ``compile()`` failure, which still agrees
bitwise because the launch replays whole on the reference engine, so
only the bailout count shows it), or if the block-fault seeds never
degraded a build, or if the codegen seeds never ran compiled code
(either would mean the smoke was silently fuzzing a dead feature).
"""

import argparse
import collections
import os
import sys

import numpy as np

from repro import telemetry
from repro.benchsuite.fuzzgen import (
    N_CELLS,
    N_THREADS,
    generate_kernel,
    workload_arrays,
)
from repro.diagnostics import CompileError
from repro.driver import compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.vectorizer import parsimony_records
from repro.vm import Interpreter


def run(module, seed, codegen=False):
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    interp = Interpreter(module, codegen=codegen)
    addrs = [interp.memory.alloc_array(arr) for arr in (A, B, C, OUT, IOUT)]
    interp.run("kernel", *addrs, sv, si, N_THREADS)
    outs = (
        interp.memory.read_array(addrs[3], np.float32, N_THREADS),
        interp.memory.read_array(addrs[4], np.int32, N_CELLS),
        interp.memory.read_array(addrs[1], np.float32, N_THREADS),
        interp.memory.read_array(addrs[2], np.int32, N_THREADS),
    )
    return outs, interp


def check_seed(seed, counts, rejections):
    kernel = generate_kernel(seed)
    plain = compile_parsimony(kernel.source)
    counts["batched"] += bool(plain.attrs.get("batch_applied"))
    rejections.update(r["reason"] for r in plain.attrs.get("batch_rejected", ()))
    want, base = run(plain, seed)

    builds = []
    if kernel.refuses_whole_fallback:
        # No scalar strategy exists for cross-lane communication: the
        # whole-function degraded compile must refuse, never mistranslate.
        try:
            with inject(FaultPlan(site="vectorize")):
                compile_parsimony(kernel.source)
        except CompileError:
            counts["refused"] += 1
        else:
            print(f"  FAIL seed {seed}: cross-lane kernel scalarized "
                  f"whole-function instead of refusing\n{kernel.source}")
            return False
    else:
        with inject(FaultPlan(site="vectorize")):
            builds.append(("whole", compile_parsimony(kernel.source)))
    if seed % 10 == 0:
        # Fail the vectorizer mid-emission on a deterministic 10% of seeds:
        # fault a block past the entry, with a half-built vector function
        # in hand.
        plan = FaultPlan(site="vectorize_block", after=1 + seed % 5, times=1)
        try:
            with inject(plan):
                module = compile_parsimony(kernel.source)
        except CompileError:
            # Legal only for cross-lane kernels: no scalar strategy.
            if not kernel.refuses_whole_fallback:
                print(f"  FAIL seed {seed}: block fault refused a kernel "
                      f"without cross-lane ops\n{kernel.source}")
                return False
            counts["refused"] += 1
        else:
            degraded = any(r.get("parsimony_fallback")
                           for r in parsimony_records(module).values())
            if plan.fired and not degraded:
                print(f"  FAIL seed {seed}: block fault left no "
                      f"whole-function fallback\n{kernel.source}")
                return False
            counts["block_whole"] += degraded
            builds.append(("block-fault", module))

    ok = True
    for label, module in builds:
        got, _ = run(module, seed)
        for g, w in zip(got, want):
            if not np.array_equal(g, w, equal_nan=True):
                print(f"  FAIL seed {seed} ({label} vs plain):\n{kernel.source}")
                ok = False
                break

    # Batched leg: same module as generated code, every seed.
    got, engine = run(plain, seed, codegen=True)
    report = engine.codegen_report()
    if report["bailouts"]:
        counts["bailed"] += 1
        print(f"  FAIL seed {seed}: codegen bailed out"
              f" {report['bailouts']}\n{kernel.source}")
        ok = False
    else:
        counts["compiled"] += 1
    if any(" rows of " in e for e in plain.attrs.get("batch_applied", ())):
        counts["collapsed"] += 1
        counts["fell_back"] += report["row_fallbacks"]
        if kernel.in_place != bool(report["row_fallbacks"]):
            print(f"  FAIL seed {seed}: in-place {kernel.in_place}, row"
                  f" fallbacks {report['row_fallbacks']}\n{kernel.source}")
            ok = False
    if not all(np.array_equal(g, w, equal_nan=True)
               for g, w in zip(got, want)):
        print(f"  FAIL seed {seed} (codegen vs plain):\n{kernel.source}")
        ok = False
    elif (engine.stats.cycles != base.stats.cycles
          or engine.stats.instructions != base.stats.instructions):
        print(f"  FAIL seed {seed}: codegen ExecStats diverge "
              f"({engine.stats.cycles} vs {base.stats.cycles} cycles)"
              f"\n{kernel.source}")
        ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=int(os.environ.get("REPRO_FUZZ_N", "200")),
        help="number of seeds (default: $REPRO_FUZZ_N or 200)",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="write session telemetry (incl. fallback records) to PATH",
    )
    args = parser.parse_args()

    print(f"differential kernel fuzz — {args.n} seeds, "
          f"block fault forced on every 10th, codegen on every seed")
    failures = 0
    counts = {"refused": 0, "block_whole": 0, "compiled": 0, "bailed": 0,
              "collapsed": 0, "fell_back": 0, "batched": 0}
    rejections = collections.Counter()
    with telemetry.collect() as session:
        for seed in range(args.n):
            if not check_seed(seed, counts, rejections):
                failures += 1
    if args.n >= 10 and counts["block_whole"] == 0:
        print("FAIL: block-fault seeds never degraded a build")
        failures += 1
    if args.n >= 15 and counts["compiled"] == 0:
        print("FAIL: codegen seeds never ran compiled code")
        failures += 1
    if args.n >= 200 and not (counts["collapsed"] and counts["fell_back"]):
        print(f"FAIL: no row nest collapsed, or none fell back: {counts}")
        failures += 1

    session.meta["harness"] = "fuzz_smoke"
    session.meta["cases"] = args.n
    session.meta["block_fault_fallbacks"] = counts["block_whole"]
    session.meta["reduction_refusals"] = counts["refused"]
    session.meta["codegen_compiled"] = counts["compiled"]
    session.meta["codegen_bailed"] = counts["bailed"]
    session.meta["row_nests_collapsed"] = counts["collapsed"]
    session.meta["row_fallbacks"] = counts["fell_back"]
    session.meta["batched"] = counts["batched"]
    session.meta["batch_rejections"] = dict(rejections.most_common())
    session.meta["failures"] = failures

    if args.telemetry:
        session.write(args.telemetry)
        print(f"telemetry written to {args.telemetry}")

    if failures:
        print(f"\n{failures} seed(s) FAILED")
        return 1
    print(f"\nall {args.n} seeds agree bitwise "
          f"({counts['block_whole']} block-fault fallback(s), "
          f"{counts['refused']} reduction refusal(s), "
          f"{counts['compiled']} codegen-compiled, "
          f"{counts['batched']} batched)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
