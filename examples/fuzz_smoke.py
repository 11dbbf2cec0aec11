#!/usr/bin/env python3
"""Differential SPMD kernel fuzz smoke: random kernels, four execution
strategies, bitwise agreement.

    REPRO_FUZZ_N=500 python examples/fuzz_smoke.py [--n N] [--telemetry out.json]

Every seed generates one random SPMD kernel (``repro.benchsuite.fuzzgen``)
and compares the fully vectorized build bitwise against the
whole-function-scalarized build (``vectorize`` fault).  On a
deterministic 10% of the seeds a single-shot ``vectorize_block`` fault
additionally forces the region-granular partial-fallback path, and that
build must agree bitwise too.  Every 5th seed also runs the plain build
through the whole-kernel codegen engine (``codegen=True``), which must
agree bitwise on outputs *and* on cycles/instructions (the accounting
contract).

Kernels containing a ``psim_reduce_*_sync`` intrinsic have no scalar
execution strategy — cross-lane communication cannot be scalarized — so
their whole-function-degraded compile must *refuse* with
``CompileError`` rather than fall back; the region-granular build may
either succeed (the faulted region avoided the sync point) or refuse.

``--telemetry PATH`` writes the session JSON — including
``vectorizer.partial_fallbacks`` records — for the CI fuzz-smoke job's
artifact.

Exits non-zero on any mismatch, or if the forced-partial seeds never
engaged the region path, or if the codegen seeds never ran compiled
code (either would mean the smoke was silently fuzzing a dead feature).
"""

import argparse
import os
import sys

import numpy as np

from repro import telemetry
from repro.benchsuite.fuzzgen import N_THREADS, generate_kernel, workload_arrays
from repro.diagnostics import CompileError
from repro.driver import compile_parsimony
from repro.faultinject import FaultPlan, inject
from repro.vm import Interpreter


def run(module, seed, codegen=False):
    A, B, C, OUT, IOUT, sv, si = workload_arrays(seed)
    interp = Interpreter(module, codegen=codegen)
    addrs = [interp.memory.alloc_array(arr) for arr in (A, B, C, OUT, IOUT)]
    interp.run("kernel", *addrs, sv, si, N_THREADS)
    outs = (
        interp.memory.read_array(addrs[3], np.float32, N_THREADS),
        interp.memory.read_array(addrs[4], np.int32, N_THREADS),
    )
    return outs, interp


def check_seed(seed, counts):
    kernel = generate_kernel(seed)
    plain = compile_parsimony(kernel.source)
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
        # Force the region-granular path on a deterministic 10% of seeds:
        # fault a block past the entry so the failure carries provenance.
        plan = FaultPlan(site="vectorize_block", after=1 + seed % 5, times=1)
        try:
            with inject(plan):
                builds.append(("partial", compile_parsimony(kernel.source)))
        except CompileError:
            # Legal only for cross-lane kernels, when the faulted region
            # contains the sync point.
            if not kernel.refuses_whole_fallback:
                print(f"  FAIL seed {seed}: partial fallback refused a "
                      f"kernel without cross-lane ops\n{kernel.source}")
                return False
            counts["refused"] += 1

    ok = True
    for label, module in builds:
        got, _ = run(module, seed)
        for g, w in zip(got, want):
            if not np.array_equal(g, w):
                print(f"  FAIL seed {seed} ({label} vs plain):\n{kernel.source}")
                ok = False
                break

    if seed % 5 == 2:
        # Whole-kernel codegen leg: same module, compiled dispatch.
        got, engine = run(plain, seed, codegen=True)
        report = engine.codegen_report()
        if report["bailouts"]:
            counts["bailed"] += 1
        else:
            counts["compiled"] += 1
        if not all(np.array_equal(g, w) for g, w in zip(got, want)):
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
        help="write session telemetry (incl. partial-fallback records) to PATH",
    )
    args = parser.parse_args()

    print(f"differential kernel fuzz — {args.n} seeds, "
          f"partial fallback forced on every 10th, codegen on every 5th")
    failures = 0
    counts = {"refused": 0, "compiled": 0, "bailed": 0}
    with telemetry.collect() as session:
        for seed in range(args.n):
            if not check_seed(seed, counts):
                failures += 1
    partials = len(session.partial_fallbacks)
    if args.n >= 10 and partials == 0:
        print("FAIL: forced-partial seeds never engaged the region path")
        failures += 1
    if args.n >= 15 and counts["compiled"] == 0:
        print("FAIL: codegen seeds never ran compiled code")
        failures += 1

    session.meta["harness"] = "fuzz_smoke"
    session.meta["cases"] = args.n
    session.meta["partial_fallbacks_engaged"] = partials
    session.meta["reduction_refusals"] = counts["refused"]
    session.meta["codegen_compiled"] = counts["compiled"]
    session.meta["codegen_bailed"] = counts["bailed"]
    session.meta["failures"] = failures

    if args.telemetry:
        session.write(args.telemetry)
        print(f"telemetry written to {args.telemetry}")

    if failures:
        print(f"\n{failures} seed(s) FAILED")
        return 1
    print(f"\nall {args.n} seeds agree bitwise "
          f"({partials} region-granular fallback(s), "
          f"{counts['refused']} reduction refusal(s), "
          f"{counts['compiled']} codegen-compiled)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
