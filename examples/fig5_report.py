#!/usr/bin/env python3
"""Regenerate Figure 5: speedup over un-vectorized scalar compilation on
the 72 Simd Library kernels, for hand-written intrinsics, Parsimony, and
LLVM auto-vectorization (paper §6).

    python examples/fig5_report.py [--full] [--telemetry out.json]
                                  [--disk-cache] [--dump-codegen KERNEL]

``--telemetry PATH`` collects pipeline observability — pass timings,
vectorizer shape/memory-form counters, per-function VM cycle
attribution — and writes it as structured JSON.  ``--dump-codegen
KERNEL`` prints the Python source the whole-kernel codegen engine
generates for one kernel (under a header: lines, values folded at emit
time, inline vs ``Memory``-only accesses, hoisted bindings by kind) and
exits.

Paper reference points: geomeans 7.91x (hand-written), 7.70x (Parsimony),
3.46x (auto-vectorization); Parsimony reaches 0.97x of hand-written and
2.23x of auto-vectorization.
"""

import argparse

from repro import telemetry
from repro.benchsuite import (dump_codegen, geomean, measure_kernel,
                              summarize_telemetry)
from repro.benchsuite.simdlib import BY_NAME, KERNELS
from repro.driver import set_disk_cache


def report(full: bool):
    print("Figure 5 — speedup over scalar (model cycles), 72 Simd Library kernels")
    if full:
        print(f"{'#':>3s} {'kernel':38s} {'autovec':>8s} {'psim':>8s} {'hand':>8s}")
    rows = []
    for index, spec in enumerate(KERNELS, 1):
        speedups = measure_kernel(spec)
        rows.append((spec.name, speedups))
        if full:
            print(
                f"{index:3d} {spec.name:38s} {speedups['autovec']:8.2f} "
                f"{speedups['parsimony']:8.2f} {speedups['handwritten']:8.2f}"
            )
    print("-" * 68)
    for impl, label in (
        ("autovec", "LLVM Auto-vectorization"),
        ("parsimony", "Parsimony"),
        ("handwritten", "Hand-written AVX-512"),
    ):
        g = geomean([s[impl] for _, s in rows])
        print(f"geomean {label:26s} {g:8.2f}")
    ratio = geomean([s["parsimony"] / s["handwritten"] for _, s in rows])
    av_ratio = geomean([s["parsimony"] / s["autovec"] for _, s in rows])
    print(f"\nParsimony / hand-written: {ratio:.2f}   (paper: 0.97)")
    print(f"Parsimony / auto-vec:     {av_ratio:.2f}   (paper: 2.23)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="print the per-kernel table"
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="write pipeline telemetry (pass timings, vectorizer counters, "
             "VM hot-spots) as JSON to PATH",
    )
    parser.add_argument(
        "--disk-cache", action="store_true",
        help="enable the persistent on-disk compile cache",
    )
    parser.add_argument(
        "--dump-codegen", metavar="KERNEL",
        help="print the source the codegen engine generates for KERNEL's "
             "Parsimony build, with its emit-time summary, and exit",
    )
    args = parser.parse_args()

    if args.disk_cache:
        set_disk_cache(True)
    if args.dump_codegen:
        if args.dump_codegen not in BY_NAME:
            parser.error(f"unknown kernel: {args.dump_codegen}")
        print(dump_codegen(BY_NAME[args.dump_codegen]))
        return

    if args.telemetry:
        with telemetry.collect() as session:
            report(args.full)
        session.meta["figure"] = "fig5"
        session.meta["cycles_by_kernel"] = summarize_telemetry(session)
        session.write(args.telemetry)
        print(f"\ntelemetry written to {args.telemetry}")
    else:
        report(args.full)


if __name__ == "__main__":
    main()
