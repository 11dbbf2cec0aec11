#!/usr/bin/env python3
"""CI perf-smoke: reduced ispc-suite sweep across engine configurations.

    python examples/perf_smoke.py [--kernels a,b] [--impls scalar,parsimony]
                                  [--out telemetry.json]

``--kernels`` takes fig4 and fig5 names.  Runs each selected kernel in
three configurations — batched (the
default: whole-kernel codegen on the gang-batched build), unbatched
(``batch_request=0``), and the reference engine (``codegen=False`` on
the batched build, which runs its unbatched twin: what a trap replay or
a bailout runs) — and **fails (exit 1)** if:

* any configuration's outputs diverge bit-for-bit from any other,
* any configuration's ``ExecStats`` (cycles, instructions, per-opcode
  counts) diverge (the accounting-transparency contract: neither gang
  batching nor whole-kernel codegen may change what the machine model
  charges),
* the parsimony implementation never engages gang batching across the
  sweep (``vm.batch.applied`` stays zero — the layer silently died), or
  a kernel whose build batched runs slower than the batch floor (default
  0.95× its unbatched build, measured interleaved; the default sweep
  holds four row nests that collapse into the gang trip — stencil,
  ``Laplace``, ``LbpEstimate`` and ``GetRowSums`` with its per-row
  atomic cells — and the two histograms' scatter-adds),
* the codegen engine never runs a compiled kernel across the sweep
  (``vm.codegen.calls`` stays zero — every kernel bailed out), or a
  kernel where codegen *did* engage runs slower than the codegen floor
  (default 0.9× the reference engine, measured interleaved),
* a swept kernel whose thread count is its last scalar, launched with
  one gang of threads — a single predicated trip of one live gang —
  runs its batched build slower than the same codegen floor times its
  unbatched build (each build bound once, launches interleaved, min of
  15), or ends in different memory or ``ExecStats``: a trip computes only
  its live gangs, so a short launch must not pay for the batch factor,
* any build of the fig4 **or** fig5 suite (every kernel × every
  implementation) records a codegen bailout, a replay (a trap, or an
  inline access whose range test failed on the suite's own inputs, on
  the module or its unbatched twin), or a row nest that ran one row per
  trip because its no-alias check failed: the coverage floor — every
  suite build must compile and complete on the default engine, in
  bounds; a new bailout reason is a coverage regression, not an
  acceptable fallback.

``--bailout-out`` writes the per-build codegen bailout histogram and
replays as a JSON artifact so a coverage regression names the reason in
CI.

``--out`` writes the collected telemetry JSON (flattened ``vm.batch.*``
and ``vm.codegen.*`` counters, per-run wall-clock) for upload as a CI
artifact; per-kernel wall-clock for all configurations plus the
batched-vs-unbatched and codegen-vs-reference ratios land in
``meta.perf_smoke``.
"""

import argparse
import dataclasses
import json
import re
import sys
import time

import numpy as np

from repro import telemetry
from repro.benchsuite import IMPLEMENTATIONS, build_impl, run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.simdlib import KERNELS
from repro.driver import compile_parsimony
from repro.vm import Interpreter

#: binomial_options batches with its lattice expanded per gang; stencil
#: and the three fig5 filters collapse their row nests; the histograms
#: run their serialized atomics as one scatter-add per trip.
DEFAULT_KERNELS = ("mandelbrot,noise,stencil,binomial_options,"
                   "Laplace,LbpEstimate,GetRowSums,Histogram,HistogramMasked")
DEFAULT_IMPLS = "scalar,parsimony"

#: Every (suite, implementations) pair the figure reports build.
COVERAGE_SUITES = (
    (BENCHMARKS, ("scalar", "autovec", "parsimony", "ispc")),
    (KERNELS, IMPLEMENTATIONS),
)


def _stats_equal(a, b):
    """Bitwise equal ``ExecStats``, counts exact Python ints on both sides
    (a ``numpy.int64`` count compares equal but breaks JSON)."""
    return (
        a.stats.cycles == b.stats.cycles
        and a.stats.instructions == b.stats.instructions
        and dict(a.stats.counts) == dict(b.stats.counts)
        and all(type(s.instructions) is int
                and all(type(n) is int for n in s.counts.values())
                for s in (a.stats, b.stats))
    )


def _outputs_equal(a, b):
    sig_a, sig_b = a.output_signature(), b.output_signature()
    return len(sig_a) == len(sig_b) and all(
        np.array_equal(x, y) for x, y in zip(sig_a, sig_b)
    )


def _unbatched(spec, impl):
    """``impl``'s build with gang batching off (only the Parsimony flow
    batches), for ``run_impl(module=...)``."""
    if impl != "parsimony":
        return None
    return compile_parsimony(spec.psim_src,
                             module_name=f"{spec.name}.parsimony",
                             batch_request=0)


def _one_gang(spec):
    """The kernel's workload cut to one gang of threads, when its thread
    count is its last scalar (``num_threads=n``, ``n`` last); else None."""
    params = re.search(r"void kernel\(([^)]*)\)", spec.psim_src)
    psim = re.search(r"gang_size=(\d+), num_threads=(\w+)\)", spec.psim_src)
    if not (params and psim) or \
            params.group(1).split()[-1] != psim.group(2):
        return None
    workload = spec.workload()
    return dataclasses.replace(
        workload, scalars=list(workload.scalars[:-1]) + [int(psim.group(1))])


def _one_gang_ratio(spec, impl):
    """Unbatched over batched wall-clock of a one-gang launch — each build
    bound once, as a server launches a kernel, the launches interleaved,
    min of 15 each after a warm one — and whether the two builds end
    bitwise equal in memory and ``ExecStats`` (None when the kernel's
    thread count is not its last scalar)."""
    workload = _one_gang(spec)
    if workload is None:
        return None
    launches = {}
    for batched in (True, False):
        interp = Interpreter(build_impl(spec, impl) if batched
                             else _unbatched(spec, impl))
        addrs = []
        for array in workload.arrays:
            addrs.append(interp.memory.alloc_array(array))
            interp.memory.alloc(4096)  # run_impl's guard after each array
        launches[batched] = (interp, addrs)
    walls = {True: [], False: []}
    for i in range(16):
        for batched, (interp, addrs) in launches.items():
            interp.reset_stats()
            start = time.perf_counter()
            interp.run("kernel", *addrs, *workload.scalars)
            if i:
                walls[batched].append(time.perf_counter() - start)
    (b, _), (u, _) = launches[True], launches[False]
    wall_b, wall_nb = min(walls[True]), min(walls[False])
    return {"wall_batched": wall_b, "wall_unbatched": wall_nb,
            "ratio": wall_nb / wall_b if wall_b else None,
            "bitwise": np.array_equal(b.memory.image(), u.memory.image())
            and _stats_equal(b, u)}


def _coverage_sweep(session, failures):
    """Run every fig4 and fig5 build once on the default engine; returns
    the per-build bailout histogram (empty dicts when all compiled) and
    the per-build replays (on the module or on its unbatched twin)."""
    per_build, replays = {}, {}
    for suite, impls in COVERAGE_SUITES:
        for spec in suite:
            for impl in impls:
                name = f"{spec.name}/{impl}"
                run_impl(spec, impl)
                run = session.vm_runs[-1]
                report = run.get("codegen") or {}
                bailouts = dict(report.get("bailouts") or {})
                per_build[name] = bailouts
                replays[name] = int(report.get("replays") or 0)
                if (bailouts or replays[name]
                        or report.get("row_fallbacks")
                        or not report.get("calls")):
                    failures.append(
                        f"{name}: coverage floor is zero bailouts, zero "
                        f"replays and zero row fallbacks on the default "
                        f"engine: {report}, {replays[name]} replays")
    return per_build, replays


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", default=DEFAULT_KERNELS,
                        help="comma-separated suite kernels to sweep")
    parser.add_argument("--impls", default=DEFAULT_IMPLS,
                        help="comma-separated implementations to run")
    parser.add_argument("--out", metavar="PATH",
                        help="write telemetry JSON (CI artifact)")
    parser.add_argument("--batch-floor", type=float, default=0.95,
                        metavar="RATIO",
                        help="minimum unbatched/batched wall-clock ratio for "
                             "kernels whose build batched (default: 0.95)")
    parser.add_argument("--codegen-floor", type=float, default=0.9,
                        metavar="RATIO",
                        help="minimum reference/codegen wall-clock ratio for "
                             "kernels where codegen engaged (default: 0.9)")
    parser.add_argument("--bailout-out", metavar="PATH",
                        help="write the per-build codegen bailout "
                             "histogram JSON (CI artifact)")
    args = parser.parse_args()

    wanted = args.kernels.split(",")
    specs = [s for s in list(BENCHMARKS) + list(KERNELS) if s.name in wanted]
    unknown = set(wanted) - {s.name for s in specs}
    if unknown:
        parser.error(f"unknown kernels: {sorted(unknown)}")
    impls = args.impls.split(",")

    failures = []
    rows = {}
    bailouts_by_build = {}
    with telemetry.collect() as session:
        for spec in specs:
            for impl in impls:
                name = f"{spec.name}/{impl}"
                # Batched and unbatched samples alternate (min of 3 each),
                # so a slow machine phase lands on both sides of the ratio.
                walls_b, walls_nb = [], []
                for _ in range(3):
                    batched = run_impl(spec, impl)
                    batched_run = session.vm_runs[-1]
                    walls_b.append(batched_run.get("wall_seconds") or 0.0)
                    nobatch = run_impl(spec, impl,
                                       module=_unbatched(spec, impl))
                    walls_nb.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                wall_b, wall_nb = min(walls_b), min(walls_nb)
                # The reference engine on the same batched build (so on
                # its unbatched twin), interleaved with codegen samples so
                # machine-phase noise lands on both sides of the ratio
                # (min of 3 each).
                walls_ref, walls_cg = [], []
                reference = None
                for _ in range(3):
                    reference = run_impl(spec, impl, codegen=False)
                    walls_ref.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                    run_impl(spec, impl)
                    walls_cg.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                wall_ref, wall_cg = min(walls_ref), min(walls_cg)
                cg_report = batched_run.get("codegen") or {}
                bailouts_by_build[name] = dict(cg_report.get("bailouts") or {})

                stats_ok = out_ok = True
                for label, other in (("unbatched", nobatch),
                                     ("reference engine", reference)):
                    if not _stats_equal(batched, other):
                        stats_ok = False
                        failures.append(
                            f"{name}: batched codegen ExecStats diverge "
                            f"from {label}")
                    if not _outputs_equal(batched, other):
                        out_ok = False
                        failures.append(
                            f"{name}: batched codegen outputs diverge "
                            f"from {label}")
                # The floor only binds where codegen actually engaged: a
                # bailed-out kernel runs the reference engine on both sides
                # of the ratio, so comparing it against the floor would
                # just measure noise against itself.
                cg_ratio = (wall_ref / wall_cg) if wall_cg else None
                if (cg_ratio is not None and cg_ratio < args.codegen_floor
                        and cg_report.get("calls")):
                    failures.append(
                        f"{name}: codegen runs at {cg_ratio:.2f}x the "
                        f"reference engine (< {args.codegen_floor} floor): "
                        f"{cg_report}")
                # The batch floor binds where batching applied: elsewhere
                # both sides of the ratio run the same unbatched module.
                batch = batched_run.get("batch") or {}
                batch_ratio = (wall_nb / wall_b) if wall_b else None
                if (batch_ratio is not None and batch_ratio < args.batch_floor
                        and batch.get("applied")):
                    failures.append(
                        f"{name}: batched build runs at {batch_ratio:.2f}x "
                        f"its unbatched build (< {args.batch_floor} floor): "
                        f"{batch}")

                one_gang = None
                if impl == "parsimony" and batch.get("applied"):
                    one_gang = _one_gang_ratio(spec, impl)
                if one_gang and not one_gang["bitwise"]:
                    failures.append(f"{name}: one-gang launch: batched and "
                                    f"unbatched builds diverge")
                if one_gang and one_gang["ratio"] is not None \
                        and one_gang["ratio"] < args.codegen_floor:
                    failures.append(
                        f"{name}: a one-gang launch runs its batched build at "
                        f"{one_gang['ratio']:.2f}x its unbatched build "
                        f"(< {args.codegen_floor} floor): {one_gang}")

                rows[name] = {
                    "one_gang": one_gang,
                    "wall_batched": wall_b,
                    "wall_unbatched": wall_nb,
                    "wall_reference": wall_ref,
                    "wall_codegen": wall_cg,
                    "batch_speedup": batch_ratio,
                    "codegen_speedup": cg_ratio,
                    "stats_identical": stats_ok,
                    "outputs_identical": out_ok,
                    "batch": batched_run.get("batch"),
                    "codegen": cg_report,
                }
                print(
                    f"{name:32s} unbatched={wall_nb * 1e3:7.1f}ms "
                    f"batched={wall_b * 1e3:7.1f}ms "
                    f"reference={wall_ref * 1e3:7.1f}ms "
                    f"batchx={rows[name]['batch_speedup']:5.2f} "
                    f"cgx={cg_ratio:5.2f} "
                    + (f"1gangx={one_gang['ratio']:5.2f} " if one_gang
                       else "")
                    + f"stats={'ok' if stats_ok else 'DIVERGED'} "
                    f"out={'ok' if out_ok else 'DIVERGED'}"
                )

        swept, replays = _coverage_sweep(session, failures)
        bailouts_by_build.update(swept)

    session.meta["perf_smoke"] = rows
    batch_totals = session.vm_batch_totals()
    codegen_totals = session.vm_codegen_totals()
    print(f"\nvm.batch totals: {batch_totals}")
    print(f"vm.codegen totals: {codegen_totals}")
    if not codegen_totals.get("vm.codegen.calls"):
        failures.append("whole-kernel codegen never ran a compiled kernel "
                        "across the sweep (every kernel bailed out)")
    if "parsimony" in impls and not batch_totals.get("vm.batch.applied"):
        failures.append("gang batching never applied across the parsimony sweep")
    if args.out:
        session.write(args.out)
        print(f"telemetry written to {args.out}")
    if args.bailout_out:
        histogram = {}
        for per_build in bailouts_by_build.values():
            for reason, n in per_build.items():
                histogram[reason] = histogram.get(reason, 0) + int(n)
        with open(args.bailout_out, "w") as fh:
            json.dump({
                "schema": "repro-codegen-bailouts/1",
                "histogram": histogram,
                "per_kernel": bailouts_by_build,
                "replays_per_build": replays,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"codegen bailout histogram written to {args.bailout_out}")

    if failures:
        print("\nPERF-SMOKE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nperf-smoke OK: batched/unbatched/reference bit-identical, "
          f"{len(bailouts_by_build)} suite builds compiled with zero "
          "bailouts and zero replays")


if __name__ == "__main__":
    main()
