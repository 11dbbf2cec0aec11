#!/usr/bin/env python3
"""CI perf-smoke: reduced ispc-suite sweep across engine configurations.

    python examples/perf_smoke.py [--kernels a,b] [--impls scalar,parsimony]
                                  [--out telemetry.json] [--autotune]

Runs each selected kernel in three configurations — batched (the
default: whole-kernel codegen on the gang-batched build), unbatched
(``REPRO_NO_BATCH=1``), and the predecoded twin (``codegen=False`` on
the batched build: what a trap replay, a bailout or a shard worker
runs) — and **fails (exit 1)** if:

* any configuration's outputs diverge bit-for-bit from any other,
* any configuration's ``ExecStats`` (cycles, instructions, per-opcode
  counts) diverge (the accounting-transparency contract: neither gang
  batching nor whole-kernel codegen may change what the machine model
  charges),
* the parsimony implementation never engages gang batching across the
  sweep (``vm.batch.applied`` stays zero — the layer silently died),
* the codegen engine never runs a compiled kernel across the sweep
  (``vm.codegen.calls`` stays zero — every kernel bailed out), or a
  kernel where codegen *did* engage runs slower than the codegen floor
  (default 0.9× its predecoded twin, measured interleaved),
* any build of the fig4 **or** fig5 suite (every kernel × every
  implementation) records a codegen bailout or a trap replay: the
  coverage floor — every suite build must compile and complete on the
  default engine; a new bailout reason is a coverage regression, not an
  acceptable fallback.  (Skipped under ``--shards``, whose jobs test the
  supervisor.)

``--bailout-out`` writes the per-build codegen bailout histogram as a
JSON artifact so a coverage regression names the reason in CI.

``--autotune`` adds a configuration for the parsimony implementation:
profile-guided batch selection (``REPRO_AUTOTUNE=1``).  It additionally
**fails** if any kernel's autotuned configuration runs slower than 0.95×
plain unbatched — the regression the tuner exists to prevent (a
statically mis-batched kernel like stencil losing wall-clock to the
unbatched engine) — or if the autotuned outputs/``ExecStats`` diverge
from the other configurations.

``--shards N`` adds a sharded configuration: every kernel/impl also runs
through the supervised multi-process executor (``REPRO_SHARDS=N``, see
:mod:`repro.shard`) and **fails** if its outputs or ``ExecStats`` diverge
from the in-process run, or if sharding never engages across the sweep.
With ``REPRO_FAULT_PLAN`` set (e.g.
``worker_crash::0:1;worker_hang::0:1``), the same plans are armed around
both the in-process comparator and the sharded run — the fault matrix —
and the sweep additionally **fails** if an armed worker fault fires
without a recorded retry/degradation, or never fires at all on a sharded
launch.

``--out`` writes the collected telemetry JSON (flattened ``vm.batch.*``,
``vm.autotune.*``, ``vm.shard.*``, and ``vm.codegen.*`` counters,
per-run wall-clock) for upload as a CI artifact; per-kernel wall-clock
for all configurations plus the batched-vs-unbatched,
codegen-vs-predecoded, and autotuned-vs-unbatched ratios land in
``meta.perf_smoke``.
"""

import argparse
import json
import os
import sys

import numpy as np

from repro import faultinject, telemetry
from repro.benchsuite import IMPLEMENTATIONS, run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.simdlib import KERNELS

DEFAULT_KERNELS = "mandelbrot,noise,stencil"
DEFAULT_IMPLS = "scalar,parsimony"

#: Every (suite, implementations) pair the figure reports build.
COVERAGE_SUITES = (
    (BENCHMARKS, ("scalar", "autovec", "parsimony", "ispc")),
    (KERNELS, IMPLEMENTATIONS),
)


def _stats_equal(a, b):
    return (
        a.stats.cycles == b.stats.cycles
        and a.stats.instructions == b.stats.instructions
        and dict(a.stats.counts) == dict(b.stats.counts)
    )


def _outputs_equal(a, b):
    sig_a, sig_b = a.output_signature(), b.output_signature()
    return len(sig_a) == len(sig_b) and all(
        np.array_equal(x, y) for x, y in zip(sig_a, sig_b)
    )


def _timed_pair(session, spec, impl):
    """Two reps on the default engine; min() reports steady-state cost
    (the first run also pays the one-time emission and ``compile()``)."""
    run_impl(spec, impl)
    result = run_impl(spec, impl)
    runs = session.vm_runs[-2:]
    wall = min(r.get("wall_seconds") or 0.0 for r in runs)
    return result, runs[-1], wall


def _coverage_sweep(session, failures):
    """Run every fig4 and fig5 build once on the default engine; returns
    the per-build bailout histogram (empty dicts when all compiled)."""
    per_build = {}
    for suite, impls in COVERAGE_SUITES:
        for spec in suite:
            for impl in impls:
                name = f"{spec.name}/{impl}"
                run_impl(spec, impl)
                report = session.vm_runs[-1].get("codegen") or {}
                bailouts = dict(report.get("bailouts") or {})
                per_build[name] = bailouts
                if bailouts or report.get("replays") or not report.get("calls"):
                    failures.append(
                        f"{name}: coverage floor is zero bailouts and zero "
                        f"replays on the default engine: {report}")
    return per_build


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", default=DEFAULT_KERNELS,
                        help="comma-separated suite kernels to sweep")
    parser.add_argument("--impls", default=DEFAULT_IMPLS,
                        help="comma-separated implementations to run")
    parser.add_argument("--out", metavar="PATH",
                        help="write telemetry JSON (CI artifact)")
    parser.add_argument("--autotune", action="store_true",
                        help="also sweep the profile-guided configuration "
                             "(REPRO_AUTOTUNE=1) and fail if it runs slower "
                             "than 0.95x plain unbatched on any kernel")
    parser.add_argument("--autotune-floor", type=float, default=0.95,
                        metavar="RATIO",
                        help="minimum unbatched/autotuned wall-clock ratio "
                             "(default: 0.95)")
    parser.add_argument("--codegen-floor", type=float, default=0.9,
                        metavar="RATIO",
                        help="minimum predecoded/codegen wall-clock ratio for "
                             "kernels where codegen engaged (default: 0.9)")
    parser.add_argument("--bailout-out", metavar="PATH",
                        help="write the per-build codegen bailout "
                             "histogram JSON (CI artifact)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="also sweep the sharded multi-process executor "
                             "(REPRO_SHARDS=N) and fail on any divergence "
                             "from the in-process run; honors "
                             "REPRO_FAULT_PLAN worker-fault matrices")
    args = parser.parse_args()

    wanted = args.kernels.split(",")
    specs = [s for s in BENCHMARKS if s.name in wanted]
    unknown = set(wanted) - {s.name for s in specs}
    if unknown:
        parser.error(f"unknown kernels: {sorted(unknown)}")
    impls = args.impls.split(",")

    failures = []
    rows = {}
    faults_fired = 0
    bailouts_by_build = {}
    saved_env = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_NO_BATCH", "REPRO_AUTOTUNE", "REPRO_SHARDS")
    }
    with telemetry.collect() as session:
        for spec in specs:
            for impl in impls:
                name = f"{spec.name}/{impl}"
                # The compile cache keys on the batch request, so toggling
                # the environment between runs compiles fresh modules
                # rather than rehydrating the other configuration's twin.
                batched, batched_run, wall_b = _timed_pair(session, spec, impl)
                try:
                    os.environ["REPRO_NO_BATCH"] = "1"
                    nobatch, _, wall_nb = _timed_pair(session, spec, impl)
                finally:
                    os.environ.pop("REPRO_NO_BATCH", None)
                # The predecoded twin of the same batched build,
                # interleaved with codegen samples so machine-phase noise
                # lands on both sides of the ratio (min of 3 each).
                walls_pd, walls_cg = [], []
                twin = None
                for _ in range(3):
                    twin = run_impl(spec, impl, codegen=False)
                    walls_pd.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                    run_impl(spec, impl)
                    walls_cg.append(
                        session.vm_runs[-1].get("wall_seconds") or 0.0)
                wall_pd, wall_cg = min(walls_pd), min(walls_cg)
                cg_report = batched_run.get("codegen") or {}
                bailouts_by_build[name] = dict(cg_report.get("bailouts") or {})

                tuned = tuned_run = wall_at = wall_nbi = None
                if args.autotune and impl == "parsimony":
                    # The floor compares *interleaved* unbatched/autotuned
                    # samples (min of 3 each): alternating the two configs
                    # run-by-run means a slow machine phase (CPU quota
                    # throttling, a noisy neighbor) lands on both sides of
                    # the ratio instead of biasing whichever ran last.
                    # The first autotuned run sweeps candidates and pins;
                    # the rest run the pinned configuration.
                    walls_nbi, walls_at = [], []
                    for _ in range(3):
                        try:
                            os.environ["REPRO_NO_BATCH"] = "1"
                            run_impl(spec, impl)
                        finally:
                            os.environ.pop("REPRO_NO_BATCH", None)
                        walls_nbi.append(
                            session.vm_runs[-1].get("wall_seconds") or 0.0)
                        try:
                            os.environ["REPRO_AUTOTUNE"] = "1"
                            tuned = run_impl(spec, impl)
                        finally:
                            os.environ.pop("REPRO_AUTOTUNE", None)
                        tuned_run = session.vm_runs[-1]
                        walls_at.append(
                            tuned_run.get("wall_seconds") or 0.0)
                    wall_at = min(walls_at)
                    wall_nbi = min(walls_nbi)

                shard_base = shard_result = shard_report = None
                fault_log = []
                wall_sh = plans = None
                if args.shards:
                    # Worker-fault plans stay armed around *both* runs:
                    # while any plan is active the compile cache is
                    # bypassed, so the in-process comparator must live
                    # under the same injection state as the sharded run to
                    # execute an identical module.  Worker sites are only
                    # consumed by the shard supervisor, so the comparator
                    # does not eat the plans' firing budget.
                    plans = faultinject.plans_from_env()
                    with faultinject.inject(*plans) as fstate:
                        shard_base = run_impl(spec, impl)
                        try:
                            os.environ["REPRO_SHARDS"] = str(args.shards)
                            shard_result = run_impl(spec, impl)
                        finally:
                            os.environ.pop("REPRO_SHARDS", None)
                        fault_log = list(fstate.log)
                    shard_run = session.vm_runs[-1]
                    shard_report = shard_run.get("shard") or {}
                    wall_sh = shard_run.get("wall_seconds") or 0.0
                    faults_fired += len(fault_log)

                stats_ok = out_ok = True
                for label, other in (("unbatched", nobatch),
                                     ("predecoded twin", twin)):
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
                # bailed-out kernel runs the decoded engine on both sides
                # of the ratio, so comparing it against the floor would
                # just measure noise against itself.
                cg_ratio = (wall_pd / wall_cg) if wall_cg else None
                if (cg_ratio is not None and cg_ratio < args.codegen_floor
                        and cg_report.get("calls")):
                    failures.append(
                        f"{name}: codegen runs at {cg_ratio:.2f}x its "
                        f"predecoded twin (< {args.codegen_floor} floor): "
                        f"{cg_report}")

                rows[name] = {
                    "wall_batched": wall_b,
                    "wall_unbatched": wall_nb,
                    "wall_predecoded": wall_pd,
                    "wall_codegen": wall_cg,
                    "batch_speedup": (wall_nb / wall_b) if wall_b else None,
                    "codegen_speedup": cg_ratio,
                    "stats_identical": stats_ok,
                    "outputs_identical": out_ok,
                    "batch": batched_run.get("batch"),
                    "codegen": cg_report,
                }
                tuned_note = ""
                if tuned is not None:
                    if not _stats_equal(tuned, nobatch):
                        failures.append(
                            f"{name}: autotuned ExecStats diverge from unbatched")
                    if not _outputs_equal(tuned, nobatch):
                        failures.append(
                            f"{name}: autotuned outputs diverge from unbatched")
                    # The bug this layer closes: a statically mis-batched
                    # kernel must never run slower autotuned than plain
                    # unbatched (beyond noise).  A tuned factor of 1 means
                    # the tuner *chose* the unbatched engine — both sides
                    # of the ratio run the identical module, so the floor
                    # is vacuously met (comparing noise against itself).
                    ratio = (wall_nbi / wall_at) if wall_at else None
                    tuned_factor = (tuned_run.get("autotune") or {}).get("factor")
                    if (ratio is not None and ratio < args.autotune_floor
                            and tuned_factor != 1):
                        failures.append(
                            f"{name}: autotuned config runs at {ratio:.2f}x "
                            f"unbatched (< {args.autotune_floor} floor): "
                            f"{tuned_run.get('autotune')}")
                    rows[name]["wall_autotuned"] = wall_at
                    rows[name]["autotune_speedup"] = ratio
                    rows[name]["autotune"] = tuned_run.get("autotune")
                    tuned_note = (
                        f"autotuned={wall_at * 1e3:7.1f}ms "
                        f"atx={ratio:5.2f} "
                        f"B={tuned_run.get('autotune', {}).get('factor')} ")
                shard_note = ""
                if shard_result is not None:
                    if not _stats_equal(shard_base, shard_result):
                        failures.append(
                            f"{name}: sharded ExecStats diverge from "
                            f"in-process")
                    if not _outputs_equal(shard_base, shard_result):
                        failures.append(
                            f"{name}: sharded outputs diverge from "
                            f"in-process")
                    mode = shard_report.get("mode")
                    if mode == "degraded" and not plans:
                        failures.append(
                            f"{name}: sharded launch degraded with no "
                            f"faults armed: {shard_report}")
                    if fault_log and not (shard_report.get("retries")
                                          or shard_report.get("degraded")):
                        failures.append(
                            f"{name}: worker faults fired but no retry or "
                            f"degradation was recorded: {shard_report}")
                    rows[name]["shard"] = {
                        "wall": wall_sh,
                        "mode": mode,
                        "retries": shard_report.get("retries"),
                        "degraded": shard_report.get("degraded"),
                        "faults_fired": len(fault_log),
                    }
                    shard_note = f"sharded={wall_sh * 1e3:7.1f}ms [{mode}] "
                print(
                    f"{name:32s} unbatched={wall_nb * 1e3:7.1f}ms "
                    f"batched={wall_b * 1e3:7.1f}ms "
                    f"predecoded={wall_pd * 1e3:7.1f}ms "
                    f"{tuned_note}{shard_note}"
                    f"batchx={rows[name]['batch_speedup']:5.2f} "
                    f"cgx={cg_ratio:5.2f} "
                    f"stats={'ok' if stats_ok else 'DIVERGED'} "
                    f"out={'ok' if out_ok else 'DIVERGED'}"
                )

        if not args.shards:
            bailouts_by_build.update(_coverage_sweep(session, failures))

    for name, value in saved_env.items():
        if value is not None:
            os.environ[name] = value

    session.meta["perf_smoke"] = rows
    batch_totals = session.vm_batch_totals()
    codegen_totals = session.vm_codegen_totals()
    print(f"\nvm.batch totals: {batch_totals}")
    print(f"vm.codegen totals: {codegen_totals}")
    if not codegen_totals.get("vm.codegen.calls"):
        failures.append("whole-kernel codegen never ran a compiled kernel "
                        "across the sweep (every kernel bailed out)")
    if args.autotune:
        autotune_totals = session.vm_autotune_totals()
        print(f"vm.autotune totals: {autotune_totals}")
        # A persisted pin from an earlier process produces no fresh pin
        # event, so the liveness check is the per-run decision record.
        if "parsimony" in impls and not any(
            r.get("autotune") for r in session.vm_runs
        ):
            failures.append("autotuner made no decisions across the "
                            "parsimony sweep (layer silently dead)")
    if "parsimony" in impls and not batch_totals.get("vm.batch.applied"):
        failures.append("gang batching never applied across the parsimony sweep")
    if args.shards:
        shard_totals = session.vm_shard_totals()
        print(f"vm.shard totals: {shard_totals}")
        if "parsimony" in impls and not shard_totals.get("vm.shard.sharded"):
            failures.append("sharded executor never engaged across the "
                            "sweep (every launch was rejected)")
        if faultinject.plans_from_env() and not faults_fired:
            failures.append("REPRO_FAULT_PLAN armed worker faults but none "
                            "fired across the sweep")
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
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"codegen bailout histogram written to {args.bailout_out}")

    if failures:
        print("\nPERF-SMOKE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nperf-smoke OK: batched/unbatched/predecoded-twin bit-identical"
          + ("" if args.shards else
             f", {len(bailouts_by_build)} suite builds compiled with zero "
             "bailouts and zero replays"))


if __name__ == "__main__":
    main()
