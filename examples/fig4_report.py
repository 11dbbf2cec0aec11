#!/usr/bin/env python3
"""Regenerate Figure 4: Parsimony and ispc performance on the 7 ispc
benchmarks, normalized to LLVM auto-vectorization (paper §6).

    python examples/fig4_report.py [--smoke] [--kernels a,b] [--telemetry out.json]
    python examples/fig4_report.py --telemetry-diff old.json new.json [--diff-out d.json]

``--smoke`` runs only the mandelbrot benchmark (the CI smoke target);
``--kernels`` selects an arbitrary comma-separated subset;
``--telemetry PATH`` collects pipeline observability — pass timings,
vectorizer shape/memory-form counters, per-function VM cycle
attribution, and ``vm.codegen.*`` whole-kernel-codegen counters — and
writes it as structured JSON.  ``--disk-cache`` enables the persistent
compile cache; ``--autotune`` enables the profile-guided batch selector
(``REPRO_AUTOTUNE=1``) and prints, per kernel, which batch configuration
it chose and why (pinned profile vs fresh measurement sweep);
``--codegen`` prints, per kernel, the compile/cache/bailout activity of
the whole-kernel codegen engine every run uses; ``--dump-codegen KERNEL``
prints the Python source that engine generates for one kernel (under a
header: lines, values folded at emit time, inline vs ``Memory``-only
accesses, hoisted bindings by kind) and exits.

``--telemetry-diff OLD NEW`` compares two telemetry documents PR-over-PR
(per-pass timing, per-kernel cycles/wall-clock, every counter) and prints
the deltas; ``--diff-out PATH`` additionally writes the machine-readable
diff JSON.

Paper reference points: geomean speedup over auto-vectorization is 5.9x
(Parsimony) and 6.0x (ispc); Parsimony matches ispc on every benchmark
except Binomial Options (0.71x of ispc), a gap the paper traces to
SLEEF's AVX-512 ``pow`` being 2.6x slower than ispc's built-in.
"""

import argparse
import json
import os

from repro import telemetry
from repro.benchsuite import (dump_codegen, geomean, run_impl,
                              summarize_telemetry)
from repro.benchsuite.ispc_suite import BENCHMARKS, BY_NAME
from repro.driver import set_disk_cache

IMPLS = ("scalar", "autovec", "parsimony", "ispc")


def report(specs):
    print("Figure 4 — speedup over LLVM auto-vectorization (model cycles)")
    print(f"{'benchmark':20s} {'parsimony':>10s} {'ispc':>10s} {'psim/ispc':>10s}")
    rows = []
    for spec in specs:
        cycles = {impl: run_impl(spec, impl).cycles for impl in IMPLS}
        base = cycles["autovec"]
        parsimony = base / cycles["parsimony"]
        ispc = base / cycles["ispc"]
        rows.append((spec.name, parsimony, ispc))
        print(f"{spec.name:20s} {parsimony:10.2f} {ispc:10.2f} {parsimony / ispc:10.2f}")
    print("-" * 52)
    gp = geomean([r[1] for r in rows])
    gi = geomean([r[2] for r in rows])
    print(f"{'geomean':20s} {gp:10.2f} {gi:10.2f} {gp / gi:10.2f}")
    print()
    print("paper: geomean 5.9 (Parsimony) vs 6.0 (ispc); parity everywhere")
    print("       except binomial_options, where SLEEF pow costs 2.6x ispc's.")


def _print_degradations(session):
    """Summarize graceful-degradation events seen during the run.

    A clean fig4 run reports none; under fault injection (or a vectorizer
    regression) this shows how much vector code each degraded function
    kept — whole-function fallbacks keep none, region-granular partial
    fallbacks keep everything outside the scalarized region.
    """
    partials = session.partial_fallbacks
    fulls = session.fallbacks
    if not partials and not fulls:
        return
    print()
    print(f"degradations: {len(partials)} region-granular, "
          f"{len(fulls)} whole-function")
    for entry in partials:
        kept = 1.0 - entry["block_fraction"]
        print(f"  partial {entry['function']}: "
              f"{entry['blocks_scalarized']}/{entry['blocks_total']} blocks "
              f"scalarized into {len(entry['regions'])} outlined region(s), "
              f"{kept:.0%} of blocks still vectorized")
    for entry in fulls:
        reason = entry["reason"].get("error", "?")
        print(f"  whole   {entry['function']}: {reason}")


def _print_autotune(session):
    """Per-kernel profile-guided selection report (``--autotune``).

    Shows the *last* decision per run label (the steady state: a
    measurement sweep on the first run pins a winner that later runs
    rehydrate) plus the session's ``vm.autotune.*`` event totals.
    """
    print()
    print("autotune decisions (profile-guided batch selection)")
    latest = {}
    for run in session.vm_runs:
        if run.get("autotune"):
            latest[run["label"]] = run["autotune"]
    if not latest:
        print("  none recorded — tuner disabled or overridden by "
              "REPRO_BATCH/REPRO_NO_BATCH")
        return
    for label, at in latest.items():
        print(f"  {label:28s} B={at['factor']:<3d} [{at['state']}] "
              f"{at['reason']}")
    totals = session.vm_autotune_totals()
    print(f"  totals: " + ", ".join(f"{k}={v}" for k, v in totals.items()))


def _print_codegen(session):
    """Per-kernel whole-kernel-codegen report (``--codegen``).

    Shows the *last* codegen record per run label (the steady state:
    later runs rehydrate compiled code from the in-process or disk
    cache) plus the session's ``vm.codegen.*`` counter totals.
    """
    print()
    print("codegen activity (whole-kernel compiled dispatch)")
    latest = {}
    for run in session.vm_runs:
        if run.get("codegen"):
            latest[run["label"]] = run["codegen"]
    if not latest:
        print("  none recorded")
        return
    for label, cg in latest.items():
        bailouts = cg.get("bailouts") or {}
        note = (f"bailouts={dict(bailouts)}" if bailouts
                else "no bailouts")
        print(f"  {label:28s} compiles={cg.get('compiles', 0)} "
              f"cache_hits={cg.get('cache_hits', 0)} "
              f"disk_hits={cg.get('disk_hits', 0)} "
              f"calls={cg.get('calls', 0)} "
              f"replays={cg.get('replays', 0)} {note}")
    totals = session.vm_codegen_totals()
    print(f"  totals: " + ", ".join(f"{k}={v}" for k, v in totals.items()))


def _print_table_diff(title, table, fields, unit=""):
    changed = {
        name: row for name, row in table.items()
        if any(row[f]["delta"] for f in fields)
    }
    print(f"{title} ({len(changed)} of {len(table)} changed)")
    if not changed:
        return
    header = "".join(f"{f + ' old':>16s}{f + ' new':>16s}{'Δ':>12s}" for f in fields)
    print(f"  {'name':28s}{header}")
    for name, row in changed.items():
        cells = ""
        for f in fields:
            d = row[f]
            fmt = "{:>16.6g}{:>16.6g}{:>+12.6g}"
            cells += fmt.format(d["old"], d["new"], d["delta"])
        print(f"  {name:28s}{cells}{unit}")


def _print_per_function_timings(session):
    """Per-function pass-timing breakdown (``--per-function``)."""
    nested = session.pass_timings(per_function=True)
    print()
    print("pass timings by function")
    print(f"  {'pass':24s}{'function':32s}{'calls':>8s}{'seconds':>12s}{'Δinstrs':>10s}")
    for pass_name in sorted(nested):
        for function, entry in sorted(
            nested[pass_name].items(), key=lambda kv: -kv[1]["seconds"]
        ):
            print(f"  {pass_name:24s}{function:32s}{entry['calls']:>8d}"
                  f"{entry['seconds']:>12.6f}{entry['instrs_delta']:>+10d}")


def telemetry_diff(old_path, new_path, diff_out=None, per_function=False):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    diff = telemetry.diff_documents(old, new)
    print(f"Telemetry diff: {old_path} → {new_path}")
    print()
    _print_table_diff("passes", diff["passes"], ("seconds", "calls"))
    if per_function:
        print()
        _print_table_diff(
            "passes by function", diff["passes_by_function"],
            ("seconds", "calls"),
        )
    print()
    _print_table_diff("vm runs", diff["vm_runs"], ("cycles", "wall_seconds"))
    print()
    _print_table_diff("counters", diff["counters"], ("value",))
    # Codegen coverage regressions deserve a headline: a bailout reason
    # that was absent (or rarer) in the old document means kernels fell
    # back to per-instruction dispatch that previously compiled.
    regressed = {
        name: row["value"] for name, row in diff["counters"].items()
        if name.startswith("vm.codegen.bailout.") and row["value"]["delta"] > 0
    }
    if regressed:
        print()
        print("codegen coverage regressions (bailout reasons up vs old)")
        for name, d in regressed.items():
            reason = name[len("vm.codegen.bailout."):]
            print(f"  {reason:28s}{d['old']:>10.6g}{d['new']:>10.6g}"
                  f"{d['delta']:>+10.6g}")
    if diff_out:
        with open(diff_out, "w") as fh:
            json.dump(diff, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\ndiff JSON written to {diff_out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the mandelbrot benchmark (CI smoke target)",
    )
    parser.add_argument(
        "--kernels", metavar="NAMES",
        help="comma-separated subset of suite kernels to run",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="write pipeline telemetry (pass timings, vectorizer counters, "
             "VM hot-spots, vm.codegen.* counters) as JSON to PATH",
    )
    parser.add_argument(
        "--telemetry-diff", nargs=2, metavar=("OLD", "NEW"),
        help="diff two telemetry JSON documents and print the deltas",
    )
    parser.add_argument(
        "--diff-out", metavar="PATH",
        help="with --telemetry-diff: also write the diff as JSON to PATH",
    )
    parser.add_argument(
        "--no-batch", action="store_true",
        help="disable the gang-batching layer (sets REPRO_NO_BATCH=1)",
    )
    parser.add_argument(
        "--autotune", action="store_true",
        help="enable profile-guided batch selection "
             "(sets REPRO_AUTOTUNE=1) and report the decisions",
    )
    parser.add_argument(
        "--codegen", action="store_true",
        help="report the codegen engine's per-kernel compile/cache/"
             "bailout activity",
    )
    parser.add_argument(
        "--dump-codegen", metavar="KERNEL",
        help="print the source the codegen engine generates for KERNEL's "
             "Parsimony build, with its emit-time summary, and exit",
    )
    parser.add_argument(
        "--per-function", action="store_true",
        help="with --telemetry: print per-function pass-timing breakdowns; "
             "with --telemetry-diff: diff them",
    )
    parser.add_argument(
        "--disk-cache", action="store_true",
        help="enable the persistent on-disk compile cache "
             "($REPRO_CACHE_DIR, default ~/.cache/repro)",
    )
    args = parser.parse_args()

    if args.telemetry_diff:
        telemetry_diff(*args.telemetry_diff, diff_out=args.diff_out,
                       per_function=args.per_function)
        return

    if args.no_batch:
        os.environ["REPRO_NO_BATCH"] = "1"
    if args.autotune:
        os.environ["REPRO_AUTOTUNE"] = "1"
    if args.disk_cache:
        set_disk_cache(True)
    if args.dump_codegen:
        if args.dump_codegen not in BY_NAME:
            parser.error(f"unknown kernel: {args.dump_codegen}")
        print(dump_codegen(BY_NAME[args.dump_codegen]))
        return

    specs = BENCHMARKS
    if args.smoke:
        specs = [s for s in BENCHMARKS if s.name == "mandelbrot"]
    if args.kernels:
        wanted = set(args.kernels.split(","))
        unknown = wanted - {s.name for s in BENCHMARKS}
        if unknown:
            parser.error(f"unknown kernels: {sorted(unknown)}")
        specs = [s for s in BENCHMARKS if s.name in wanted]

    if args.telemetry or args.autotune or args.codegen:
        # --autotune/--codegen collect a session even without
        # --telemetry: their reports read the per-run records.
        with telemetry.collect() as session:
            report(specs)
        _print_degradations(session)
        if args.autotune:
            _print_autotune(session)
        if args.codegen:
            _print_codegen(session)
        if args.per_function:
            _print_per_function_timings(session)
        if args.telemetry:
            session.meta["figure"] = "fig4"
            session.meta["cycles_by_kernel"] = summarize_telemetry(session)
            session.write(args.telemetry)
            print(f"\ntelemetry written to {args.telemetry}")
    else:
        report(specs)


if __name__ == "__main__":
    main()
