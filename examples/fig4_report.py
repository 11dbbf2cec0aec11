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
compile cache; ``--codegen`` prints, per kernel, the compile/cache/bailout activity of
the whole-kernel codegen engine every run uses; ``--dump-codegen KERNEL``
prints the Python source that engine generates for one kernel (under a
header: lines, values folded at emit time, inline vs ``Memory``-only
accesses, hoisted bindings by kind) and exits; ``--dump-codegen all``
dumps every kernel, in suite order.

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

from repro import compile_parsimony, telemetry
from repro.benchsuite import (dump_codegen, geomean, run_impl,
                              summarize_telemetry)
from repro.benchsuite.ispc_suite import BENCHMARKS, BY_NAME
from repro import diskcache

IMPLS = ("scalar", "autovec", "parsimony", "ispc")


def _build(spec, impl, batch_request):
    """The module ``run_impl`` runs: its own build, except a Parsimony
    build with an explicit ``batch_request``."""
    if impl != "parsimony" or batch_request is None:
        return None
    return compile_parsimony(spec.psim_src,
                             module_name=f"{spec.name}.parsimony",
                             batch_request=batch_request)


def report(specs, batch_request=None):
    print("Figure 4 — speedup over LLVM auto-vectorization (model cycles)")
    print(f"{'benchmark':20s} {'parsimony':>10s} {'ispc':>10s} {'psim/ispc':>10s}")
    rows = []
    for spec in specs:
        cycles = {
            impl: run_impl(spec, impl,
                           module=_build(spec, impl, batch_request)).cycles
            for impl in IMPLS
        }
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
    regression) this lists each function that fell back whole to the
    scalar lane loop, and why.
    """
    fulls = session.fallbacks
    if not fulls:
        return
    print()
    print(f"degradations: {len(fulls)} whole-function")
    for entry in fulls:
        reason = entry["reason"].get("error", "?")
        print(f"  whole   {entry['function']}: {reason}")


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
        help="run the report's Parsimony builds without the gang-batching"
             " layer (batch_request=0)",
    )
    parser.add_argument(
        "--codegen", action="store_true",
        help="report the codegen engine's per-kernel compile/cache/"
             "bailout activity",
    )
    parser.add_argument(
        "--dump-codegen", metavar="KERNEL",
        help="print the source the codegen engine generates for KERNEL's "
             "Parsimony build (every kernel, in suite order, for 'all'), "
             "with its emit-time summary, and exit",
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

    if args.disk_cache:
        diskcache.set_enabled(True)
    if args.dump_codegen:
        if args.dump_codegen == "all":
            dumped = BENCHMARKS
        elif args.dump_codegen in BY_NAME:
            dumped = [BY_NAME[args.dump_codegen]]
        else:
            parser.error(f"unknown kernel: {args.dump_codegen}")
        for spec in dumped:
            print(dump_codegen(spec))
        return

    batch_request = 0 if args.no_batch else None
    specs = BENCHMARKS
    if args.smoke:
        specs = [s for s in BENCHMARKS if s.name == "mandelbrot"]
    if args.kernels:
        wanted = set(args.kernels.split(","))
        unknown = wanted - {s.name for s in BENCHMARKS}
        if unknown:
            parser.error(f"unknown kernels: {sorted(unknown)}")
        specs = [s for s in BENCHMARKS if s.name in wanted]

    if args.telemetry or args.codegen:
        # --codegen collects a session even without --telemetry: its
        # report reads the per-run records.
        with telemetry.collect() as session:
            report(specs, batch_request)
        _print_degradations(session)
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
        report(specs, batch_request)


if __name__ == "__main__":
    main()
