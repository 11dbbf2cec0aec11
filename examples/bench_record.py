#!/usr/bin/env python3
"""Record the engine's wall-clock trajectory as a benchmark artifact.

    python examples/bench_record.py [--out BENCH_13.json] [--kernels a,b]
                                    [--reps 2] [--min-geomean 1.0]
                                    [--min-codegen-geomean 1.0]

Runs every fig4 kernel's Parsimony build in three configurations —

* ``reference``  — the reference engine, gang batching off (what a trap
                   replays on, a codegen bailout runs, and what
                   ``codegen=False`` runs on the batched build);
* ``unbatched``  — whole-kernel codegen, gang batching off;
* ``codegen``    — whole-kernel codegen on the gang-batched build (the
                   default)

— asserts all configurations agree bitwise on outputs *and*
``ExecStats`` (every layer is accounting-transparent by contract), and
writes a JSON artifact with per-kernel wall-clock for each leg plus two
geomean speedups: batched (``unbatched`` over ``codegen``) and codegen
(``reference`` over ``unbatched``).  Exits non-zero on any divergence or
if either geomean falls below its floor (``--min-geomean``,
``--min-codegen-geomean``).

The artifact is the PR-over-PR trajectory record: CI uploads one per
run.  The checked-in ``BENCH_13.json`` is the last record of the
three-engine ladder (``predecoded`` / ``batched`` / ``codegen`` legs),
``BENCH_10.json`` the last with a ``fused`` leg.  The codegen
configuration must additionally record **zero bailouts** on every fig4
kernel (the coverage floor).
"""

import argparse
import json
import sys

import numpy as np

from repro import telemetry
from repro.benchsuite import geomean, run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.driver import compile_parsimony

CONFIGS = ("reference", "unbatched", "codegen")


def _run_once(session, spec, config):
    """One VM run of ``config``; returns ``(result, wall)``.

    Wall-clock covers ``interp.run`` only (the telemetry measurement),
    not compilation or workload setup — the trajectory tracks execution
    engine cost, and the compile cache already absorbs rebuilds.

    Reps are interleaved round-robin across configurations by the
    caller: a slow machine phase (CPU quota throttling, a noisy
    neighbor) then lands on every configuration instead of biasing
    whichever block of reps it overlapped.
    """
    module = None
    if config != "codegen":
        module = compile_parsimony(spec.psim_src,
                                   module_name=f"{spec.name}.parsimony",
                                   batch_request=0)
    result = run_impl(spec, "parsimony", module=module,
                      codegen=config != "reference")
    return result, session.vm_runs[-1].get("wall_seconds") or 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_13.json", metavar="PATH",
                        help="artifact path (default: BENCH_13.json)")
    parser.add_argument("--kernels", metavar="NAMES",
                        help="comma-separated subset of fig4 kernels")
    parser.add_argument("--reps", type=int, default=2,
                        help="timing repetitions per configuration, "
                             "interleaved round-robin (min wins)")
    parser.add_argument("--min-geomean", type=float, default=1.0,
                        help="fail if batched-vs-unbatched geomean drops "
                             "below this")
    parser.add_argument("--min-codegen-geomean", type=float, default=1.0,
                        help="fail if codegen-vs-reference geomean drops "
                             "below this")
    args = parser.parse_args()

    specs = BENCHMARKS
    if args.kernels:
        wanted = set(args.kernels.split(","))
        unknown = wanted - {s.name for s in BENCHMARKS}
        if unknown:
            parser.error(f"unknown kernels: {sorted(unknown)}")
        specs = [s for s in BENCHMARKS if s.name in wanted]

    failures = []
    kernels = {}
    print(f"{'kernel':20s}" + "".join(f"{c:>14s}" for c in CONFIGS)
          + f"{'batched x':>12s}{'codegen x':>12s}")
    with telemetry.collect() as session:
        for spec in specs:
            results = {}
            samples = {config: [] for config in CONFIGS}
            cg_bailouts = {}
            for _ in range(args.reps):
                for config in CONFIGS:
                    results[config], wall = _run_once(session, spec, config)
                    samples[config].append(wall)
                    if config == "codegen":
                        report = session.vm_runs[-1].get("codegen") or {}
                        cg_bailouts = dict(report.get("bailouts") or {})
            walls = {config: min(s) for config, s in samples.items()}
            if cg_bailouts:
                # Coverage floor: every fig4 kernel must compile — a
                # bailout silently runs the reference engine and poisons
                # the ratio.
                failures.append(
                    f"{spec.name}: codegen bailed out: {cg_bailouts}")

            base = results["reference"]
            for config in CONFIGS[1:]:
                r = results[config]
                if not (r.stats.cycles == base.stats.cycles
                        and r.stats.instructions == base.stats.instructions
                        and dict(r.stats.counts) == dict(base.stats.counts)):
                    failures.append(f"{spec.name}: {config} ExecStats diverge")
                sig, base_sig = r.output_signature(), base.output_signature()
                if len(sig) != len(base_sig) or not all(
                    np.array_equal(a, b) for a, b in zip(sig, base_sig)
                ):
                    failures.append(f"{spec.name}: {config} outputs diverge")

            speedup = (walls["unbatched"] / walls["codegen"]
                       if walls["codegen"] else None)
            cg_speedup = (walls["reference"] / walls["unbatched"]
                          if walls["unbatched"] else None)
            kernels[spec.name] = {
                "wall_seconds": walls,
                "cycles": base.stats.cycles,
                "instructions": base.stats.instructions,
                "batched_speedup": speedup,
                "codegen_speedup": cg_speedup,
            }
            print(f"{spec.name:20s}"
                  + "".join(f"{walls[c] * 1e3:12.1f}ms" for c in CONFIGS)
                  + f"{speedup:12.2f}{cg_speedup:12.2f}")

    gm = geomean([k["batched_speedup"] for k in kernels.values()
                  if k["batched_speedup"]])
    gm_cg = geomean([k["codegen_speedup"] for k in kernels.values()
                     if k["codegen_speedup"]])
    print("-" * (20 + 14 * len(CONFIGS) + 24))
    print(f"{'geomean batched-vs-unbatched':48s}{gm:18.2f}")
    print(f"{'geomean codegen-vs-reference':48s}{gm_cg:18.2f}")

    doc = {
        "schema": "repro-bench/2",
        "configs": list(CONFIGS),
        "kernels": kernels,
        "geomean_batched_speedup": gm,
        "geomean_codegen_speedup": gm_cg,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench artifact written to {args.out}")

    if gm < args.min_geomean:
        failures.append(
            f"batched-vs-unbatched geomean {gm:.2f} below floor "
            f"{args.min_geomean}")
    if gm_cg < args.min_codegen_geomean:
        failures.append(
            f"codegen-vs-reference geomean {gm_cg:.2f} below floor "
            f"{args.min_codegen_geomean}")
    if failures:
        print("\nBENCH-RECORD FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
