"""Request-level benchmark of the Parsimony reproduction.

    python3 -m bench                       every workload; prints the table
    python3 -m bench --trace               ... then a traced set: the ledger
    python3 -m bench --repeat 2            two sets, differences vs bounds
    python3 -m bench --workload W --seed N --seconds S --trace 0|1
                                           one run, one JSON line (the driver)

Each run of a workload spawns its worker processes one after the other;
nothing else runs meanwhile.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from .config import (OUT, ROOT, TABLE_ONLY_METRICS, WORKERS, child_env,
                     load_contract, require_source_tree)
from .trace import fast, geomean, tail

WORKER_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 corrupt: Optional[str] = None) -> dict:
    """Run one workload's worker processes and pool what they measured."""
    OUT.mkdir(parents=True, exist_ok=True)
    workers = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as scratch:
        env = child_env(Path(scratch) / "cache")
        for index in range(WORKERS):
            command = [sys.executable, "-m", "bench.worker",
                       "--workload", name, "--seed", str(seed),
                       "--seconds", repr(seconds / WORKERS),
                       "--trace", str(trace), "--index", str(index),
                       "--scratch", scratch]
            if corrupt:
                command += ["--corrupt", corrupt]
            done = subprocess.run(
                command + ["--t-spawn", repr(time.perf_counter())], env=env,
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=WORKER_TIMEOUT_S)
            if done.returncode != 0:
                sys.exit(f"bench: worker {index} of {name} exited with "
                         f"{done.returncode}")
            workers.append(json.loads(done.stdout.splitlines()[-1]))
    return pool(workers, trace)


def kernel_row(samples: List[float]) -> dict:
    """n, p10, p50 and the highest percentile with ten samples beyond it."""
    high = tail(samples)
    return {"n": len(samples), "p10_ms": 1e3 * fast(samples),
            "p50_ms": 1e3 * median(samples),
            "tail": high and [high[0], 1e3 * high[1]]}


def pool(workers: List[dict], trace: int) -> dict:
    tallies = [w["tallies"] for w in workers]
    attempted = sum(t["attempted"] for t in tallies)
    failures = [f for t in tallies for f in t["failures"]]
    latencies: Dict[str, List[float]] = {}
    for t in tallies:
        for kernel, samples in t["latencies"].items():
            latencies.setdefault(kernel, []).extend(samples)
    rounds = [r for t in tallies for r in t["rounds"]]
    process_ms = [ms for w in workers for ms in w["process_ms"]]
    speedups = {w["model_speedup_geomean"] for w in workers}
    if len(speedups) != 1:
        failures.append(f"model speedup differs between workers: {speedups}")
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "end_to_end": {
            "request_ms_geomean": geomean(
                1e3 * fast(v) for v in latencies.values() if v),
            "round_ms_p50": 1e3 * median(rounds) if rounds else None,
            # The faster worker: noise only ever takes throughput away.
            "requests_per_s": max(
                w["tallies"]["verified"] / w["wall_s"] if w["wall_s"] else 0.0
                for w in workers),
            "process_ms_p50": median(process_ms) if process_ms else None,
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
            "setup_s": median(w["setup_s"] for w in workers),
            "failed_share": len(failures) / attempted if attempted else 1.0,
            "model_speedup_geomean": workers[0]["model_speedup_geomean"],
        },
        "per_layer": None,
        "kernels": {kernel: kernel_row(v)
                    for kernel, v in sorted(latencies.items()) if v},
    }
    if trace:
        layers = [w["layers"] for w in workers]
        result["per_layer"] = {
            name: (median(values) if values else None)
            for name in layers[0]
            for values in [[l[name] for l in layers if l[name] is not None]]}
        result["span_files"] = [w["span_file"] for w in workers]
    return result


def contract_line(result: dict, metrics: List[dict], section: str) -> str:
    """The driver's line.  It wants a number for every metric: a layer the
    harness could not bracket (``None`` in the report) reads 0 here."""
    values = result[section]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]] or 0.0,
                                "unit": m["unit"]} for m in metrics},
    })


# -- the full set ----------------------------------------------------------------


def environment(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "commit": commit or None,
            "seed": seed, "seconds": seconds, "workers": WORKERS}


def print_table(title: str, metrics: List[dict],
                columns: Dict[str, Dict[str, Optional[float]]]) -> None:
    print(f"\n{title}")
    print(f"{'metric':<30}{'unit':<8}"
          + "".join(f"{name:>13}" for name in columns))
    for metric in metrics:
        cells = []
        for values in columns.values():
            value = values.get(metric["name"])
            cells.append(f"{'n/a':>13}" if value is None
                         else f"{value:>13.4g}")
        print(f"{metric['name']:<30}{metric['unit']:<8}" + "".join(cells))


def run_set(contract: dict, seed: int, seconds: float, trace: int) -> dict:
    results = {}
    for workload in contract["workloads"]:
        name = workload["name"]
        print(f"bench: {name} ({'traced' if trace else 'untraced'}) ...",
              file=sys.stderr)
        results[name] = run_workload(name, seed, seconds, trace)
    return results


def compare_sets(first: dict, other: dict, metrics: List[dict]) -> bool:
    """Print every end-to-end metric's relative difference between two sets
    beside its bound; ``False`` when one is outside."""
    ok = True
    print(f"\n{'workload':<14}{'metric':<24}{'first':>12}{'second':>12}"
          f"{'diff':>9}{'bound':>8}")
    for workload in first:
        for metric in metrics:
            a = first[workload]["end_to_end"][metric["name"]]
            b = other[workload]["end_to_end"][metric["name"]]
            if a is None:
                continue
            diff = abs(b - a) / abs(a) if a else float(a != b)
            inside = diff <= metric["bound"]
            ok &= inside
            print(f"{workload:<14}{metric['name']:<24}{a:>12.5g}{b:>12.5g}"
                  f"{diff:>9.2%}{metric['bound']:>8.0%}"
                  f"{'' if inside else '  OUTSIDE'}")
    return ok


def main() -> int:
    require_source_tree()
    contract = load_contract()
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]],
                        help="run this workload only and print the driver's "
                             "JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measuring time per run, split over the workers")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N full sets and compare them with the first")
    parser.add_argument("--corrupt", choices=("expected", "pin"),
                        help="self-check: break the verifier's inputs; the "
                             "run must then report failures")
    args = parser.parse_args()
    end_to_end = contract["end_to_end"]
    all_end_to_end = end_to_end + list(TABLE_ONLY_METRICS)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.corrupt)
        for failure in result["failures"]:
            print(f"bench: FAILED {failure}", file=sys.stderr)
        print(contract_line(result, *(
            (contract["per_layer"], "per_layer") if args.trace
            else (end_to_end, "end_to_end"))))
        return 0

    report = {"schema": "repro-bench/2",
              "environment": environment(args.seed, args.seconds), "sets": []}
    ok = True
    for index in range(args.repeat):
        untraced = run_set(contract, args.seed, args.seconds, 0)
        print_table(f"end to end (set {index + 1}, tracing off)",
                    all_end_to_end,
                    {name: r["end_to_end"] for name, r in untraced.items()})
        entry = {"untraced": untraced}
        if args.trace:
            traced = run_set(contract, args.seed, args.seconds, 1)
            print_table(f"per layer (set {index + 1}, traced run)",
                        contract["per_layer"],
                        {name: r["per_layer"] for name, r in traced.items()})
            entry["traced"] = traced
        report["sets"].append(entry)
        for name, result in untraced.items():
            for failure in result["failures"]:
                print(f"bench: FAILED {name}: {failure}", file=sys.stderr)
            ok &= result["failed"] == 0
        if index:
            ok &= compare_sets(report["sets"][0]["untraced"], untraced,
                               all_end_to_end)
    path = OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nreport: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
