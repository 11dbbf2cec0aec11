"""Checks the benchmark itself: ``python3 -m bench.selftest`` (about 4 min).

* the full set, untraced and traced, at the minimum of two passes per
  worker: every workload and metric of ``BENCHMARK.json`` is printed by name
  with its unit, nothing fails, and the counts that identify each workload's
  regime read as recorded at the commit that added the benchmark;
* the driver's one-line form carries exactly the contract's metrics;
* the verifier is live: a corrupted expected array, and a corrupted pinned
  count, each make requests fail;
* without the library beside it the harness exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from .config import TABLE_ONLY_METRICS, OUT, ROOT, load_contract

SEED = 7
problems = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "--seed", str(SEED), "--seconds", "0",
         *args], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def driver_line(*args: str) -> dict:
    done = bench(*args)
    expect(done.returncode == 0, f"bench {' '.join(args)} exits 0")
    line = json.loads(done.stdout.splitlines()[-1])
    expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
           "the driver's line has exactly its four keys")
    return line


def main() -> int:
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]

    done = bench("--trace")
    expect(done.returncode == 0, "the full set exits 0")
    printed = done.stdout
    for name in workloads:
        expect(name in printed, f"workload {name} is printed")
    for metric in (contract["end_to_end"] + list(TABLE_ONLY_METRICS)
                   + contract["per_layer"]):
        rows = [l.split() for l in printed.splitlines()
                if l.startswith(metric["name"] + " ")]
        expect(bool(rows) and all(r[1] == metric["unit"] for r in rows),
               f"metric {metric['name']} is printed with unit {metric['unit']}")
    report = json.loads((OUT / f"report-seed{SEED}.json").read_text())
    untraced = report["sets"][0]["untraced"]
    traced = report["sets"][0]["traced"]
    expect(sorted(untraced) == sorted(workloads) == sorted(traced),
           "the report has the contract's workloads, untraced and traced")
    for name in workloads:
        expect(untraced[name]["end_to_end"]["failed_share"] == 0,
               f"{name}: failed_share is 0")
        expect(sorted(traced[name]["per_layer"])
               == sorted(m["name"] for m in contract["per_layer"]),
               f"{name}: the ledger has exactly the contract's layers")
        if name.startswith("fig4"):
            expect(traced[name]["per_layer"]["codegen.bailouts"] == 0,
                   f"{name}: no codegen bailouts")
    # Recorded at the commit that added the benchmark, so that a change to
    # the compile cache's capacity or eviction is visible here.
    expect(traced["fig5_hot"]["per_layer"]["compile_cache.hit_ratio"] == 1.0,
           "fig5_hot: every timed lookup hits the compile cache")
    expect(traced["fig5_scan"]["per_layer"]["compile_cache.hit_ratio"] == 0.0,
           "fig5_scan: every timed lookup misses the compile cache")

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line = driver_line("--workload", "fig4_launch", "--trace", trace)
        expect(line["correct"] and line["failed"] == 0,
               f"fig4_launch --trace {trace} is correct")
        expect({k: v["unit"] for k, v in line["metrics"].items()}
               == {m["name"]: m["unit"] for m in contract[section]},
               f"--trace {trace} prints exactly the {section} metrics")

    for what in ("expected", "pin"):
        line = driver_line("--workload", "fig4_launch", "--corrupt", what)
        expect(not line["correct"] and line["failed"] > 0,
               f"a corrupted {what} makes requests fail")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = bench("--workload", "fig4_launch", cwd=Path(bare))
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without src/ the harness exits non-zero, printing no result")

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
