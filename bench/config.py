"""What the benchmark runs: paths, the contract file, workloads, environment.

The metric and workload *names* live in ``BENCHMARK.json`` at the repository
root and are read from there, so the file the driver reads and the harness
cannot drift apart.  What a workload *does* is defined here.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Guard space after each array (as ``repro.benchsuite.runner`` allocates).
GUARD_BYTES = 4096

#: Worker processes per run.  Each does the whole set-up and measures a
#: ``1/WORKERS`` share of ``--seconds``: ``setup_s`` is then a median of
#: several set-ups, and the latency medians pool several process layouts.
WORKERS = 2

#: Passes over the workload's kernels every worker measures at least,
#: however short ``--seconds`` is.
MIN_ROUNDS = 2

#: Untimed passes before the timed section (the first one is cold).
WARMUP_ROUNDS = 2

#: End-to-end rows the full-set table prints beside the contract's, which
#: wants every metric on every workload, never 0, and steady within a
#: relative bound.  ``round_ms_p50`` says what ``requests_per_s`` says (a
#: pass's wall time, collector included) and is no steadier.
#: ``process_ms_p50`` exists on the process-per-pass workload only.  The
#: last two are exact and bounded at 0: a failed request, or a cost-model
#: count that moved, fails the run outright (``correct: false``).
TABLE_ONLY_METRICS = (
    {"name": "round_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "process_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "failed_share", "unit": "share", "better": "lower", "bound": 0.0},
    {"name": "model_speedup_geomean", "unit": "x", "better": "higher",
     "bound": 0.0},
)


@dataclass(frozen=True)
class WorkloadDef:
    suite: str            #: "fig4" (7 ispc kernels) or "fig5" (72 Simd Library)
    mode: str             #: "launch" | "request" | "fresh"
    draw: Optional[int]   #: kernels drawn from the suite; None = all of them
    baseline: str         #: the suite's cost-model baseline implementation
    #: Passes per second of measuring time, fixed at what the commit that
    #: added the benchmark served on the 2-core sandbox.  A run's work is
    #: ``--seconds`` times this, not whatever fits in ``--seconds``: passes
    #: are not alike (the collector's state and the heap evolve from the
    #: first timed pass on), so two builds are compared over the same
    #: passes, and a faster build is not sent deeper into the run.
    passes_per_s: float
    #: What ``--seed`` decides.  "shuffled": a new order every pass, so the
    #: collector's periodic full collections (tens of ms) do not settle on
    #: the same kernel pass after pass.  "cyclic": one order for every pass;
    #: fig5_scan needs it, a cyclic scan over more keys than the LRU holds
    #: being what makes every lookup miss.  "suite": nothing; in a fresh
    #: process the first request pays the process's one-time costs, so the
    #: kernel that goes first must not change with the seed.
    order: str


WORKLOADS: Dict[str, WorkloadDef] = {
    "fig4_launch": WorkloadDef("fig4", "launch", None, "autovec", 25.0,
                               "shuffled"),
    "fig4_warm": WorkloadDef("fig4", "request", None, "autovec", 6.5,
                             "shuffled"),
    "fig5_hot": WorkloadDef("fig5", "request", 48, "scalar", 3.4, "shuffled"),
    "fig5_scan": WorkloadDef("fig5", "request", None, "scalar", 0.6, "cyclic"),
    "fig4_fresh": WorkloadDef("fig4", "fresh", None, "autovec", 1.05, "suite"),
}

#: The draw of a workload that runs part of a suite is seeded with this, not
#: with ``--seed``: a pass costs the sum of its kernels, so its time would
#: otherwise follow the seed.
DRAW_SEED = 2023


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_source_tree() -> None:
    """The benchmark measures the library beside it, never an installed one."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no library to measure: {SRC / 'repro'} is missing")


def child_env(cache_dir: Path) -> Dict[str, str]:
    """The environment every measured process runs in.

    Every ambient ``REPRO_*`` knob is dropped, so batching is the cost-model
    default and autotune, shards and the disk cache are off; the cache
    directory is a scratch one in case a layer writes anyway.  The hash seed
    is pinned and no bytecode is written, so every process compiles and
    lays out the library the same way and leaves nothing behind.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(SRC)))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def suite_specs(suite: str) -> list:
    if suite == "fig4":
        from repro.benchsuite.ispc_suite import BENCHMARKS
        return list(BENCHMARKS)
    from repro.benchsuite.simdlib import KERNELS
    return list(KERNELS)


def pick_kernels(workload: str) -> list:
    """The workload's kernels, in suite order.

    A draw is stratified over suite order (two of every three consecutive
    kernels for 48 of 72): neighbours belong to one operator family, so the
    draw keeps each family's weight.
    """
    definition = WORKLOADS[workload]
    specs = suite_specs(definition.suite)
    if definition.draw is None:
        return specs
    rng = random.Random(DRAW_SEED)
    strata = len(specs) // (len(specs) - definition.draw)
    kept: List = []
    for start in range(0, len(specs), strata):
        stratum = specs[start:start + strata]
        stratum.pop(rng.randrange(len(stratum)))
        kept.extend(stratum)
    return kept
