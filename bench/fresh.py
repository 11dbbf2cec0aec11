"""The process-per-round workload's child: a new Python process that serves
one pass over the kernels with every cache empty, verifies it against the
oracle its parent saved, and reports on stdout.
"""

from __future__ import annotations

import time

#: ``process.spawn_ms`` ends here, ``process.import_ms`` starts.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--oracle", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--watch-gc", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args()

    from repro import driver
    from .oracle import Oracle
    from .worker import Session
    session = Session(args.workload, args.seed, bool(args.trace))
    import_ms = 1e3 * (time.perf_counter() - _T0)

    session.oracle = Oracle.load(args.oracle)
    session.tracer.phase = "traced" if args.trace else "plain"
    if args.watch_gc:
        session.tracer.watch_gc()
    session.round(session.tracer, record=not args.trace)
    stats = driver.compile_cache_stats()
    print(json.dumps({
        "tallies": session.tallies(),
        "spans": session.tracer.spans,
        "cache": {"hits": stats["hits"],
                  "lookups": stats["hits"] + stats["misses"]},
        "import_ms": import_ms,
        "spawn_ms": 1e3 * (_T0 - args.t_spawn),
    }))


if __name__ == "__main__":
    main()
