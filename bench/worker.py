"""One workload measured in one process: set-up, then a closed loop of
requests from one client with no think time, each verified outside its span.

Run by ``bench.__main__`` as ``python3 -m bench.worker``; prints one JSON
object as its last line.  ``Session`` (kernels, oracle, tallies, one round)
is shared with ``bench.fresh``, the process-per-round workload's child.
"""

from __future__ import annotations

import time

#: Taken before the heavy imports below: ``process.spawn_ms`` ends here.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from .config import MIN_ROUNDS, OUT, WARMUP_ROUNDS, WORKLOADS, pick_kernels
from .oracle import Oracle, load_pin, run_serial
from .serve import (codegen_counts, serve_launch, serve_request,
                    traced_request)
from .trace import Tracer, geomean, ledger

CODEGEN_KEYS = ("compiles", "cache_hits", "replays", "bailouts")


class Session:
    """A workload's kernels in request order, the oracle that judges them,
    and the tallies of what was served."""

    def __init__(self, workload: str, seed, trace: bool):
        self.definition = WORKLOADS[workload]
        self.kernels = pick_kernels(workload)
        self.rng = random.Random(seed)
        if self.definition.order == "cyclic":
            self.rng.shuffle(self.kernels)
        self.workloads = {spec.name: spec.workload() for spec in self.kernels}
        self.tracer = Tracer(trace)
        self.quiet = Tracer(False)
        self.oracle: Optional[Oracle] = None
        #: Launch mode: kernel -> (interpreter, addresses), bound in set-up.
        self.bound: Dict[str, tuple] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.latencies: Dict[str, List[float]] = {
            spec.name: [] for spec in self.kernels}
        self.rounds: List[float] = []
        self.verified = 0
        self.model: Dict[str, list] = {}
        self.codegen = dict.fromkeys(CODEGEN_KEYS, 0)
        self.requests = 0

    def serve(self, spec, tr: Tracer):
        """``(outputs, cycles, instructions, codegen counts)`` of one request."""
        workload = self.workloads[spec.name]
        counts = None
        if spec.name in self.bound:
            interp, addrs = self.bound[spec.name]
            outputs = serve_launch(interp, addrs, workload, tr)
        elif tr.enabled:
            interp, addrs, outputs, counts = traced_request(
                spec, workload, tr)
        else:
            _, interp, addrs, outputs = serve_request(spec, workload, tr)
        if self.definition.mode == "launch":
            self.bound[spec.name] = (interp, addrs)
        cycles, instrs = counts or (interp.stats.cycles,
                                    interp.stats.instructions)
        return outputs, cycles, instrs, codegen_counts(interp)

    def round(self, tr: Tracer, record: bool) -> None:
        """One pass over the kernels.  Verification follows the pass, outside
        every timed span; ``record`` adds the pass to the timed tallies."""
        served = []
        if self.definition.order == "shuffled":
            self.rng.shuffle(self.kernels)
        start = time.perf_counter()
        for spec in self.kernels:
            tr.kernel = spec.name
            tr.request += 1
            t0 = time.perf_counter()
            try:
                result = self.serve(spec, tr)
            except Exception as exc:  # a failed request, not a failed run
                result = exc
            served.append((spec.name, time.perf_counter() - t0, result))
        wall = time.perf_counter() - start
        verified = 0
        for kernel, seconds, result in served:
            self.attempted += 1
            if isinstance(result, Exception):
                self.failures.append(f"{kernel}: {result!r}")
                continue
            outputs, cycles, instrs, codegen = result
            problem = self.oracle.check(kernel, outputs, cycles, instrs)
            if problem is not None:
                self.failures.append(problem)
                continue
            verified += 1
            self.model[kernel] = [cycles, instrs]
            if self.tracer.phase != "setup":
                self.requests += 1
                for key in CODEGEN_KEYS:
                    self.codegen[key] += codegen[key]
            if record:
                self.latencies[kernel].append(seconds)
        if record:
            self.rounds.append(wall)
            self.verified += verified

    def tallies(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "latencies": self.latencies, "rounds": self.rounds,
                "verified": self.verified, "model": self.model,
                "codegen": self.codegen, "requests": self.requests}

    def merge(self, other: dict) -> None:
        """Add the tallies of a process this one spawned."""
        self.attempted += other["attempted"]
        self.failures += other["failures"]
        for kernel, samples in other["latencies"].items():
            self.latencies[kernel] += samples
        self.rounds += other["rounds"]
        self.verified += other["verified"]
        self.model.update(other["model"])
        for key in CODEGEN_KEYS:
            self.codegen[key] += other["codegen"][key]
        self.requests += other["requests"]


class Worker:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.trace = bool(args.trace)
        self.mode = WORKLOADS[args.workload].mode
        self.process_ms: List[float] = []
        self.child_import_ms: List[float] = []
        self.child_spawn_ms: List[float] = []
        self.cache = {"hits": 0, "lookups": 0}
        self.telemetry_ratio: Optional[float] = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        from repro import driver
        self.driver = driver
        # Each worker of a run draws its own orders from the run's seed.
        session = self.session = Session(
            self.args.workload, f"{self.args.seed}/{self.args.index}",
            self.trace)
        self.import_ms = 1e3 * (time.perf_counter() - _T0)

        pin = load_pin()
        first = session.kernels[0].name
        if self.args.corrupt == "pin":
            pin[first]["parsimony"][1] += 1
        oracle = session.oracle = Oracle(pin)
        baseline = session.definition.baseline
        self.baseline_cycles: Dict[str, float] = {}
        for spec in session.kernels:
            workload = session.workloads[spec.name]
            session.attempted += 1
            problem = oracle.learn(spec, workload)
            if problem is None:
                cycles, instrs = oracle.serial.get((spec.name, baseline)) or \
                    run_serial(spec, workload, baseline, predecode=True)[1:]
                self.baseline_cycles[spec.name] = cycles
                problem = oracle.check_counts(spec.name, baseline, cycles,
                                              instrs)
            if problem is not None:
                session.failures.append(problem)
        if self.args.corrupt == "expected":
            oracle.expected[first][0] = oracle.expected[first][0].copy()
            oracle.expected[first][0].reshape(-1)[0] += 1

        # Baselines share the compile cache with the flow under test.
        driver.clear_compile_cache()
        if self.mode == "fresh":
            self.oracle_path = Path(self.args.scratch) / (
                f"oracle-{os.getpid()}.npz")
            oracle.save(self.oracle_path)
            self.fresh_round(traced=False, record=False)
        else:
            # Launch mode compiles and binds in a pass of its own first.
            for _ in range(WARMUP_ROUNDS + (self.mode == "launch")):
                session.round(session.tracer, record=False)
        gc.collect()
        self.setup_s = time.perf_counter() - self.args.t_spawn

    # -- the timed section -----------------------------------------------------

    def fresh_round(self, traced: bool, record: bool) -> None:
        """A new process serves one pass and reports it on stdout."""
        session = self.session
        t_spawn = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "bench.fresh",
             "--workload", self.args.workload, "--seed", str(self.args.seed),
             "--oracle", str(self.oracle_path), "--trace", str(int(traced)),
             "--watch-gc", str(int(self.trace)), "--t-spawn", repr(t_spawn)],
            stdout=subprocess.PIPE, text=True, timeout=150)
        wall = time.perf_counter() - t_spawn
        if done.returncode != 0:
            session.attempted += len(session.kernels)
            session.failures.append(
                f"fresh process exited with {done.returncode}")
            return
        reply = json.loads(done.stdout.splitlines()[-1])
        if session.tracer.phase == "setup":  # the discarded first process
            session.attempted += reply["tallies"]["attempted"]
            session.failures += reply["tallies"]["failures"]
            return
        session.merge(reply["tallies"])
        session.tracer.absorb(reply["spans"])
        for key in self.cache:
            self.cache[key] += reply["cache"][key]
        if record:
            self.process_ms.append(1e3 * wall)
            self.child_import_ms.append(reply["import_ms"])
            self.child_spawn_ms.append(reply["spawn_ms"])

    def measure(self) -> None:
        session = self.session
        tracer = session.tracer
        if self.trace:
            tracer.watch_gc()
        before = self.driver.compile_cache_stats()
        passes = max(MIN_ROUNDS, round(
            self.args.seconds * session.definition.passes_per_s))
        for index in range(passes):
            # A traced run alternates plain and traced passes: the plain
            # ones are what the traced ones are compared with.
            traced = self.trace and index % 2 == 1
            tracer.phase = "traced" if traced else "plain"
            if self.mode == "fresh":
                self.fresh_round(traced, record=not traced)
            else:
                session.round(tracer if traced else session.quiet,
                              record=not traced)
        after = self.driver.compile_cache_stats()
        self.cache["hits"] += after["hits"] - before["hits"]
        self.cache["lookups"] += (after["hits"] + after["misses"]
                                  - before["hits"] - before["misses"])
        if self.trace:
            tracer.unwatch_gc()
            tracer.phase = "after"
            self.telemetry_ratio = self.telemetry_overhead()

    def telemetry_overhead(self) -> Optional[float]:
        """One pass inside ``telemetry.collect()`` over one pass outside."""
        try:
            from repro.telemetry import collect
        except ImportError:
            return None
        session = self.session

        def one_pass() -> float:
            gc.collect()
            start = time.perf_counter()
            for spec in session.kernels:
                session.serve(spec, session.quiet)
            return time.perf_counter() - start

        if self.mode == "fresh":
            one_pass()  # this process has served nothing yet
        plain = one_pass()
        with collect():
            return one_pass() / plain

    # -- the report ------------------------------------------------------------

    def result(self) -> dict:
        session = self.session
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if self.mode == "fresh"
            else resource.RUSAGE_SELF)
        speedup = geomean(
            self.baseline_cycles[k] / session.model[k][0]
            for k in session.model if k in self.baseline_cycles)
        fresh = self.mode == "fresh"
        out = {
            "setup_s": self.setup_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "import_ms": (median(self.child_import_ms)
                          if fresh and self.child_import_ms
                          else self.import_ms),
            "spawn_ms": (median(self.child_spawn_ms)
                         if fresh and self.child_spawn_ms
                         else 1e3 * (_T0 - self.args.t_spawn)),
            "process_ms": self.process_ms,
            "wall_s": (sum(self.process_ms) / 1e3 if fresh
                       else sum(session.rounds)),
            "model_speedup_geomean": speedup,
            "tallies": session.tallies(),
            "layers": None,
        }
        if self.trace:
            out["layers"] = ledger(
                session.tracer.spans, session.latencies,
                {"cache_hits": self.cache["hits"],
                 "cache_lookups": self.cache["lookups"],
                 "model": session.model, "model_speedup_geomean": speedup,
                 "codegen": session.codegen, "requests": session.requests,
                 "plain_wall_s": out["wall_s"], "rounds": session.rounds,
                 "import_ms": out["import_ms"], "spawn_ms": out["spawn_ms"],
                 "telemetry_ratio": self.telemetry_ratio})
            OUT.mkdir(exist_ok=True)
            span_file = OUT / (f"spans-{self.args.workload}-seed"
                               f"{self.args.seed}-w{self.args.index}.json")
            session.tracer.write(span_file)
            out["span_file"] = str(span_file)
        return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="the parent's perf_counter() when it spawned us")
    parser.add_argument("--corrupt", choices=("expected", "pin"),
                        help="self-check: break the verifier's inputs")
    worker = Worker(parser.parse_args())
    worker.setup()
    worker.measure()
    print(json.dumps(worker.result()))


if __name__ == "__main__":
    main()
