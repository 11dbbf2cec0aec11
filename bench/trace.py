"""Spans recorded from outside the library, and the ledger derived from them.

The harness brackets each call it makes into a layer's public function; the
library itself is not instrumented.  Spans stay in memory until the run ends.
A span's self time is its duration minus what its child spans cover.
"""

from __future__ import annotations

import gc
import json
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Optional

_NO_SPAN = nullcontext({})


class Tracer:
    """Span recorder; a disabled one costs a shared no-op context per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.phase = "setup"
        self.kernel: Optional[str] = None
        self.request = 0
        self._open: List[int] = []
        self._gc_t0 = 0.0

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        record = self._begin(name, time.perf_counter())
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter()
            self._open.pop()

    def _begin(self, name: str, t0: float) -> dict:
        record = {"id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "request": self.request, "name": name, "t0": t0, "t1": t0,
                  "kernel": self.kernel, "phase": self.phase}
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    # The collector runs inside whatever layer allocated last; recording it
    # as a child span keeps it out of that layer's self time.

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_t0 = now
            return
        record = self._begin("gc", self._gc_t0)
        record["t1"] = now
        record["generation"] = info["generation"]
        self._open.pop()

    def absorb(self, spans: Iterable[dict]) -> None:
        """Take over spans another process recorded (ids are re-based)."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, id=span["id"] + base, phase=self.phase)
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)

    def write(self, path: Path) -> None:
        own = self_times(self.spans)
        rows = [dict(span, self_ms=1e3 * own[span["id"]])
                for span in self.spans]
        path.write_text(json.dumps({"schema": "repro-bench-spans/1",
                                    "clock": "perf_counter seconds",
                                    "spans": rows}))


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> its duration minus what its child spans cover, seconds."""
    own = {span["id"]: span["t1"] - span["t0"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["t1"] - span["t0"]
    return own


def geomean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    if not values or min(values) <= 0:
        return None
    # fsum: the result must not depend on the order kernels were served in.
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return sum(values) / len(values) if values else None


def middle(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return median(values) if values else None


def fast(samples: List[float]) -> float:
    """The 10th percentile (nearest rank): what a request costs when the
    machine is left alone.  Noise on a shared 2-core sandbox only ever adds
    time (slow phases of seconds, the collector's pauses), and between runs
    of the same code a kernel's median moved two to three times as much."""
    return sorted(samples)[int(0.1 * (len(samples) - 1))]


def tail(samples: List[float]) -> Optional[tuple]:
    """``(percentile, value)`` for the highest percentile that still has at
    least ten samples beyond it, or ``None`` below twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _per_kernel(spans: List[dict], name: str, field=None) -> Dict[str, float]:
    """Per-kernel median of a span's duration in ms (or of ``field``), from
    the traced passes where the span occurs there, else from set-up."""
    samples: Dict[str, Dict[str, list]] = {}
    for span in spans:
        if span["name"] == name and (field is None or field in span):
            value = (1e3 * (span["t1"] - span["t0"]) if field is None
                     else span[field])
            samples.setdefault(span["kernel"], {}).setdefault(
                span["phase"], []).append(value)
    return {kernel: median(by_phase.get("traced") or by_phase["setup"])
            for kernel, by_phase in samples.items()}


def _self_ms(spans: List[dict], name: str) -> Dict[str, float]:
    """Per-kernel median self time, in ms, of a span of the traced passes."""
    own = self_times(spans)
    samples: Dict[str, list] = {}
    for span in spans:
        if span["name"] == name and span["phase"] == "traced":
            samples.setdefault(span["kernel"], []).append(1e3 * own[span["id"]])
    return {kernel: median(values) for kernel, values in samples.items()}


STAGES = ("frontend", "passes", "vectorizer", "cleanup", "batch")


def ledger(spans: List[dict], latencies: Dict[str, List[float]],
           counters: dict) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced process.

    Times are geomeans over kernels of per-kernel medians; the three
    difference rows (``compile.unattributed_ms``, ``vm.decode_bind_ms``,
    ``request.unattributed_ms``) are medians over kernels of the per-kernel
    difference, which a geomean cannot take when one is not positive.  A
    layer the harness could not bracket is ``None``.
    """
    ms = {name: _per_kernel(spans, name) for name in STAGES + (
        "compile.miss", "compile_cache.handout", "clone", "vm.construct",
        "vm.alloc", "vm.first_run", "vm.readback", "vm.exec", "request")}
    out: Dict[str, Optional[float]] = {}
    for stage in STAGES:
        out[f"{stage}.ms"] = geomean(ms[stage].values())
    for stage in STAGES[:-1]:
        out[f"{stage}.ir_instrs"] = geomean(
            _per_kernel(spans, stage, "ir_instrs").values())
    out["vectorizer.fallbacks"] = mean(
        _per_kernel(spans, "vectorizer", "fallbacks").values())
    for field in ("applied", "rejected"):
        out[f"batch.{field}"] = mean(_per_kernel(spans, "batch", field).values())
    out["compile.miss_ms"] = geomean(ms["compile.miss"].values())
    staged = [k for k in ms["compile.miss"]
              if all(k in ms[stage] for stage in STAGES)]
    out["compile.unattributed_ms"] = middle(
        ms["compile.miss"][k] - sum(ms[stage][k] for stage in STAGES)
        for k in staged)
    lookups = counters["cache_lookups"]
    out["compile_cache.hit_ratio"] = (
        counters["cache_hits"] / lookups if lookups else None)
    out["compile_cache.handout_ms"] = geomean(
        ms["compile_cache.handout"].values())
    out["clone.ms"] = geomean(ms["clone"].values())
    for name in ("construct", "alloc", "first_run", "readback", "exec"):
        out[f"vm.{name}_ms"] = geomean(ms[f"vm.{name}"].values())
    both = [k for k in ms["vm.first_run"] if k in ms["vm.exec"]]
    out["vm.decode_bind_ms"] = middle(
        ms["vm.first_run"][k] - ms["vm.exec"][k] for k in both)
    model = counters["model"]
    out["vm.host_ns_per_model_instr"] = geomean(
        1e6 * ms["vm.exec"][k] / model[k][1] for k in ms["vm.exec"]
        if k in model)
    out["vm.model_cycles"] = geomean(c for c, _ in model.values())
    out["vm.model_instrs"] = geomean(n for _, n in model.values())
    out["model.speedup_geomean"] = counters["model_speedup_geomean"]
    requests = counters["requests"]
    plain_requests = sum(len(v) for v in latencies.values())
    for key in ("compiles", "cache_hits", "bailouts", "replays"):
        out[f"codegen.{key}"] = (
            counters["codegen"][key] / requests if requests else None)
    # The collector is charged to the plain passes only: the probes of a
    # traced pass allocate what no request does.
    collections = [s for s in spans
                   if s["name"] == "gc" and s["phase"] == "plain"]
    gc_s = sum(s["t1"] - s["t0"] for s in collections)
    if plain_requests and counters["plain_wall_s"]:
        out["gc.ms"] = 1e3 * gc_s / plain_requests
        out["gc.share"] = gc_s / counters["plain_wall_s"]
        out["gc.gen2_collections"] = 1e3 * sum(
            s["generation"] == 2 for s in collections) / plain_requests
    else:
        out["gc.ms"] = out["gc.share"] = out["gc.gen2_collections"] = None
    out["process.import_ms"] = counters["import_ms"]
    out["process.spawn_ms"] = counters["spawn_ms"]
    p50 = {k: 1e3 * median(v) for k, v in latencies.items() if v}
    out["request.p50_ms_geomean"] = geomean(p50.values())
    out["request.p90_ms_geomean"] = geomean(
        1e3 * sorted(v)[math.ceil(0.9 * len(v)) - 1]
        for v in latencies.values() if v)
    out["round.p50_ms"] = middle(1e3 * r for r in counters["rounds"])
    out["request.overhead_ratio"] = geomean(
        p50[k] / ms["vm.exec"][k] for k in p50 if k in ms["vm.exec"])
    out["request.unattributed_ms"] = middle(_self_ms(spans, "request").values())
    out["trace.overhead_ratio"] = geomean(
        traced / p50[k] for k, traced in ms["request"].items() if k in p50)
    out["telemetry.on_overhead_ratio"] = counters["telemetry_ratio"]
    return out
