"""``repro.telemetry`` — structured observability for the pipeline.

Collects three kinds of evidence about a compile-and-execute session and
emits them as one JSON document:

* **pass telemetry** — wall-clock time and IR-size deltas per optimization
  pass, recorded by :class:`~repro.passes.pass_manager.PassManager`;
* **vectorizer counters** — per vectorized function: shape classifications
  (uniform / indexed / varying, §4.2.1), memory-form selections
  (uniform / packed / window / gather-scatter, §4.2.2-4.2.3), and mask
  operations in the emitted code;
* **VM attribution** — per executed run: cost-model cycles, instruction
  counts, and per-function hot-spot attribution from the interpreter.

Collection is opt-in and thread-unsafe-by-design (one active session):

    with telemetry.collect() as t:
        ...compile and run things...
    t.write("out.json")

All recording hooks are no-ops when no session is active, so the
instrumented code paths cost nothing in normal runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Telemetry",
    "collect",
    "current",
    "diff_documents",
    "record_fallback",
    "record_pass",
    "record_vectorization",
    "record_vm_run",
]

#: v3: profile-guided batch-tuner evidence — events, totals and the
#: chosen configuration on each VM run (gone since v9).
#: v4: sharded-execution evidence — a per-run ``shard`` record and
#: ``vm.shard.*`` totals (gone since v10).
#: v5: whole-kernel codegen evidence — a per-run ``codegen`` record
#: (compiles, cache/disk hits, calls, trap replays, bailouts) and
#: ``vm.codegen.*`` totals.
#: v6: per-reason bailout counters — ``vm.codegen.bailout.<reason>``
#: alongside the aggregate, so coverage regressions name the reason in
#: telemetry diffs.
#: v7: the fused-window tier is gone — runs carry no ``fusion`` record
#: and ``vm`` no ``fuse_totals``; diff mode still reads a v6 document and
#: shows its fusion counters with the new side at 0.
#: v8: fallback and partial-fallback records name their ``module`` —
#: every kernel's SPMD function is ``kernel.psim0``, so (function, gang
#: size, reason) alone made one session record only its first kernel's
#: degradation.  Diff mode counts the records and reads v7 as before.
#: v9: the batch tuner is gone — ``vm`` carries neither its event list
#: nor its totals table, and runs no tuner record; diff mode still reads a
#: v8 document and shows its tuner counters with the new side at 0.
#: v10: the sharded executor is gone — runs carry no ``shard`` record and
#: ``vm`` no ``shard_totals``; diff mode still reads a v9 document and
#: shows its ``vm.shard.*`` counters with the new side at 0.
#: v11: region-granular fallback is gone — ``vectorizer`` carries no
#: partial-fallback record list; diff mode still reads a v10 document and
#: shows its count with the new side at 0.
#: v12: a replay on a batched module's unbatched twin counts in
#: ``vm.codegen.replays`` like any other replay — runs' ``batch`` record
#: carries no ``replays`` and ``batch_totals`` no ``vm.batch.replays``; diff
#: mode still reads a v11 document and lists that key as removed.
SCHEMA = "repro-telemetry/12"
DIFF_SCHEMA = "repro-telemetry-diff/2"


class Telemetry:
    """One collection session's worth of pipeline evidence."""

    def __init__(self):
        #: pass name -> {calls, seconds, instrs_before, instrs_after}
        self.passes: Dict[str, Dict[str, float]] = {}
        #: (pass name, function name) -> same aggregate, for per-function
        #: timing breakdowns (see :meth:`pass_timings`)
        self.passes_by_function: Dict[tuple, Dict[str, float]] = {}
        #: one entry per vectorized function
        self.vectorized: List[Dict[str, object]] = []
        #: one entry per function that fell back to the scalar lane loop
        self.fallbacks: List[Dict[str, object]] = []
        #: one entry per VM run
        self.vm_runs: List[Dict[str, object]] = []
        self.meta: Dict[str, object] = {"started_at": time.time()}

    # -- recording -------------------------------------------------------------------

    def record_pass(
        self,
        pass_name: str,
        function_name: str,
        seconds: float,
        instrs_before: int,
        instrs_after: int,
    ) -> None:
        for table, key in (
            (self.passes, pass_name),
            (self.passes_by_function, (pass_name, function_name)),
        ):
            entry = table.get(key)
            if entry is None:
                entry = table[key] = {
                    "calls": 0,
                    "seconds": 0.0,
                    "instrs_before": 0,
                    "instrs_after": 0,
                }
            entry["calls"] += 1
            entry["seconds"] += seconds
            entry["instrs_before"] += instrs_before
            entry["instrs_after"] += instrs_after

    def record_vectorization(
        self,
        function_name: str,
        gang_size: int,
        shapes: Dict[str, int],
        memory_forms: Dict[str, int],
        mask_ops: Dict[str, int],
        warnings: List[str],
    ) -> None:
        self.vectorized.append(
            {
                "function": function_name,
                "gang_size": gang_size,
                "shapes": dict(shapes),
                "memory_forms": dict(memory_forms),
                "mask_ops": dict(mask_ops),
                "warnings": list(warnings),
            }
        )

    def record_fallback(
        self, module_name: str, function_name: str, gang_size: int,
        reason: Dict[str, object], source: str,
    ) -> None:
        """One SPMD function degraded to the scalar lane loop (and why).

        Exact duplicates are dropped: while fault plans are armed the
        driver bypasses the compile cache, so the same source compiled
        twice degrades the same functions twice — one *distinct*
        degradation, not two (``vectorizer.fallbacks`` used to
        double-count here).  The module name and a digest of the
        function's ``source`` are part of the identity: every kernel's
        SPMD function is ``kernel.psim0``, and every module compiled
        without a name is ``parsimony``.
        """
        entry = {
            "module": module_name,
            "function": function_name,
            "source": hashlib.sha256(source.encode()).hexdigest()[:16],
            "gang_size": gang_size,
            "reason": dict(reason),
        }
        if entry not in self.fallbacks:
            self.fallbacks.append(entry)

    def record_vm_run(
        self,
        label: str,
        stats,
        hotspots: List[Dict],
        wall_seconds: Optional[float] = None,
        batch: Optional[Dict[str, object]] = None,
        codegen: Optional[Dict[str, object]] = None,
    ) -> None:
        entry: Dict[str, object] = {
            "label": label,
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "counts": dict(stats.counts),
            "hotspots": list(hotspots),
        }
        if wall_seconds is not None:
            entry["wall_seconds"] = wall_seconds
        if batch is not None:
            entry["batch"] = dict(batch)
        if codegen is not None:
            # The whole-kernel codegen engine's report for this run:
            # compiles vs in-memory/disk cache hits, compiled-function
            # calls, trap replays on the reference engine, and bailouts.
            entry["codegen"] = dict(codegen)
        self.vm_runs.append(entry)

    # -- reporting -------------------------------------------------------------------

    def pass_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-pass aggregates with the IR-size delta made explicit."""
        return self.pass_timings()

    def pass_timings(self, per_function: bool = False):
        """Pass-timing aggregates with the IR-size delta made explicit.

        Flat per-pass by default; ``per_function=True`` nests the same
        aggregates per transformed function:
        ``{pass: {function: {calls, seconds, ...}}}``.
        """
        if not per_function:
            return {
                name: {
                    **entry,
                    "instrs_delta": entry["instrs_after"] - entry["instrs_before"],
                }
                for name, entry in self.passes.items()
            }
        nested: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (pass_name, function_name), entry in self.passes_by_function.items():
            nested.setdefault(pass_name, {})[function_name] = {
                **entry,
                "instrs_delta": entry["instrs_after"] - entry["instrs_before"],
            }
        return nested

    def vectorizer_totals(self) -> Dict[str, Dict[str, int]]:
        """Shape / memory-form / mask-op counters summed over functions."""
        totals: Dict[str, Dict[str, int]] = {
            "shapes": {},
            "memory_forms": {},
            "mask_ops": {},
        }
        for entry in self.vectorized:
            for section in totals:
                for key, n in entry[section].items():  # type: ignore[union-attr]
                    totals[section][key] = totals[section].get(key, 0) + n
        return totals

    def vm_batch_totals(self) -> Dict[str, int]:
        """Gang-batching counters summed over runs, flattened to the
        ``vm.batch.*`` keys the perf-smoke CI job and diff mode read:
        loops batched and loops rejected by legality."""
        totals = {"vm.batch.applied": 0, "vm.batch.rejected": 0}
        for run in self.vm_runs:
            batch = run.get("batch")
            if not batch:
                continue
            totals["vm.batch.applied"] += int(batch.get("applied", 0))
            totals["vm.batch.rejected"] += int(batch.get("rejected", 0))
        return totals

    def vm_codegen_totals(self) -> Dict[str, int]:
        """Whole-kernel codegen counters summed over runs, flattened to the
        ``vm.codegen.*`` keys the perf-smoke CI job and diff mode read:
        fresh compiles, in-memory and disk source-cache hits, compiled
        calls, trap replays on the reference engine, launches whose row
        nest's no-alias check failed (``row_fallbacks``), and bailouts — the
        latter both as an aggregate and per reason
        (``vm.codegen.bailout.<reason>``), so a coverage regression (a
        new bailout reason appearing) is visible in the telemetry diff."""
        totals = {"vm.codegen.compiles": 0, "vm.codegen.cache_hits": 0,
                  "vm.codegen.disk_hits": 0, "vm.codegen.calls": 0,
                  "vm.codegen.replays": 0, "vm.codegen.row_fallbacks": 0,
                  "vm.codegen.bailouts": 0}
        for run in self.vm_runs:
            report = run.get("codegen")
            if not report:
                continue
            for key in ("compiles", "cache_hits", "disk_hits", "calls",
                        "replays", "row_fallbacks"):
                totals[f"vm.codegen.{key}"] += int(report.get(key, 0))
            bailouts = report.get("bailouts") or {}
            for reason, n in bailouts.items():
                totals["vm.codegen.bailouts"] += int(n)
                key = f"vm.codegen.bailout.{reason}"
                totals[key] = totals.get(key, 0) + int(n)
        return totals

    def as_dict(self) -> Dict[str, object]:
        from . import diskcache, driver

        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "passes": self.pass_summary(),
            "passes_by_function": self.pass_timings(per_function=True),
            "vectorizer": {
                "functions": self.vectorized,
                "totals": self.vectorizer_totals(),
                "fallbacks": self.fallbacks,
            },
            "vm": {
                "runs": self.vm_runs,
                "batch_totals": self.vm_batch_totals(),
                "codegen_totals": self.vm_codegen_totals(),
            },
            "compile_cache": driver.compile_cache_stats(),
            "disk_cache": diskcache.stats(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


_current: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The active session, or ``None`` (hooks check this and bail)."""
    return _current


@contextmanager
def collect() -> Iterator[Telemetry]:
    """Activate a collection session for the dynamic extent of the block."""
    global _current
    session = Telemetry()
    previous = _current
    _current = session
    try:
        yield session
    finally:
        session.meta["duration_seconds"] = time.time() - session.meta["started_at"]
        _current = previous


# Module-level convenience hooks: no-ops without an active session.

def record_pass(pass_name, function_name, seconds, instrs_before, instrs_after):
    if _current is not None:
        _current.record_pass(
            pass_name, function_name, seconds, instrs_before, instrs_after
        )


def record_vectorization(function_name, gang_size, shapes, memory_forms,
                         mask_ops, warnings):
    if _current is not None:
        _current.record_vectorization(
            function_name, gang_size, shapes, memory_forms, mask_ops, warnings
        )


def record_vm_run(label, stats, hotspots, wall_seconds=None,
                  batch=None, codegen=None):
    if _current is not None:
        _current.record_vm_run(label, stats, hotspots, wall_seconds,
                               batch, codegen)


# -- PR-over-PR diffing ----------------------------------------------------------


def _field_diff(old, new):
    old = 0 if old is None else old
    new = 0 if new is None else new
    return {"old": old, "new": new, "delta": new - old}


def _diff_tables(old: Dict, new: Dict, fields) -> Dict[str, Dict]:
    """Diff two ``{name: {field: number}}`` tables, keeping the union of
    names so entries present on only one side still show up."""
    result = {}
    for name in sorted(set(old) | set(new)):
        o, n = old.get(name, {}), new.get(name, {})
        result[name] = {f: _field_diff(o.get(f), n.get(f)) for f in fields}
    return result


def _flat_counters(doc: Dict) -> Dict[str, float]:
    """Every scalar counter in a telemetry document under a dotted key."""
    flat: Dict[str, float] = {}
    totals = doc.get("vectorizer", {}).get("totals", {})
    for section, counters in totals.items():
        for key, n in counters.items():
            flat[f"vectorizer.{section}.{key}"] = n
    # Every ``vm.*_totals`` table is already keyed ``vm.<layer>.<counter>``.
    # Taking whatever tables the document has (not a fixed list) is what
    # lets an older document's retired layers diff against 0.
    for section, table in doc.get("vm", {}).items():
        if section.endswith("_totals"):
            flat.update(table)
    for section in ("compile_cache", "disk_cache"):
        for key, n in doc.get(section, {}).items():
            if isinstance(n, (int, float)):
                flat[f"{section}.{key}"] = n
    # Every degradation record list counts under its own name, so an older
    # document's retired lists diff against 0 like the tables above.
    for section, records in doc.get("vectorizer", {}).items():
        if section.endswith("fallbacks"):
            flat[f"vectorizer.{section}"] = len(records)
    return flat


def diff_documents(old: Dict, new: Dict) -> Dict[str, object]:
    """Machine-readable PR-over-PR delta of two telemetry documents.

    Compares per-pass timing/size aggregates, per-label VM runs, and every
    flat counter (vectorizer totals, ``vm.*`` totals, cache stats); names
    present in only one document appear with the other side as 0.
    """
    runs_old = {r["label"]: r for r in old.get("vm", {}).get("runs", [])}
    runs_new = {r["label"]: r for r in new.get("vm", {}).get("runs", [])}

    def flat_by_function(doc):
        return {
            f"{pass_name}::{function}": entry
            for pass_name, table in doc.get("passes_by_function", {}).items()
            for function, entry in table.items()
        }

    return {
        "schema": DIFF_SCHEMA,
        "base_schemas": {"old": old.get("schema"), "new": new.get("schema")},
        "passes": _diff_tables(
            old.get("passes", {}),
            new.get("passes", {}),
            ("calls", "seconds", "instrs_delta"),
        ),
        "passes_by_function": _diff_tables(
            flat_by_function(old),
            flat_by_function(new),
            ("calls", "seconds", "instrs_delta"),
        ),
        "vm_runs": _diff_tables(
            runs_old, runs_new, ("cycles", "instructions", "wall_seconds")
        ),
        "counters": _diff_tables(
            {k: {"value": v} for k, v in _flat_counters(old).items()},
            {k: {"value": v} for k, v in _flat_counters(new).items()},
            ("value",),
        ),
    }


def record_fallback(module_name, function_name, gang_size, reason, source):
    if _current is not None:
        _current.record_fallback(module_name, function_name, gang_size,
                                 reason, source)
