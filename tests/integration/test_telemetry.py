"""Telemetry sessions: pass timings, vectorizer counters, VM attribution,
and the JSON document the example reports write for CI artifacts."""

import json

import numpy as np

from repro import driver, telemetry
from repro.backend.machine import ExecStats
from repro.vm import Interpreter

SRC = """
void kernel(f32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = a[i];
        if (x > (f32)0.0) {
            a[i] = x * (f32)2.0;
        }
    }
}
"""


def _compile_and_run():
    module = driver.compile_parsimony(SRC)
    interp = Interpreter(module)
    a = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -4.0, 5.0], dtype=np.float32)
    addr = interp.memory.alloc_array(a)
    interp.run("kernel", addr, a.size)
    telemetry.record_vm_run("t/parsimony", interp.stats, interp.hotspots())
    return interp.memory.read_array(addr, np.float32, a.size)


def test_hooks_are_noops_without_a_session():
    assert telemetry.current() is None
    telemetry.record_pass("dce", "f", 0.0, 1, 1)
    telemetry.record_vectorization("f", 8, {}, {}, {}, [])
    assert telemetry.current() is None


def test_collect_gathers_all_three_evidence_kinds():
    driver.clear_compile_cache()
    with telemetry.collect() as session:
        assert telemetry.current() is session
        _compile_and_run()
    assert telemetry.current() is None
    assert "duration_seconds" in session.meta

    # Pass telemetry: the parsimony flow runs the standard -O pipeline.
    summary = session.pass_summary()
    assert summary, "no passes recorded"
    assert "dce" in summary
    for entry in summary.values():
        assert {"calls", "seconds", "instrs_before", "instrs_after",
                "instrs_delta"} <= set(entry)
        assert entry["instrs_delta"] == entry["instrs_after"] - entry["instrs_before"]

    # Vectorizer counters: the kernel has a varying branch, so linearization
    # must report masked activity, and the thread-indexed access a packed form.
    # The psim region is outlined before vectorization, so the recorded
    # functions are the extracted body and its scalar remainder tail.
    names = [v["function"] for v in session.vectorized]
    assert names and all(n.startswith("kernel.psim") for n in names)
    totals = session.vectorizer_totals()
    assert totals["shapes"].get("varying", 0) > 0
    assert totals["shapes"].get("uniform", 0) > 0
    assert sum(totals["mask_ops"].values()) > 0
    assert any(key.startswith(("load.", "store."))
               for key in totals["memory_forms"])

    # VM attribution: one labelled run with per-function hot-spots.
    (run,) = session.vm_runs
    assert run["label"] == "t/parsimony"
    assert run["cycles"] > 0 and run["instructions"] > 0
    assert run["counts"]
    assert run["hotspots"], "no hot-spot attribution recorded"
    top = run["hotspots"][0]
    assert {"function", "exclusive_cycles", "calls"} <= set(top)
    assert sum(h["exclusive_cycles"] for h in run["hotspots"]) == run["cycles"]


def test_json_document_round_trips(tmp_path):
    with telemetry.collect() as session:
        _compile_and_run()
    session.meta["figure"] = "test"

    doc = json.loads(session.to_json())
    assert doc["schema"] == telemetry.SCHEMA
    assert set(doc) >= {"schema", "meta", "passes", "vectorizer", "vm",
                        "compile_cache"}
    assert doc["vectorizer"]["totals"].keys() == {"shapes", "memory_forms",
                                                  "mask_ops"}
    assert {"hits", "misses", "entries"} <= set(doc["compile_cache"])

    path = tmp_path / "telemetry.json"
    session.write(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == doc


def test_diff_documents_reports_deltas_and_union_of_names():
    driver.clear_compile_cache()
    with telemetry.collect() as old_session:
        _compile_and_run()
    driver.clear_compile_cache()
    with telemetry.collect() as new_session:
        _compile_and_run()
        telemetry.record_vm_run(
            "t/extra", Interpreter(driver.compile_parsimony(SRC)).stats, [],
            wall_seconds=0.5,
        )

    old_doc = json.loads(old_session.to_json())
    new_doc = json.loads(new_session.to_json())
    # The old side is a v6 document: it still carries the totals table of
    # the layer v7 dropped.
    retired = "fuse"
    old_doc["schema"] = "repro-telemetry/6"
    old_doc["vm"][f"{retired}_totals"] = {f"vm.{retired}.window": 3}
    diff = telemetry.diff_documents(old_doc, new_doc)

    assert diff["schema"] == telemetry.DIFF_SCHEMA
    assert diff["base_schemas"] == {"old": "repro-telemetry/6",
                                    "new": telemetry.SCHEMA}

    # Identical compiles: per-pass call counts cancel out.
    assert "dce" in diff["passes"]
    assert diff["passes"]["dce"]["calls"]["delta"] == 0

    # The shared run diffs to zero cycles; the extra run appears with the
    # missing side reported as 0 (union-of-names contract).
    shared = diff["vm_runs"]["t/parsimony"]
    assert shared["cycles"]["delta"] == 0
    extra = diff["vm_runs"]["t/extra"]
    assert extra["wall_seconds"] == {"old": 0, "new": 0.5, "delta": 0.5}

    # A counter only the v6 document has shows as removed, not as a crash.
    assert diff["counters"][f"vm.{retired}.window"]["value"] == {
        "old": 3, "new": 0, "delta": -3}
    assert "vm.codegen.calls" in diff["counters"]

    # The diff document itself must be JSON-serialisable (CI artifact).
    json.dumps(diff)


def test_fallback_counter_not_inflated_by_recompiles():
    """Regression (issue 4): while fault plans are armed the driver bypasses
    the compile cache, so recompiling the same source degraded the same
    functions again and ``vectorizer.fallbacks`` double-counted.  The count
    must reflect *distinct* degradations, not compile invocations."""
    from repro.faultinject import FaultPlan, inject

    with inject(FaultPlan(site="vectorize")), telemetry.collect() as session:
        driver.compile_parsimony(SRC, module_name="dedupchk")
        once = [dict(e) for e in session.fallbacks]
        driver.compile_parsimony(SRC, module_name="dedupchk")
    assert once, "forced vectorize fault recorded no fallback"
    assert session.fallbacks == once
    flat = telemetry._flat_counters(json.loads(session.to_json()))
    assert flat["vectorizer.fallbacks"] == len(once)


def test_fallbacks_of_two_kernels_in_one_session_are_both_recorded():
    """Every kernel's SPMD function is ``kernel.psim0``: the dedup key must
    include the module, or a session records only its first kernel's
    degradation (and ``vectorizer.fallbacks`` under-counts)."""
    from repro.faultinject import FaultPlan, inject

    with telemetry.collect() as session:
        with inject(FaultPlan(site="vectorize")):
            driver.compile_parsimony(SRC, module_name="first")
            one = len(session.fallbacks)
            driver.compile_parsimony(SRC, module_name="second")
    assert one and len(session.fallbacks) == 2 * one
    assert {e["module"] for e in session.fallbacks} == {"first", "second"}
    doc = json.loads(session.to_json())
    assert telemetry._flat_counters(doc)["vectorizer.fallbacks"] == 2 * one

    # Diff mode still reads a v7 document (records without ``module``).
    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/7"
    for entry in old["vectorizer"]["fallbacks"]:
        del entry["module"]
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/7",
                                    "new": telemetry.SCHEMA}
    assert diff["counters"]["vectorizer.fallbacks"]["value"]["delta"] == 0


def test_fallbacks_of_two_kernels_under_the_default_name_are_both_recorded():
    """Without ``module_name`` every module is ``parsimony`` and every SPMD
    function ``kernel.psim0``: the identity also digests the function's
    source, so two different kernels that fall back for the same reason
    are two records, and one kernel compiled twice is one."""
    from repro.faultinject import FaultPlan, inject

    other = SRC.replace("(f32)2.0", "(f32)3.0")
    with telemetry.collect() as session:
        with inject(FaultPlan(site="vectorize")):
            driver.compile_parsimony(SRC)
            one = [dict(e) for e in session.fallbacks]
            driver.compile_parsimony(SRC)
            assert session.fallbacks == one
            driver.compile_parsimony(other)
    assert one and len(session.fallbacks) == 2 * len(one)
    for first, second in zip(one, session.fallbacks[len(one):]):
        assert first["module"] == second["module"] == "parsimony"
        assert first["function"] == second["function"]
        assert first["reason"] == second["reason"]
        assert first["source"] != second["source"]
    doc = json.loads(session.to_json())
    assert telemetry._flat_counters(doc)["vectorizer.fallbacks"] == 2 * len(one)


def test_diff_lists_the_retired_tuner_counters_of_a_v8_document():
    """v9 dropped the batch tuner.  A v8 document still carries its event
    list, its totals table and a tuner record per run; diff mode reads it
    and lists the tuner counters as removed."""
    with telemetry.collect() as session:
        _compile_and_run()
    doc = json.loads(session.to_json())
    layer = "auto" "tune"  # the layer v9 retired
    assert layer not in doc["vm"] and f"{layer}_totals" not in doc["vm"]

    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/8"
    old["vm"][layer] = [{"event": "pin", "factor": 8}]
    counts = {"measure": 3, "pin": 1, "deopt": 0}
    old["vm"][f"{layer}_totals"] = {
        f"vm.{layer}.{key}": n for key, n in counts.items()}
    for run in old["vm"]["runs"]:
        run[layer] = {"state": "pinned", "factor": 8}
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/8",
                                    "new": telemetry.SCHEMA}
    removed = {key: entry["value"] for key, entry in diff["counters"].items()
               if key.startswith(f"vm.{layer}.")}
    assert removed == {f"vm.{layer}.{key}": {"old": n, "new": 0, "delta": -n}
                       for key, n in counts.items()}
    assert diff["vm_runs"]["t/parsimony"]["cycles"]["delta"] == 0


def test_diff_lists_the_retired_shard_counters_of_a_v9_document():
    """v10 dropped the sharded executor.  A v9 document still carries a
    ``shard_totals`` table and a ``shard`` record per run; diff mode reads
    it and lists the ``vm.shard.*`` counters as removed."""
    with telemetry.collect() as session:
        _compile_and_run()
    doc = json.loads(session.to_json())
    assert doc["schema"] == telemetry.SCHEMA
    assert "shard_totals" not in doc["vm"]
    assert all("shard" not in run for run in doc["vm"]["runs"])

    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/9"
    counts = {"sharded": 1, "retries": 2, "degraded": 1, "rejected": 0}
    old["vm"]["shard_totals"] = {
        f"vm.shard.{key}": n for key, n in counts.items()}
    for run in old["vm"]["runs"]:
        run["shard"] = {"mode": "sharded", "shards": 4, "retries": 2}
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/9",
                                    "new": telemetry.SCHEMA}
    removed = {key: entry["value"] for key, entry in diff["counters"].items()
               if key.startswith("vm.shard.")}
    assert removed == {f"vm.shard.{key}": {"old": n, "new": 0, "delta": -n}
                       for key, n in counts.items()}
    assert diff["vm_runs"]["t/parsimony"]["cycles"]["delta"] == 0


def test_diff_lists_the_retired_partial_fallbacks_of_a_v10_document():
    """v11 dropped region-granular fallback.  A v10 document still
    carries a ``partial_fallbacks`` record list; diff mode reads it and
    lists its count as removed."""
    with telemetry.collect() as session:
        _compile_and_run()
    doc = json.loads(session.to_json())
    assert doc["schema"] == telemetry.SCHEMA
    assert set(doc["vectorizer"]) == {"functions", "totals", "fallbacks"}

    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/10"
    old["vectorizer"]["partial_fallbacks"] = [
        {"module": "m", "function": "kernel.psim0", "gang_size": 8,
         "regions": [{"reason": {"error": "InjectedFault"}}]}]
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/10",
                                    "new": telemetry.SCHEMA}
    counters = diff["counters"]
    assert counters["vectorizer.partial_fallbacks"]["value"] == {
        "old": 1, "new": 0, "delta": -1}
    assert counters["vectorizer.fallbacks"]["value"]["delta"] == 0
    assert diff["vm_runs"]["t/parsimony"]["cycles"]["delta"] == 0


def test_diff_lists_the_retired_batch_replay_count_of_a_v11_document():
    """v12 counts a replay on a batched module's unbatched twin in
    ``vm.codegen.replays``.  A v11 document still carries
    ``vm.batch.replays`` and a ``replays`` field in each run's ``batch``
    record; diff mode reads it and lists the key as removed."""
    with telemetry.collect() as session:
        _compile_and_run()
        telemetry.record_vm_run(
            "t/batched", ExecStats(), [],
            batch={"factor": 4, "applied": 1, "rejected": 0},
            codegen={"calls": 1, "replays": 1})
    doc = json.loads(session.to_json())
    assert doc["schema"] == "repro-telemetry/12"
    assert doc["vm"]["batch_totals"] == {"vm.batch.applied": 1,
                                         "vm.batch.rejected": 0}
    assert doc["vm"]["codegen_totals"]["vm.codegen.replays"] == 1

    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/11"
    old["vm"]["batch_totals"]["vm.batch.replays"] = 1
    old["vm"]["codegen_totals"]["vm.codegen.replays"] = 0
    for run in old["vm"]["runs"]:
        if "batch" in run:
            run["batch"]["replays"] = 1
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/11",
                                    "new": telemetry.SCHEMA}
    counters = diff["counters"]
    assert counters["vm.batch.replays"]["value"] == {
        "old": 1, "new": 0, "delta": -1}
    assert counters["vm.codegen.replays"]["value"] == {
        "old": 0, "new": 1, "delta": 1}
    assert counters["vm.batch.applied"]["value"]["delta"] == 0


def test_nested_sessions_restore_the_outer_one():
    with telemetry.collect() as outer:
        with telemetry.collect() as inner:
            telemetry.record_pass("dce", "f", 0.001, 5, 4)
        assert telemetry.current() is outer
        assert "dce" in inner.passes and "dce" not in outer.passes
    assert telemetry.current() is None
