"""Telemetry sessions: pass timings, vectorizer counters, VM attribution,
and the JSON document the example reports write for CI artifacts."""

import json

import numpy as np

from repro import driver, telemetry
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


def test_partial_fallback_counter_not_inflated_by_recompiles():
    from repro.faultinject import FaultPlan, inject

    def forced_partial():
        # after=1 lands past the region entry block for this kernel, so the
        # failure carries block provenance and the region path engages.
        with inject(FaultPlan(site="vectorize_block", after=1, times=1)):
            driver.compile_parsimony(SRC, module_name="pdedupchk")

    with telemetry.collect() as session:
        forced_partial()
        once = [dict(e) for e in session.partial_fallbacks]
        forced_partial()
    assert once, "vectorize_block fault engaged no partial fallback"
    assert session.partial_fallbacks == once
    flat = telemetry._flat_counters(json.loads(session.to_json()))
    assert flat["vectorizer.partial_fallbacks"] == len(once)


def test_fallbacks_of_two_kernels_in_one_session_are_both_recorded():
    """Every kernel's SPMD function is ``kernel.psim0``: the dedup key must
    include the module, or a session records only its first kernel's
    degradation (and ``vectorizer.fallbacks`` under-counts)."""
    from repro.faultinject import FaultPlan, inject

    def forced_partial(module_name):
        with inject(FaultPlan(site="vectorize_block", after=1, times=1)):
            driver.compile_parsimony(SRC, module_name=module_name)

    with telemetry.collect() as session:
        with inject(FaultPlan(site="vectorize")):
            driver.compile_parsimony(SRC, module_name="first")
            one = len(session.fallbacks)
            driver.compile_parsimony(SRC, module_name="second")
        forced_partial("first")
        one_partial = len(session.partial_fallbacks)
        forced_partial("second")
    assert one and len(session.fallbacks) == 2 * one
    assert {e["module"] for e in session.fallbacks} == {"first", "second"}
    assert one_partial and len(session.partial_fallbacks) == 2 * one_partial
    assert {e["module"] for e in session.partial_fallbacks} == {
        "first", "second"}
    doc = json.loads(session.to_json())
    assert telemetry._flat_counters(doc)["vectorizer.fallbacks"] == 2 * one

    # Diff mode still reads a v7 document (records without ``module``).
    old = json.loads(session.to_json())
    old["schema"] = "repro-telemetry/7"
    for entry in (old["vectorizer"]["fallbacks"]
                  + old["vectorizer"]["partial_fallbacks"]):
        del entry["module"]
    diff = telemetry.diff_documents(old, doc)
    assert diff["base_schemas"] == {"old": "repro-telemetry/7",
                                    "new": telemetry.SCHEMA}
    assert diff["counters"]["vectorizer.fallbacks"]["value"]["delta"] == 0


def test_nested_sessions_restore_the_outer_one():
    with telemetry.collect() as outer:
        with telemetry.collect() as inner:
            telemetry.record_pass("dce", "f", 0.001, 5, 4)
        assert telemetry.current() is outer
        assert "dce" in inner.passes and "dce" not in outer.passes
    assert telemetry.current() is None
