"""Persistent on-disk compile cache: round-trip fidelity, version/toolchain
keying, and the corruption-tolerance contract (a damaged entry must fall
back to recompilation, never fail the compile).  The autotune profile
store (issue 6) lives alongside the cache and shares its persistence
contract: pins measured in one process must drive compiles in the next."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import autotune, diskcache, driver
from repro.runtime.mathlib import rehydrate_external
from repro.vm import Interpreter

SRC = """
void kernel(f32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = pow(a[i], 2.0f) + exp(a[i] * 0.01f);
    }
}
"""


@pytest.fixture(autouse=True)
def disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    driver.clear_compile_cache()
    yield tmp_path
    diskcache.set_enabled(None)
    diskcache.reset_stats()
    driver.clear_compile_cache()


def _run(module):
    interp = Interpreter(module)
    a = np.linspace(0.5, 4.0, 8, dtype=np.float32)
    addr = interp.memory.alloc_array(a)
    interp.run("kernel", addr, a.size)
    return interp.memory.read_array(addr, np.float32, a.size), interp.stats.cycles


def test_disk_round_trip_is_bit_identical(disk_cache):
    reference = driver.compile_parsimony(SRC)
    assert diskcache.stats()["writes"] == 1

    # A "new process": the in-memory layer is empty, the disk layer isn't.
    driver.clear_compile_cache()
    rehydrated = driver.compile_parsimony(SRC)
    assert diskcache.stats()["hits"] == 1

    out_ref, cycles_ref = _run(reference)
    out_disk, cycles_disk = _run(rehydrated)
    np.testing.assert_array_equal(out_ref, out_disk)
    assert cycles_ref == cycles_disk


def test_disabled_disk_layer_never_touches_disk(disk_cache):
    diskcache.set_enabled(False)
    driver.compile_parsimony(SRC)
    assert diskcache.stats() == {"hits": 0, "misses": 0, "writes": 0, "errors": 0}
    assert list(disk_cache.glob("*.pkl")) == []


def test_corrupt_entry_falls_back_to_recompile(disk_cache):
    driver.compile_parsimony(SRC)
    (entry,) = disk_cache.glob("*.pkl")
    entry.write_bytes(b"\x80\x04 this is not a module")

    driver.clear_compile_cache()
    diskcache.reset_stats()
    module = driver.compile_parsimony(SRC)  # must not raise
    stats = diskcache.stats()
    assert stats["errors"] == 1 and stats["hits"] == 0
    # The corrupt blob was dropped and the recompile re-stored a good one.
    assert stats["writes"] == 1
    driver.clear_compile_cache()
    diskcache.reset_stats()
    driver.compile_parsimony(SRC)
    assert diskcache.stats()["hits"] == 1
    out, _ = _run(module)
    assert np.isfinite(out).all()


def test_version_bump_misses_old_entries(disk_cache, monkeypatch):
    driver.compile_parsimony(SRC)
    driver.clear_compile_cache()
    diskcache.reset_stats()
    monkeypatch.setattr(diskcache, "CACHE_VERSION", diskcache.CACHE_VERSION + 1)
    driver.compile_parsimony(SRC)
    stats = diskcache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 1 and stats["writes"] == 1


def test_memory_layer_shields_disk_layer(disk_cache):
    driver.compile_parsimony(SRC)
    diskcache.reset_stats()
    driver.compile_parsimony(SRC)  # in-memory hit
    assert diskcache.stats() == {"hits": 0, "misses": 0, "writes": 0, "errors": 0}


def test_faultinject_bypasses_disk_layer(disk_cache):
    from repro import faultinject

    with faultinject.inject(faultinject.FaultPlan(site="vectorize")):
        driver.compile_parsimony(SRC)
    assert diskcache.stats() == {"hits": 0, "misses": 0, "writes": 0, "errors": 0}


def test_batch_configuration_is_part_of_the_key(disk_cache, monkeypatch):
    """Regression: a cached unbatched module must never be rehydrated into
    a batched run (or vice versa) — the batch request is part of both the
    in-memory and the on-disk cache key."""
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = driver.compile_parsimony(SRC)
    assert "batch_factor" not in unbatched.attrs
    assert diskcache.stats()["writes"] == 1

    # Same source, batching re-enabled, fresh "process": the unbatched disk
    # entry must miss and a batched module must be compiled and stored.
    monkeypatch.delenv("REPRO_NO_BATCH")
    driver.clear_compile_cache()
    diskcache.reset_stats()
    batched = driver.compile_parsimony(SRC)
    assert batched.attrs.get("batch_applied"), batched.attrs.get("batch_rejected")
    stats = diskcache.stats()
    assert stats["hits"] == 0 and stats["writes"] == 1, stats

    # Each configuration rehydrates from its own entry and stays itself.
    driver.clear_compile_cache()
    diskcache.reset_stats()
    again = driver.compile_parsimony(SRC)
    assert diskcache.stats()["hits"] == 1
    assert again.attrs.get("batch_applied")
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    driver.clear_compile_cache()
    again = driver.compile_parsimony(SRC)
    assert diskcache.stats()["hits"] == 2
    assert "batch_factor" not in again.attrs

    out_u, cycles_u = _run(unbatched)
    out_b, cycles_b = _run(batched)
    np.testing.assert_array_equal(out_u, out_b)
    assert cycles_u == cycles_b


def test_forced_batch_factor_is_part_of_the_key(disk_cache, monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "2")
    forced = driver.compile_parsimony(SRC)
    driver.clear_compile_cache()
    diskcache.reset_stats()
    monkeypatch.setenv("REPRO_BATCH", "4")
    other = driver.compile_parsimony(SRC)
    stats = diskcache.stats()
    assert stats["hits"] == 0 and stats["writes"] == 1, stats
    assert forced.attrs.get("batch_factor") != other.attrs.get("batch_factor")


# ---------------------------------------------------------------------------
# autotune profile store (issue 6): pins persist across processes
# ---------------------------------------------------------------------------

#: One telemetered autotuned run of the regression kernel (stencil), its
#: ExecStats and output digest printed as JSON.  First process: sweep +
#: pin; second process: rehydrate the pin from disk.
_SWEEP_SCRIPT = """
import hashlib, json
import numpy as np
from repro import telemetry
from repro.benchsuite import run_impl
from repro.benchsuite.ispc_suite import BENCHMARKS

spec = {s.name: s for s in BENCHMARKS}["stencil"]
with telemetry.collect() as session:
    result = run_impl(spec, "parsimony")
run = session.vm_runs[-1]
digest = hashlib.sha256(
    b"".join(np.ascontiguousarray(o).tobytes() for o in result.outputs)
).hexdigest()
print(json.dumps({
    "autotune": run["autotune"],
    "cycles": result.stats.cycles,
    "instructions": result.stats.instructions,
    "counts": sorted(dict(result.stats.counts).items()),
    "out": digest,
}))
"""


def _autotuned_run_in_subprocess(cache_dir):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_AUTOTUNE"] = "1"
    env["REPRO_AUTOTUNE_REPS"] = "1"
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env.pop("REPRO_NO_BATCH", None)
    env.pop("REPRO_BATCH", None)
    proc = subprocess.run([sys.executable, "-c", _SWEEP_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_autotune_pin_survives_process_restart(disk_cache):
    """Issue-6 acceptance: measure in one process, rehydrate the pin in a
    second one, with outputs and ExecStats bitwise identical across both."""
    first = _autotuned_run_in_subprocess(disk_cache)
    assert first["autotune"]["state"] == "measured"
    assert len(first["autotune"]["measured"]) >= 2

    entries = list((disk_cache / "autotune").glob("*.json"))
    assert entries, "measurement sweep persisted no profile entry"

    second = _autotuned_run_in_subprocess(disk_cache)
    assert second["autotune"]["state"] == "pinned", second["autotune"]
    assert second["autotune"]["factor"] == first["autotune"]["factor"]
    assert second["autotune"]["request"] == first["autotune"]["request"]

    # The accounting-transparency contract across the process boundary.
    assert second["out"] == first["out"]
    assert second["cycles"] == first["cycles"]
    assert second["instructions"] == first["instructions"]
    assert second["counts"] == first["counts"]

    # This (third) process reads the same store.
    from repro.benchsuite.ispc_suite import BENCHMARKS

    spec = {s.name: s for s in BENCHMARKS}["stencil"]
    dec = autotune.decision(autotune.fingerprint(spec.psim_src),
                            autotune.engine_config())
    assert dec["state"] == "pinned"
    assert dec["factor"] == first["autotune"]["factor"]


def test_pinned_request_drives_compiles(disk_cache, monkeypatch):
    """A pin is consulted at *compile* time — any compile_parsimony caller
    lands on the measured configuration — and an explicit REPRO_NO_BATCH /
    REPRO_BATCH override always beats the tuner."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    fp = autotune.fingerprint(SRC)
    engine = autotune.engine_config()
    autotune.pin(fp, engine, 2, 0.001, {1: 0.010, 2: 0.001}, request=2)

    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    pinned = driver.compile_parsimony(SRC)
    assert pinned.attrs.get("batch_factor") == 2

    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    driver.clear_compile_cache()
    overridden = driver.compile_parsimony(SRC)
    assert "batch_factor" not in overridden.attrs
    monkeypatch.delenv("REPRO_NO_BATCH")

    # Without the opt-in, the pin is dormant and the cost model decides.
    monkeypatch.delenv("REPRO_AUTOTUNE")
    driver.clear_compile_cache()
    static = driver.compile_parsimony(SRC)
    assert static.attrs.get("batch_factor", 1) != 2

    out_p, cycles_p = _run(pinned)
    out_o, cycles_o = _run(overridden)
    out_s, cycles_s = _run(static)
    np.testing.assert_array_equal(out_p, out_o)
    np.testing.assert_array_equal(out_p, out_s)
    assert cycles_p == cycles_o == cycles_s


def test_rehydrate_external_names():
    scalar = rehydrate_external("ml.exp.f32")
    assert scalar.name == "ml.exp.f32"
    assert scalar.impl(1.0) == pytest.approx(np.exp(np.float32(1.0)), rel=1e-6)

    vector = rehydrate_external("ml.sleef.pow.f32x16")
    assert vector.name == "ml.sleef.pow.f32x16"
    a = np.full(16, 2.0, dtype=np.float32)
    np.testing.assert_array_equal(vector.impl(a, a), a * a)

    with pytest.raises(KeyError):
        rehydrate_external("psim.lane_num")
    with pytest.raises(KeyError):
        rehydrate_external("ml.nosuchfn.f32")


def test_module_pickle_preserves_external_identity(disk_cache):
    module = driver.compile_parsimony(SRC)
    blob = diskcache._dumps(module)
    loaded = diskcache._loads(blob)
    # A frozen module pickles as its mutable form (same on-disk format).
    assert module.frozen and not loaded.frozen
    assert "unbatched_recipe" in loaded.attrs  # the twin's recipe, not a twin
    assert type(loaded.functions["kernel"].blocks) is list
    exts = {
        name: ext for name, ext in loaded.externals.items()
        if name.startswith("ml.")
    }
    assert exts, "expected math externals in the vectorized module"
    for name, ext in exts.items():
        assert callable(ext.impl), name
    # Call operands must reference the same rehydrated objects that sit in
    # module.externals (persistent_load memoizes per unpickle).
    for function in loaded.functions.values():
        for block in function.blocks:
            for instr in block.instructions:
                if instr.opcode != "call":
                    continue
                callee = instr.operands[0]
                if getattr(callee, "name", "").startswith("ml."):
                    assert callee is loaded.externals[callee.name]
