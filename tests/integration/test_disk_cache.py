"""Persistent on-disk compile cache: round-trip fidelity, toolchain
keying by content, and the corruption-tolerance contract (a damaged
entry must fall back to recompilation, never fail the compile)."""

import os

import numpy as np
import pytest

from repro import diskcache, driver
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


def test_toolchain_digest_reads_bytes_not_sizes_and_mtimes(tmp_path):
    """Two trees alike in every file's size and mtime — what ``tar x``,
    ``cp -p`` and ``rsync -a`` leave — but one byte apart must not share
    cache keys."""
    trees = []
    for byte in (b"1", b"2"):
        root = tmp_path / byte.decode()
        (root / "pkg").mkdir(parents=True)
        for name, data in (("a.py", b"X = 1\n"), ("pkg/b.py", b"Y = " + byte)):
            path = root / name
            path.write_bytes(data)
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        trees.append(root)
    stats = [[(p.stat().st_size, p.stat().st_mtime_ns)
              for p in sorted(root.rglob("*.py"))] for root in trees]
    assert stats[0] == stats[1]
    assert diskcache._tree_digest(trees[0]) != diskcache._tree_digest(trees[1])


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


def test_batch_configuration_is_part_of_the_key(disk_cache):
    """Regression: a cached unbatched module must never be rehydrated into
    a batched run (or vice versa) — the batch request is part of both the
    in-memory and the on-disk cache key."""
    unbatched = driver.compile_parsimony(SRC, batch_request=0)
    assert "batch_factor" not in unbatched.attrs
    assert diskcache.stats()["writes"] == 1

    # Same source, batching re-enabled, fresh "process": the unbatched disk
    # entry must miss and a batched module must be compiled and stored.
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
    driver.clear_compile_cache()
    again = driver.compile_parsimony(SRC, batch_request=0)
    assert diskcache.stats()["hits"] == 2
    assert "batch_factor" not in again.attrs

    out_u, cycles_u = _run(unbatched)
    out_b, cycles_b = _run(batched)
    np.testing.assert_array_equal(out_u, out_b)
    assert cycles_u == cycles_b


def test_forced_batch_factor_is_part_of_the_key(disk_cache):
    forced = driver.compile_parsimony(SRC, batch_request=2)
    driver.clear_compile_cache()
    diskcache.reset_stats()
    other = driver.compile_parsimony(SRC, batch_request=4)
    stats = diskcache.stats()
    assert stats["hits"] == 0 and stats["writes"] == 1, stats
    assert forced.attrs.get("batch_factor") != other.attrs.get("batch_factor")


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
