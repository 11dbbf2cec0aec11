"""The trap-replay twin is compiled on the first trap, not on every miss.

A batched module carries the *recipe* for its unbatched twin
(``module.attrs["unbatched_recipe"]``, the same compile with batching
off); ``repro.backend.batch.unbatched_twin`` runs it the first time a
launch traps and hangs the frozen result off the batched module.  The
replay contract is unchanged: a trap inside a batched chunk reproduces
the unbatched engine's trap, ``ExecStats`` and memory effects exactly —
here for a budget trap and an out-of-bounds trap, on a fresh hand-out,
after the compile cache was cleared, on a ``clone_module`` copy, and on a
module a second process rehydrated from the disk cache.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import diskcache, driver
from repro.backend.batch import unbatched_twin
from repro.diagnostics import ExecutionError
from repro.ir.printer import print_module
from repro.passes import clone_module
from repro.vm import Interpreter, Memory

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: Divergent per-lane loop, so a trap lands inside a batched chunk with
#: live activity masks (the kernel ``tests/vm/test_batching.py`` uses).
SRC = """
void kernel(f32* a, f32* out, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        f32 x = a[i];
        f32 acc = 0.0f;
        i32 k = 0;
        i32 lim = (i32)(i % 17ul) + 3;
        while (k < lim) {
            acc = acc + x * 0.25f + (f32)k;
            k = k + 1;
        }
        out[i] = acc;
    }
}
"""
N = 256

#: ``budget``: the instruction budget runs out mid-stream.  ``oob``: the
#: memory image ends 100 elements into ``out`` (allocation starts at 64),
#: so a store walks off it.
TRAPS = {
    "budget": dict(max_instructions=4000),
    "oob": dict(memory_bytes=64 + N * 4 + 400),
}


def run_trapping(module, max_instructions=500_000_000, memory_bytes=1 << 22):
    """One launch; everything the replay contract promises, as plain data."""
    interp = Interpreter(module, max_instructions=max_instructions,
                         memory=Memory(memory_bytes))
    rng = np.random.default_rng(7)
    a = interp.memory.alloc_array(rng.random(N, dtype=np.float32))
    out = interp.memory.alloc(min(N * 4, memory_bytes - interp.memory.extent - 64))
    trap = None
    try:
        interp.run("kernel", a, out, N)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    image = interp.memory.read_array(a, np.uint8, interp.memory.extent - a)
    return {
        "trap": trap,
        "cycles": interp.stats.cycles,
        "instructions": interp.stats.instructions,
        "counts": dict(sorted(interp.stats.counts.items())),
        "memory": hashlib.sha256(image.tobytes()).hexdigest(),
        "batch_replays": interp.batch_replays,
    }


def expect(kind):
    """What the unbatched build does: the twin must reproduce all of it."""
    reference = driver.compile_parsimony(SRC, batch_request=0)
    assert "unbatched_recipe" not in reference.attrs
    want = run_trapping(reference, **TRAPS[kind])
    assert want["trap"] is not None and want["batch_replays"] == 0
    return dict(want, batch_replays=1)


@pytest.fixture(autouse=True)
def cold_cache():
    driver.clear_compile_cache()
    yield
    driver.clear_compile_cache()


@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_trap_in_a_batched_chunk_replays_on_the_lazy_twin(kind):
    want = expect(kind)
    batched = driver.compile_parsimony(SRC)
    assert batched.attrs["batch_applied"] and batched._unbatched_twin is None

    # A launch that completes never builds the twin ...
    clean = run_trapping(batched)
    assert clean["trap"] is None and clean["batch_replays"] == 0
    assert batched._unbatched_twin is None
    # ... the first trap does, once, and later traps reuse it.
    assert run_trapping(batched, **TRAPS[kind]) == want
    twin = batched._unbatched_twin
    assert twin is not None and twin.frozen
    assert run_trapping(batched, **TRAPS[kind]) == want
    assert unbatched_twin(batched) is twin


@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_twin_needs_no_compile_cache_and_takes_no_slot(kind):
    want = expect(kind)
    batched = driver.compile_parsimony(SRC)
    driver.clear_compile_cache()
    assert run_trapping(batched, **TRAPS[kind]) == want
    assert driver.compile_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_twin_is_the_unbatched_build_and_dies_with_its_module():
    batched = driver.compile_parsimony(SRC)
    twin = unbatched_twin(batched)
    unbatched = driver.compile_parsimony(SRC, batch_request=0)
    assert twin is not unbatched
    assert print_module(twin) == print_module(unbatched)
    assert unbatched_twin(unbatched) is None

    alive = weakref.ref(twin)
    driver.clear_compile_cache()
    del batched, twin, unbatched
    gc.collect()
    assert alive() is None


def test_clone_of_a_handout_carries_the_recipe_not_the_twin():
    want = expect("budget")
    batched = driver.compile_parsimony(SRC)
    assert unbatched_twin(batched) is not None
    clone = clone_module(batched)
    assert clone._unbatched_twin is None
    assert clone.attrs["unbatched_recipe"] is batched.attrs["unbatched_recipe"]
    assert run_trapping(clone, **TRAPS["budget"]) == want
    assert clone._unbatched_twin is not batched._unbatched_twin


# -- across processes, through the disk cache ---------------------------------

_SCRIPT = """
import json, sys
sys.path.insert(0, {tests_vm!r})
from test_lazy_twin import SRC, TRAPS, run_trapping
from repro import diskcache, driver
module = driver.compile_parsimony(SRC)
print(json.dumps({{
    "disk": diskcache.stats(),
    "runs": {{kind: run_trapping(module, **TRAPS[kind]) for kind in sorted(TRAPS)}},
}}))
"""


def test_rehydrated_module_replays_in_a_second_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT), REPRO_DISK_CACHE="1",
               REPRO_CACHE_DIR=str(tmp_path))
    script = _SCRIPT.format(tests_vm=str(Path(__file__).parent))
    docs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = docs
    assert first["disk"]["writes"] == 1 and first["disk"]["hits"] == 0
    # The second process compiled nothing: it read the batched module from
    # disk — and the twin it then built from the recipe was never stored.
    assert second["disk"]["hits"] == 1 and second["disk"]["writes"] == 0
    assert len(list(tmp_path.glob("*.pkl"))) == 1
    for kind in TRAPS:
        assert first["runs"][kind] == second["runs"][kind] == expect(kind)


# -- CACHE_VERSION 4 -> 5: the pickled entry lost the twin ---------------------


def _v4_payload():
    """What the previous format stored for ``SRC``: the batched module
    with its unbatched twin pickled inside ``attrs`` and no recipe."""
    batched = clone_module(driver.compile_parsimony(SRC))
    del batched.attrs["unbatched_recipe"]
    batched.attrs["batch_fallback"] = clone_module(
        driver.compile_parsimony(SRC, batch_request=0))
    return batched


def test_v4_disk_entry_is_ignored_not_misread(tmp_path, monkeypatch):
    current = diskcache.CACHE_VERSION
    assert current >= 5
    old = _v4_payload()
    driver.clear_compile_cache()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    try:
        key = ("parsimony", SRC, "parsimony", None, False, ("batch", None))

        # Stored by a v4 toolchain: filed under a digest v5 never asks for.
        monkeypatch.setattr(diskcache, "CACHE_VERSION", 4)
        diskcache.store(key, old)
        (v4_entry,) = tmp_path.glob("*.pkl")
        monkeypatch.setattr(diskcache, "CACHE_VERSION", current)
        diskcache.reset_stats()
        module = driver.compile_parsimony(SRC)
        assert diskcache.stats() == {
            "hits": 0, "misses": 1, "writes": 1, "errors": 0}
        assert "batch_fallback" not in module.attrs
        (v5_entry,) = set(tmp_path.glob("*.pkl")) - {v4_entry}

        # And were its bytes to turn up under the v5 name anyway, the
        # version stamp inside refuses them: dropped and recompiled, never
        # handed out as a batched module with no way to its twin.
        v5_entry.write_bytes(v4_entry.read_bytes())
        driver.clear_compile_cache()
        diskcache.reset_stats()
        module = driver.compile_parsimony(SRC)
        stats = diskcache.stats()
        assert stats["errors"] == 1 and stats["hits"] == 0 and stats["writes"] == 1
        assert "unbatched_recipe" in module.attrs
        assert run_trapping(module, **TRAPS["budget"]) == expect("budget")
    finally:
        diskcache.set_enabled(None)
        diskcache.reset_stats()
