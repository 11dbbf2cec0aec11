"""Concurrent multi-writer hardening of the on-disk compile cache.

Many processes hit the same disk-cache entries at once (each compiling
the same source with ``REPRO_DISK_CACHE`` on).  The contract: concurrent
writers never observe a torn entry; corrupt entries are recorded and
survived, not fatal.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro import diskcache
from repro.driver import compile_parsimony

_SRC = Path(__file__).resolve().parents[2] / "src"

_KERNEL = """
void kernel(f32* out, u64 n) {
    psim (gang_size=4, num_threads=n) {
        u64 i = psim_get_thread_num();
        out[i] = (f32)i * 2.0f;
    }
}
"""

_WRITERS = 6


def _spawn_children(tmp_path, body):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["REPRO_DISK_CACHE"] = "1"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", body.replace("@WRITER@", str(writer))],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for writer in range(_WRITERS)
    ]
    failures = []
    for writer, proc in enumerate(procs):
        out, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures.append(f"writer {writer}: {err.decode()[-500:]}")
    assert not failures, "\n".join(failures)


def test_diskcache_concurrent_compile_store_load(tmp_path, monkeypatch):
    """N processes concurrently compile+store+reload the same kernel; the
    parent must then get a clean disk hit (atomic replace, no torn
    entries)."""
    body = (
        "from repro.driver import compile_parsimony\n"
        f"src = {_KERNEL!r}\n"
        "for _ in range(3):\n"
        "    module = compile_parsimony(src, module_name='stress@WRITER@')\n"
        "    assert module.get('kernel') is not None\n"
    )
    _spawn_children(tmp_path, body)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    try:
        module = compile_parsimony(_KERNEL, module_name="stress0")
        assert module.get("kernel") is not None
        assert diskcache.stats()["hits"] >= 1, diskcache.stats()
    finally:
        diskcache.set_enabled(None)


def test_corrupt_entries_are_recorded_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    # Disk cache: a scribbled pickle is dropped and the compile succeeds.
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    try:
        compile_parsimony(_KERNEL, module_name="corrupt")
        pkls = list(Path(tmp_path).glob("*.pkl"))
        assert pkls, "store must have written an entry"
        for pkl in pkls:
            pkl.write_bytes(b"garbage")
        module = compile_parsimony(_KERNEL + "\n// cachebuster",
                                   module_name="corrupt")
        assert module.get("kernel") is not None
        corrupted = compile_parsimony(_KERNEL, module_name="corrupt2")
        assert corrupted.get("kernel") is not None
    finally:
        diskcache.set_enabled(None)

