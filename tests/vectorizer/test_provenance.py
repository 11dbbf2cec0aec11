"""What a compile records about its SPMD functions outlives the functions.

Cleanup deletes the outlined region functions once they are re-inlined,
so whatever the Parsimony pass stamped on them — a whole-function
fallback's reason, the racy-uniform-store warning — moves to the
module's provenance record.  The contract:
``repro.vectorizer.parsimony_records`` answers the same right after
cleanup deleted the functions, after ``freeze()``, and after the module
went through the disk cache into a second process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import diskcache
from repro.benchsuite.ispc_suite import BY_NAME
from repro.driver import post_vectorize_cleanup
from repro.faultinject import FaultPlan, inject
from repro.frontend import compile_source
from repro.passes import standard_pipeline
from repro.vectorizer import parsimony_records, vectorize_module

MANDELBROT = BY_NAME["mandelbrot"].psim_src

RACY = """
void kernel(u32* a, u32* out, u64 n) {
    psim (gang_size=16, num_threads=n) {
        u64 i = psim_get_thread_num();
        out[0] = a[i];
    }
}
"""


def _cleaned(source, plan=None):
    """A module right after cleanup re-inlined and deleted its SPMD
    functions — not yet verified or frozen."""
    module = compile_source(source, "provenance")
    standard_pipeline().run(module)
    if plan is None:
        vectorize_module(module)
    else:
        with inject(plan):
            vectorize_module(module)
    post_vectorize_cleanup(module)
    return module


def _canonical(module):
    return json.dumps(parsimony_records(module), sort_keys=True, default=repr)


_CHILD = """
import json, sys
from repro import diskcache
from repro.vectorizer import parsimony_records
module = diskcache.load(("provenance", sys.argv[1]))
assert module is not None, "entry did not rehydrate"
print(json.dumps(parsimony_records(module), sort_keys=True, default=repr))
"""


def _records_in_second_process(module, tag, cache_dir):
    diskcache.store(("provenance", tag), module)
    env = dict(os.environ, REPRO_DISK_CACHE="1", REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, tag],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    yield tmp_path
    diskcache.set_enabled(None)


def _whole(records):
    assert {"kernel.psim0", "kernel.psim0.tail"} <= set(records)
    for name in ("kernel.psim0", "kernel.psim0.tail"):
        assert records[name]["parsimony_fallback"]["error"] == "InjectedFault"


def _racy(records):
    warnings = [w for r in records.values() for w in r.get("parsimony_warnings", ())]
    assert any("racy" in w for w in warnings)


@pytest.mark.parametrize("case", ["whole", "racy"])
def test_provenance_survives_deletion_freeze_and_rehydration(case, disk_cache):
    if case == "whole":
        module, check = _cleaned(MANDELBROT, FaultPlan(site="vectorize")), _whole
    else:
        module, check = _cleaned(RACY), _racy

    # After deletion: the SPMD functions are gone, their records are not.
    assert not any(".psim" in name for name in module.functions)
    check(parsimony_records(module))
    before = _canonical(module)

    module.freeze()
    check(parsimony_records(module))
    assert _canonical(module) == before

    assert _records_in_second_process(module, case, disk_cache) == before
