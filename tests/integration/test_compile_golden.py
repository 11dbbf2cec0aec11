"""Golden IR digests: the IR-level guard behind "nothing may move a
cost-model number".

``golden_ir_digests.json`` holds, for each of the 79 benchsuite kernels
(7 fig4 + 72 fig5), the sha256 of ``print_module`` of what
``compile_parsimony`` hands out and of the kernel's unbatched trap-replay
twin (``null`` where gang batching rejected the kernel and there is no
twin).  It was generated at the commit *before* the compile miss path was
reworked, when the twin was an eager ``clone_module`` stashed in
``module.attrs["batch_fallback"]``; the twin this tree compiles lazily
must hash to the same bytes.  (That commit iterated four address-hashed
block sets while naming and emitting IR — ``Loop.exiting_blocks`` /
``exit_blocks``, LICM's hoist order, mem2reg's phi placement, the
vectorizer's exit edges and escaping values — so 16–19 of the 79 kernels
printed differently from run to run; the digests are of that commit with
those walks put in function/RPO order, which is what made a golden file
possible at all.)

Regenerate (only when a PR means to change compiled IR, and says so)::

    PYTHONPATH=src python tests/integration/test_compile_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import driver
from repro.backend.batch import unbatched_twin
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.ir.module import Module
from repro.ir.printer import print_module

GOLDEN = Path(__file__).with_name("golden_ir_digests.json")
SPECS = list(FIG4) + list(FIG5)


def _sha(module: Module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def digests(spec) -> dict:
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    twin = unbatched_twin(module)
    return {"module": _sha(module), "twin": None if twin is None else _sha(twin)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_whole_benchsuite(golden):
    assert len(SPECS) == 79
    assert sorted(golden) == sorted(spec.name for spec in SPECS)
    # 46 of the 72 fig5 kernels batch (the bench's batch.applied row).
    assert sum(golden[s.name]["twin"] is not None for s in FIG5) == 46


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_compiled_ir_matches_golden_digest(spec, golden):
    driver.clear_compile_cache()
    got = digests(spec)
    assert got == golden[spec.name]
    if got["twin"] is not None:
        # The recipe claim, checked directly: the twin is the
        # ``batch_request=0`` build.
        unbatched = driver.compile_parsimony(
            spec.psim_src, module_name=f"{spec.name}.parsimony",
            batch_request=0)
        assert _sha(unbatched) == got["twin"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {spec.name: digests(spec) for spec in SPECS}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {len(SPECS)} digests to {GOLDEN}")
