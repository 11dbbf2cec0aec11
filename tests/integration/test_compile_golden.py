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
possible at all.)  They were re-recorded once since, when cleanup began
deleting the re-inlined SPMD functions: each of the 135 functions that
survive printed byte-identically before and after, and 524 were removed.
And once more when gang batching learned the gang-local horizontal ops:
exactly the 21 fig5 kernels that began to batch changed, each new twin
hashing to the kernel's old (unbatched) digest.  And once more when the
remainder loop gave way to a predicated last trip (with a ``batch.exit``
block, tiles in the preheader, private storage expanded per gang, and
stencil's nested gang loop at B=4 under a 64-lane cap): the 74 batched
kernels' module digests changed, no twin digest moved, and
``binomial_options``' new twin hashes to its old module digest.  And once
more when row nests collapsed into the gang trip (the outer blocks and
the widened tail annotated, the tail's accesses ``row_stride row``, every
nested gang loop at the cost model's factor): exactly the 15 nested
kernels' module digests changed — stencil and the 14 fig5 row filters —
and no twin digest moved.  And once more when serialized atomics began
to batch as one scatter-add per trip: exactly the two histograms
changed, each new twin hashing to the kernel's old module digest.  And
once more when one lane target of 1024 replaced the two targets (256
lanes for a body with a loop, 512 for a straight-line one): exactly the
76 batched kernels' module digests changed, to their wider factor, and
no twin digest moved.

``golden_autovec_digests.json`` holds, for the same 79 kernels, the
sha256 of ``print_module`` of ``compile_autovec`` over the kernel's
scalar source (the baseline the figures normalize against), recorded
before the auto-vectorizer's dependence test became the one lockstep test
it shares with gang batching (``backend.lockstep``).

Regenerate (only when a PR means to change compiled IR, and says so)::

    PYTHONPATH=src python tests/integration/test_compile_golden.py --write
    PYTHONPATH=src python tests/integration/test_compile_golden.py --write-autovec
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import driver
from repro.backend import AVX512
from repro.backend.batch import unbatched_twin
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.ir.module import Module
from repro.ir.printer import print_module

GOLDEN = Path(__file__).with_name("golden_ir_digests.json")
AUTOVEC = Path(__file__).with_name("golden_autovec_digests.json")
SPECS = list(FIG4) + list(FIG5)


def _sha(module: Module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def digests(spec) -> dict:
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    twin = unbatched_twin(module)
    return {"module": _sha(module), "twin": None if twin is None else _sha(twin)}


def autovec_digest(spec) -> str:
    return _sha(driver.compile_autovec(spec.scalar_src, AVX512,
                                       f"{spec.name}.autovec"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_whole_benchsuite(golden):
    assert len(SPECS) == 79
    assert sorted(golden) == sorted(spec.name for spec in SPECS)
    # 69 of the 72 fig5 kernels batch (the bench's batch.applied row).
    assert sum(golden[s.name]["twin"] is not None for s in FIG5) == 69


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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_autovec_ir_matches_golden_digest(spec):
    driver.clear_compile_cache()
    assert autovec_digest(spec) == json.loads(AUTOVEC.read_text())[spec.name]


if __name__ == "__main__":
    writers = {"--write": (GOLDEN, digests),
               "--write-autovec": (AUTOVEC, autovec_digest)}
    if len(sys.argv) != 2 or sys.argv[1] not in writers:
        sys.exit(__doc__)
    path, digest = writers[sys.argv[1]]
    path.write_text(json.dumps(
        {spec.name: digest(spec) for spec in SPECS}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {len(SPECS)} digests to {path}")
