"""Golden generated-code digests: the source-level guard beside
``golden_ir_digests.json``.

``golden_codegen_digests.json`` holds, for each of the 79 benchsuite
kernels (7 fig4 + 72 fig5), the sha256 of the Python source the
whole-kernel code generator emits for every function of what
``compile_parsimony`` hands out, on the default machine and cost model.
A change to generated code — a template, a fold, a hoisted binding's
order — moves a digest here, so it shows up in review rather than only
in a diff of two ``--dump-codegen all`` dumps.  The digests do not
depend on ``PYTHONHASHSEED``.

They were recorded when each opcode's value and charge moved into one
per-instruction record (``ops.value_impl`` and ``costmodel.charge_items``),
before that refactor, which left every kernel's source byte-identical.

Regenerate (only when a PR means to change generated code, and says so)::

    PYTHONPATH=src python tests/integration/test_codegen_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import driver
from repro.backend import codegen
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5

GOLDEN = Path(__file__).with_name("golden_codegen_digests.json")
SPECS = list(FIG4) + list(FIG5)


def digests(spec) -> dict:
    """Function name -> sha256 of its generated source (or the bailout
    reason, which no benchsuite kernel has)."""
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    out = {}
    for function in module.functions.values():
        if not function.blocks:
            continue
        try:
            source = codegen.generated_source(
                function, AVX512, DEFAULT_COST_MODEL, module.fingerprint)
        except codegen.CodegenBailout as exc:
            out[function.name] = f"bailout:{exc.reason}"
            continue
        out[function.name] = hashlib.sha256(source.encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_whole_benchsuite(golden):
    assert len(SPECS) == 79
    assert sorted(golden) == sorted(spec.name for spec in SPECS)
    assert not any(digest.startswith("bailout:")
                   for functions in golden.values()
                   for digest in functions.values())


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_generated_source_matches_golden_digest(spec, golden):
    assert digests(spec) == golden[spec.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(
        {spec.name: digests(spec) for spec in SPECS}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {len(SPECS)} digests to {GOLDEN}")
