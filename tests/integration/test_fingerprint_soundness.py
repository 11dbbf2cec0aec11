"""The compile fingerprint is a sound key for generated code.

``codegen.lower_function`` caches a kernel's bound code under its
module's compile key (``Module.fingerprint``), so a recompile of the same
key reuses code emitted from an earlier build's IR.  That is sound only
if the key fixes the IR *and* the emitted source, whatever else the
process compiled before: each of the 79 fig4/fig5 Parsimony builds is
compiled twice here — with every cache cleared in between and the suite
compiled in the opposite order the second time — and must print
byte-identical IR and emit byte-identical source.  The second pass
compiles under other module names, which the fingerprint leaves out: only
the module's name line may differ.  And because the cache is
process-global, the bound code must reference no IR object.
"""

import types

import numpy as np
import pytest

from repro import driver
from repro.backend import codegen
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.ir.printer import print_module
from repro.ir.values import Value

SPECS = list(FIG4) + list(FIG5)


def _build(spec, suffix="parsimony"):
    """(printed IR, {function: emitted source}, fingerprint) of one build
    under module name ``NAME.suffix``; the source is emitted afresh (no
    fingerprint), not read from the cache."""
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.{suffix}")
    sources = {
        f.name: codegen.generated_source(f, AVX512, DEFAULT_COST_MODEL)
        for f in module.functions.values() if f.blocks}
    return print_module(module), sources, module.fingerprint


@pytest.fixture(scope="module")
def two_builds():
    driver.clear_compile_cache()
    first = {spec.name: _build(spec) for spec in SPECS}
    driver.clear_compile_cache()
    second = {spec.name: _build(spec, "again") for spec in reversed(SPECS)}
    driver.clear_compile_cache()
    return first, second


def test_both_passes_cover_the_suite(two_builds):
    assert len(SPECS) == 79
    first, second = two_builds
    assert sorted(first) == sorted(second) == sorted(s.name for s in SPECS)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_one_fingerprint_one_ir_one_source(spec, two_builds):
    (ir_a, src_a, key_a), (ir_b, src_b, key_b) = (
        build[spec.name] for build in two_builds)
    assert key_a == key_b and key_a is not None
    name_a, body_a = ir_a.split("\n", 1)
    name_b, body_b = ir_b.split("\n", 1)
    assert name_a == f"; module {spec.name}.parsimony"
    assert name_b == f"; module {spec.name}.again"
    assert body_a == body_b
    assert src_a == src_b


def _ir_reachable(obj, depth=0, seen=None) -> bool:
    """Whether an IR ``Value`` is reachable from ``obj`` through what a
    bound kernel holds: default arguments, closure cells, containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 6:
        return False
    seen.add(id(obj))
    if isinstance(obj, Value):
        return True
    if isinstance(obj, np.ndarray):
        return obj.dtype == object and any(
            _ir_reachable(x, depth + 1, seen) for x in obj.flat)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return any(_ir_reachable(x, depth + 1, seen) for x in obj)
    if isinstance(obj, dict):
        return any(_ir_reachable(x, depth + 1, seen)
                   for kv in obj.items() for x in kv)
    if isinstance(obj, types.FunctionType):
        parts = list(obj.__defaults__ or ())
        parts += [cell.cell_contents for cell in obj.__closure__ or ()]
        return any(_ir_reachable(x, depth + 1, seen) for x in parts)
    if isinstance(obj, types.MethodType):
        return _ir_reachable(obj.__self__, depth + 1, seen)
    return False


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_bound_code_references_no_ir(spec):
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    for function in module.functions.values():
        if function.blocks:
            kfn, _ = codegen.lower_function(
                function, AVX512, DEFAULT_COST_MODEL, module.fingerprint)
            assert not _ir_reachable(kfn), function.name
