"""Content-keyed compile cache: hit/miss accounting and the frozen hand-out.

The cache memoizes whole compilation flows on (flow, source, machine,
config) and hands every caller the *same* sealed module, so isolation is
enforced — a mutation raises — instead of paid for with a deep copy per
hit; ``clone_module`` is the one way to a mutable module.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import diskcache, driver
from repro.backend.batch import batch_module, unbatched_twin
from repro.benchsuite.ispc_suite import BY_NAME
from repro.benchsuite.simdlib import KERNELS as SIMDLIB
from repro.diagnostics import FrozenModuleError, ReproError
from repro.faultinject import FaultPlan, inject
from repro.ir import Function, FunctionType, VOID
from repro.passes import clone_module, standard_pipeline
from repro.vm import Interpreter

SRC = """
void kernel(u32* a, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        a[i] = a[i] * (u32)3;
    }
}
"""

SRC_B = SRC.replace("(u32)3", "(u32)5")


@pytest.fixture(autouse=True)
def fresh_cache():
    driver.clear_compile_cache()
    yield
    driver.clear_compile_cache()


def _run(module):
    interp = Interpreter(module)
    a = np.arange(8, dtype=np.uint32)
    addr = interp.memory.alloc_array(a)
    interp.run("kernel", addr, a.size)
    return interp.memory.read_array(addr, np.uint32, a.size)


def test_cache_hit_miss_accounting():
    driver.compile_parsimony(SRC)
    assert driver.compile_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
    driver.compile_parsimony(SRC)
    assert driver.compile_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    # A different source is a different content key.
    driver.compile_parsimony(SRC_B)
    assert driver.compile_cache_stats() == {"hits": 1, "misses": 2, "entries": 2}


def test_distinct_flows_do_not_collide():
    driver.compile_scalar(SRC)
    driver.compile_autovec(SRC)
    driver.compile_parsimony(SRC)
    stats = driver.compile_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 3


def _vandalize(module):
    """Every way of writing to a hand-out must raise, and change nothing."""
    kernel = module.functions["kernel"]
    block = kernel.blocks[0]
    instr = next(i for i in kernel.instructions() if i.operands)

    # The IR mutator entry points say what to do instead ...
    for attempt in (
        lambda: instr.set_operand(0, instr.operands[0]),
        lambda: module.add_function(
            Function("extra", FunctionType(VOID, ()))),
        lambda: block.append(instr),
        lambda: kernel.add_block("bb"),
        lambda: standard_pipeline().run(module),
        lambda: batch_module(module, None),
    ):
        with pytest.raises(FrozenModuleError, match="clone_module") as err:
            attempt()
        assert isinstance(err.value, ReproError)
    # ... and the sealed containers catch whatever goes around them.
    with pytest.raises(AttributeError):
        module.functions.clear()
    with pytest.raises(AttributeError):
        block.instructions.append(instr)
    with pytest.raises(AttributeError):
        instr.uses.append((instr, 0))
    with pytest.raises(TypeError):
        module.attrs["vandal"] = True
    with pytest.raises(TypeError):
        kernel.attrs["vandal"] = True
    with pytest.raises(TypeError):
        instr.attrs["vandal"] = True
    twin = unbatched_twin(module)
    if twin is not None:
        assert twin.frozen
        with pytest.raises(AttributeError):
            twin.functions.clear()


def test_cached_modules_are_isolated_clones():
    """(The id predates the frozen contract: isolation now comes from
    sealing the one shared module, not from cloning it per caller.)"""
    first = driver.compile_parsimony(SRC)
    second = driver.compile_parsimony(SRC)
    assert first is second and first.frozen
    assert driver.compile_cache_stats()["hits"] == 1

    _vandalize(first)
    third = driver.compile_parsimony(SRC)
    assert third is first and "kernel" in third.functions
    np.testing.assert_array_equal(_run(third), np.arange(8, dtype=np.uint32) * 3)


def test_every_compile_result_is_frozen_cache_or_not(tmp_path, monkeypatch):
    """One contract whether the result came from a build that bypassed
    the cache (an armed fault plan, here one that never fires), from a
    miss, or from a disk-cache rehydration."""
    with inject(FaultPlan(site="vectorize", match="no-such-function")):
        uncached = driver.compile_parsimony(SRC)
        assert uncached.frozen and uncached is not driver.compile_parsimony(SRC)
        for compile_, src in ((driver.compile_scalar, SRC),
                              (driver.compile_autovec, SRC),
                              (driver.compile_ispc, SRC)):
            assert compile_(src).frozen
    assert driver.compile_cache_stats()["entries"] == 0
    _vandalize(uncached)
    np.testing.assert_array_equal(_run(uncached), np.arange(8, dtype=np.uint32) * 3)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    try:
        driver.compile_parsimony(SRC)
        driver.clear_compile_cache()
        diskcache.reset_stats()
        rehydrated = driver.compile_parsimony(SRC)
        assert diskcache.stats()["hits"] == 1
    finally:
        diskcache.set_enabled(None)
        diskcache.reset_stats()
    assert rehydrated.frozen and rehydrated is driver.compile_parsimony(SRC)
    _vandalize(rehydrated)
    np.testing.assert_array_equal(
        _run(rehydrated), np.arange(8, dtype=np.uint32) * 3)


def test_clear_resets_counters():
    driver.compile_parsimony(SRC)
    driver.compile_parsimony(SRC)
    driver.clear_compile_cache()
    assert driver.compile_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_clone_module_behaves_identically():
    original = driver.compile_parsimony(SRC)
    clone = clone_module(original)
    assert set(clone.functions) == set(original.functions)
    for name, func in clone.functions.items():
        assert func is not original.functions[name]
    np.testing.assert_array_equal(_run(original), _run(clone))


def _use_lists(module):
    """Every def-use list reachable from ``module``, as comparable data."""
    seen = {}
    for function in module.functions.values():
        for value in (function, *function.args, *function.blocks,
                      *function.instructions()):
            seen[id(value)] = value
        for instr in function.instructions():
            for op in instr.operands:
                seen[id(op)] = op
    return {key: [(id(user), idx) for user, idx in value.uses]
            for key, value in seen.items()}


def test_clone_module_only_reads_its_source():
    """``clone_blocks`` used to point a forward-referenced (phi) operand at
    the *source* instruction until its fix-up pass, appending to the
    source's ``uses``: a transient write to the cached module, and a crash
    on a frozen one."""
    spec = BY_NAME["mandelbrot"]
    module = driver.compile_parsimony(spec.psim_src, module_name="mandelbrot.p")
    assert module.frozen
    assert any(i.opcode == "phi" for f in module.functions.values()
               for i in f.instructions())
    before = _use_lists(module)
    clone = clone_module(module)
    assert _use_lists(module) == before

    assert not clone.frozen
    standard_pipeline().run(clone)  # mutable: an in-place pipeline runs
    kernel = clone.functions["kernel"]
    kernel.attrs["touched"] = True
    kernel.blocks[0].instructions.append(kernel.blocks[0].instructions.pop())

    got, want = _run_spec(spec, clone_module(module)), _run_spec(spec, module)
    for a, b in zip(got[0], want[0]):
        np.testing.assert_array_equal(a, b)
    assert got[1:] == want[1:]


def _run_spec(spec, module):
    """Outputs, cycles, instructions and per-opcode counts of one launch
    on the default engine (which must have compiled the kernel)."""
    interp = Interpreter(module)
    workload = spec.workload()
    addrs = [interp.memory.alloc_array(a) for a in workload.arrays]
    interp.run("kernel", *addrs, *workload.scalars)
    report = interp.codegen_report()
    assert report["compiles"] + report["cache_hits"] >= 1
    return ([interp.memory.read_array(addr, a.dtype, a.size)
             for addr, a in zip(addrs, workload.arrays)],
            interp.stats.cycles, interp.stats.instructions,
            dict(interp.stats.counts))


#: A kernel whose generated code makes an internal call (recursion
#: cannot be inlined): the callee is reached by name, through the
#: interpreter's module.
RECURSIVE_SRC = """
u64 tri(u64 x) {
    if (x == (u64)0) { return (u64)0; }
    return x + tri(x - (u64)1);
}
void kernel(u64* a, u64 n) {
    for (u64 i = (u64)0; i < n; i = i + (u64)1) {
        a[i] = tri(a[i]);
    }
}
"""


def _run_recursive(module):
    interp = Interpreter(module)
    addr = interp.memory.alloc_array(np.arange(6, dtype=np.uint64))
    interp.run("kernel", addr, 6)
    np.testing.assert_array_equal(
        interp.memory.read_array(addr, np.uint64, 6), [0, 1, 3, 6, 10, 15])
    return interp.codegen_report()


def test_emissions_die_with_their_module():
    """The emission cache used to pin the ``Instruction`` s of whichever
    clone emitted first (a whole module per kernel, until a 512-entry
    reset): generated code is cached by the compile key and references
    no IR, so a module dies with its cache entry while its bound code
    stays cached."""
    spec = BY_NAME["mandelbrot"]
    module = driver.compile_parsimony(spec.psim_src, module_name="mandelbrot.p")
    _run_spec(spec, module)
    kernel = weakref.ref(module.functions["kernel"])
    del module
    driver.clear_compile_cache()
    gc.collect()
    assert kernel() is None

    # ... and after LRU eviction: 66 kernels through a 64-entry cache,
    # with noise (which keeps its helper ``latticehash``) and a kernel
    # whose generated code calls an internal function among them.
    from repro.backend import codegen as cg

    noise = BY_NAME["noise"]
    first = driver.compile_parsimony(noise.psim_src, module_name="noise.p")
    _run_spec(noise, first)
    recursive = driver.compile_parsimony(RECURSIVE_SRC)
    assert _run_recursive(recursive)["compiles"] == 2  # kernel and tri
    keys = [key for key in cg._CODE_CACHE
            if key[0] in (first.fingerprint, recursive.fingerprint)]
    assert len(keys) == 3
    refs = [weakref.ref(f) for m in (first, recursive)
            for f in m.functions.values()]
    del first, recursive
    for spec in SIMDLIB[:64]:
        driver.compile_parsimony(spec.psim_src, module_name=f"{spec.name}.p")
    assert driver.compile_cache_stats()["entries"] == 64
    gc.collect()
    assert not any(ref() for ref in refs)
    assert all(key in cg._CODE_CACHE for key in keys)
    # A recompile after eviction binds the cached code: nothing is emitted.
    report = _run_recursive(driver.compile_parsimony(RECURSIVE_SRC))
    assert report["compiles"] == 0 and report["cache_hits"] == 2
