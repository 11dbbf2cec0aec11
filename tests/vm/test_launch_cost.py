"""What a launch costs, counted (never timed).

Generated code is bound once per compile key, so the second and every
later ``Interpreter`` over a cached module must do no emission work at
all; a ``Memory`` is as large as its extent; generated code (whose inline
accesses skip the ``memory`` fault hook) never runs while a fault plan is
armed; the code cache, keyed by (module fingerprint, function name,
machine, cost model), is bounded and cleared with the compile cache;
every generated source compiles under its own filename, with its text in
``linecache``; and a launch makes a bounded number of host calls per
kernel, because the emitter folds what it knows at emit time.
"""

import builtins
import cProfile
import gc
import linecache
import pstats
import re
import traceback

import numpy as np
import pytest

from repro.backend import codegen as cg
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.benchsuite.ispc_suite import BENCHMARKS
from repro.benchsuite.runner import _GUARD_BYTES
from repro.benchsuite.simdlib import BY_NAME, KERNELS
from repro.driver import clear_compile_cache, compile_parsimony
from repro.faultinject import FaultPlan, InjectedFault, inject
from repro.ir.parser import parse_ir
from repro.passes import clone_module
from repro.ir.types import VectorType
from repro.ir.values import Constant
from repro.vm import Interpreter, Memory
from repro.vm.interp import _Replay

COPY = BY_NAME["Copy"]


def _bind(interp, workload):
    addrs = []
    for array in workload.arrays:
        addrs.append(interp.memory.alloc_array(array))
        interp.memory.alloc(_GUARD_BYTES)
    return addrs


def _launch(module, workload, **kw):
    interp = Interpreter(module, **kw)
    addrs = _bind(interp, workload)
    interp.run("kernel", *addrs, *workload.scalars)
    return interp, addrs


class _Calls:
    """Counts calls into the emission machinery of ``repro.backend.codegen``
    (``compile``/``exec`` are shadowed as module globals)."""

    NAMES = ("value_impl", "charge_items", "_Emitter", "compile", "exec")

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            real = getattr(cg, name, None) or getattr(builtins, name)
            monkeypatch.setattr(cg, name, self._counting(name, real),
                                raising=False)

    def _counting(self, name, real):
        def counted(*args, **kw):
            self.counts[name] += 1
            return real(*args, **kw)
        return counted


def test_second_interpreter_over_a_cached_module_does_no_emission_work(
        monkeypatch):
    clear_compile_cache()
    calls = _Calls(monkeypatch)
    workload = COPY.workload()
    first, _ = _launch(compile_parsimony(COPY.psim_src), workload)
    assert first.codegen_report()["compiles"] >= 1
    assert calls.counts["_Emitter"] >= 1 and calls.counts["exec"] >= 1
    calls.counts = dict.fromkeys(calls.NAMES, 0)
    for _ in range(3):
        module = compile_parsimony(COPY.psim_src)  # the same frozen module
        interp, addrs = _launch(module, workload)
        report = interp.codegen_report()
        assert report["compiles"] == 0 and report["cache_hits"] >= 1
        assert report["calls"] >= 1 and not report["bailouts"]
        np.testing.assert_array_equal(
            interp.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                     workload.arrays[1].size),
            first.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                    workload.arrays[1].size))
        assert interp.stats.cycles == first.stats.cycles
    assert calls.counts == dict.fromkeys(calls.NAMES, 0)


def test_generated_code_is_shared_not_rebuilt():
    """One callable per (fingerprint, function, machine, cost model):
    interpreters hold a reference to it, and it references none of them."""
    module = compile_parsimony(COPY.psim_src)
    a, _ = _launch(module, COPY.workload())
    b, _ = _launch(module, COPY.workload())
    assert a._codegen_fns and a._codegen_fns == b._codegen_fns
    for function, kfn in a._codegen_fns.items():
        key = (module.fingerprint, function.name, a.machine, a.cost_model)
        assert cg._CODE_CACHE[key][1] is kfn
        assert not any(isinstance(v, (Interpreter, Memory))
                       for v in kfn.__defaults__ or ())


def test_memory_image_is_as_large_as_its_extent():
    interp = Interpreter(compile_parsimony(COPY.psim_src))
    assert interp.memory.data.nbytes <= 64 * 1024
    addrs = _bind(interp, COPY.workload())
    memory = interp.memory
    assert memory.extent <= memory.data.nbytes < 2 * (memory.extent + 4096)
    interp.run("kernel", *addrs, *COPY.workload().scalars)
    assert memory.data.nbytes < 2 * (memory.extent + 4096)
    assert memory.size == 1 << 22


def test_armed_memory_fault_plan_never_enters_generated_code():
    """The inline accesses skip ``faultinject``; that is only sound
    because ``run()`` keeps generated code out while a plan is armed, and
    then every access goes through the hooked ``Memory`` methods: the plan
    sees exactly the hits the reference engine gives it."""
    module = compile_parsimony(COPY.psim_src)
    workload = COPY.workload()

    def hits(**kw):
        interp = Interpreter(module, **kw)
        addrs = _bind(interp, workload)
        plan = FaultPlan(site="memory", after=10**9)  # counts, never fires
        with inject(plan):
            interp.run("kernel", *addrs, *workload.scalars)
        return plan.hits, interp

    want, _ = hits(codegen=False)
    got, interp = hits()
    assert got == want > 0
    assert interp.codegen_report()["calls"] == 0 and not interp._codegen_fns

    # ... and a plan that does fire, fires: on the first access.
    interp = Interpreter(module)
    addrs = _bind(interp, workload)
    with inject(FaultPlan(site="memory")):
        with pytest.raises(InjectedFault):
            interp.run("kernel", *addrs, *workload.scalars)
    assert interp.codegen_report()["calls"] == 0


# -- the code cache ----------------------------------------------------------------

def _function(i):
    """A one-block function returning ``i``: each ``i`` emits its own
    source."""
    return parse_ir(f"define i64 @k{i}() {{\nentry:\n  ret i64 {i}\n}}\n"
                    ).functions[f"k{i}"]


def _lower(function, fingerprint):
    return cg.lower_function(function, AVX512, DEFAULT_COST_MODEL,
                             fingerprint)


def _key(fingerprint, i):
    return (fingerprint, f"k{i}", AVX512, DEFAULT_COST_MODEL)


def test_code_cache_is_bounded_and_evicted_kernels_recompile(monkeypatch):
    monkeypatch.setattr(cg, "CODE_CACHE_ENTRIES", 4)
    cg.clear_code_cache()
    functions = [_function(i) for i in range(5)]
    filenames = []
    for i, function in enumerate(functions):
        kfn, origin = _lower(function, ("fp", i))
        assert origin == "compiled" and len(cg._CODE_CACHE) <= 4
        filenames.append(kfn.__code__.co_filename)
    assert len(set(filenames)) == 5
    assert filenames[0].startswith("<repro-vm-codegen:k0:")
    # Least recently used went first, and took its linecache entry along.
    assert _key(("fp", 0), 0) not in cg._CODE_CACHE
    assert filenames[0] not in linecache.cache
    assert all(name in linecache.cache for name in filenames[1:])
    assert _lower(functions[1], ("fp", 1))[1] == "cache"
    kfn, origin = _lower(functions[0], ("fp", 0))
    assert origin == "compiled" and len(cg._CODE_CACHE) == 4
    assert _key(("fp", 2), 2) not in cg._CODE_CACHE  # 1 was touched
    assert kfn.__code__.co_filename == filenames[0]
    # Without a fingerprint nothing is remembered: every call emits.
    assert _lower(functions[3], None)[1] == "compiled"
    assert _lower(functions[3], None)[1] == "compiled"
    cg.clear_code_cache()
    assert not cg._CODE_CACHE
    assert not any(name in linecache.cache for name in filenames)


def test_kernels_sharing_a_source_keep_its_linecache_entry(monkeypatch):
    """Two fingerprints whose function emits the same source compile under
    one filename: evicting one leaves the other's lines in place."""
    monkeypatch.setattr(cg, "CODE_CACHE_ENTRIES", 2)
    cg.clear_code_cache()
    twin, shared = _function(7), _function(7)
    filename = _lower(twin, ("fp", "a"))[0].__code__.co_filename
    assert _lower(shared, ("fp", "b"))[0].__code__.co_filename == filename
    _lower(_function(8), ("fp", "c"))  # evicts ("fp", "a")
    assert filename in linecache.cache
    _lower(_function(9), ("fp", "d"))  # evicts ("fp", "b")
    assert filename not in linecache.cache
    cg.clear_code_cache()


def test_a_kernel_whose_code_was_evicted_still_runs_and_recompiles(
        monkeypatch):
    monkeypatch.setattr(cg, "CODE_CACHE_ENTRIES", 1)
    clear_compile_cache()
    assert not cg._CODE_CACHE  # clear_compile_cache() drops this layer too
    workload = COPY.workload()
    module = compile_parsimony(COPY.psim_src)
    first, addrs = _launch(module, workload)
    want = first.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                   workload.arrays[1].size)
    _lower(_function(99), ("fp", 99))  # evicts Copy's kernel
    assert len(cg._CODE_CACHE) == 1
    # The bound callable outlives the cache entry ...
    first.run("kernel", *addrs, *workload.scalars)
    assert first.codegen_report()["compiles"] == 1
    # ... and a new interpreter of the same kernel lowers it afresh.
    fresh, addrs = _launch(module, workload)
    assert fresh.codegen_report()["compiles"] >= 1
    np.testing.assert_array_equal(
        fresh.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                workload.arrays[1].size), want)


def _trap_frame(module):
    """The last generated-code frame of a replay out of ``module``'s
    kernel — an access whose range test failed — and the interpreter it
    ran in."""
    workload = COPY.workload()
    interp, addrs = _launch(module, workload)
    function = module.functions["kernel"]
    kfn = interp._codegen_fns[function]
    # Called directly: under run() the replay would swallow this frame
    # and raise the reference engine's trap instead.
    with pytest.raises(_Replay) as caught:
        kfn(interp, [interp.memory.size - 8] + addrs[1:]
            + list(workload.scalars), 0)
    frames = [f for f in traceback.extract_tb(caught.value.__traceback__)
              if f.filename.startswith("<repro-vm-codegen:")]
    assert frames
    frame = frames[-1]
    assert frame.filename == kfn.__code__.co_filename
    name, digest = frame.filename[len("<repro-vm-codegen:"):-1].rsplit(":", 1)
    assert name == function.name and len(digest) == 8
    # The failing arm of a view's range test (``_Replay``, hoisted).
    assert re.match(r"raise _h\d+\('view'\)$", frame.line), frame.line
    assert frame.line == linecache.getline(frame.filename, frame.lineno).strip()
    return interp, frame


def test_a_trap_in_generated_code_shows_the_emitted_line():
    """Per-source filenames + linecache: the frame of a replay raised
    under generated code names the kernel and quotes the line that left —
    for a compiled kernel, whose code the code cache holds, and for a
    hand-built (cloned) one, which has no fingerprint and is emitted for
    its interpreter alone.  Either's lines go when its code does."""
    compiled = compile_parsimony(COPY.psim_src)
    frame = _trap_frame(compiled)[1]
    clear_compile_cache()
    gc.collect()
    assert not linecache.getline(frame.filename, frame.lineno)
    clone = clone_module(compiled)
    assert clone.fingerprint is None
    interp, frame = _trap_frame(clone)
    interp.clear_decode_cache()
    gc.collect()
    assert not linecache.getline(frame.filename, frame.lineno)


# -- host work per launch ----------------------------------------------------------

#: Profiled calls one warm launch may make (measured / at the commit
#: before emit-time folding): FillBgr 214 / 1049, Copy 69 / 135.  The
#: histograms, measured since their serialized atomics batch as one
#: scatter-add per trip (/ before): Histogram 178 / 9862, HistogramMasked
#: 247 / 6232.  Measured since one 1024-lane target and trips at live
#: width (/ before): BgrToBgra 459 / 855, and the four fig4 kernels with
#: divergent loops, mandelbrot 782 / 2696, aobench 1089 / 2979,
#: volume_rendering 1597 / 4787, binomial_options 2099 / 2571.  Each
#: budget since the histograms is the measured count plus 22 % headroom.
CALL_BUDGET = {"BgrToBgra": 560, "Histogram": 217, "HistogramMasked": 301,
               "FillBgr": 400, "Copy": 110, "mandelbrot": 954,
               "aobench": 1329, "volume_rendering": 1948,
               "binomial_options": 2561}
SPECS = dict(BY_NAME, **{spec.name: spec for spec in BENCHMARKS})


@pytest.mark.parametrize("kernel", sorted(CALL_BUDGET))
def test_a_launch_makes_a_bounded_number_of_host_calls(kernel):
    spec = SPECS[kernel]
    workload = spec.workload()
    interp, addrs = _launch(compile_parsimony(spec.psim_src), workload)
    for addr, array in zip(addrs, workload.arrays):
        interp.memory.write_array(addr, array)
    profile = cProfile.Profile()
    profile.enable()
    interp.run("kernel", *addrs, *workload.scalars)
    profile.disable()
    report = interp.codegen_report()
    assert not report["bailouts"] and not report["replays"]
    assert pstats.Stats(profile).total_calls <= CALL_BUDGET[kernel]


def test_generated_source_recomputes_nothing_it_knew_at_emit_time():
    # BgrToBgra runs every access as a window view; Reorder16bit keeps its
    # packed loads and shuffles; unbatched Histogram folds its lane masks.
    for name, batch, folds in (("BgrToBgra", None, 0), ("Reorder16bit", None, 0),
                               ("Histogram", 0, 30)):
        spec = BY_NAME[name]
        module = compile_parsimony(spec.psim_src, batch_request=batch)
        _launch(module, spec.workload())
        lines = cg.generated_source(module.functions["kernel"], AVX512,
                                    DEFAULT_COST_MODEL,
                                    module.fingerprint).splitlines()
        # A constant shuffle index is a hoisted selector, not a per-launch
        # ``IDX.astype(int64) % n``.
        assert not any(re.search(r"_h\d+\.astype\(", line) for line in lines)
        # Generated code leaves only from the arm a failed range test
        # falls into, and calls ``Memory`` for nothing.
        replays = [i for i, line in enumerate(lines) if " raise _h" in line]
        assert replays
        for i in replays:
            assert re.match(r"\s+(if .* > _h\d+\(_[wd]\).*|else):$",
                            lines[i - 1])
        assert not any("_mem." in line and "_mem.lanes[" not in line
                       and "_mem.data" not in line and "_extent" not in line
                       and "_mem._brk" not in line for line in lines)
        header = lines[1]
        assert header.lstrip().startswith("# folded=")
        assert int(re.search(r"folded=(\d+)", header).group(1)) >= folds
        assert " slow=0 " in header


def test_emission_builds_one_payload_per_distinct_constant(monkeypatch):
    """Knownness is decided from the IR; a payload is only built for a
    constant operand that is hoisted or folded with, once however often
    it is used."""
    built = []
    real = cg._constant_payload

    def counting(const):
        value = real(const)
        if isinstance(value, np.ndarray):
            built.append(const)
        return value

    monkeypatch.setattr(cg, "_constant_payload", counting)
    clear_compile_cache()
    distinct = 0
    for spec in KERNELS:
        module = compile_parsimony(spec.psim_src)
        _launch(module, spec.workload())
        for function in module.functions.values():
            if (module.fingerprint, function.name, AVX512,
                    DEFAULT_COST_MODEL) in cg._CODE_CACHE:
                distinct += len({
                    id(operand) for ins in function.instructions()
                    for operand in ins.operands
                    if isinstance(operand, Constant)
                    and isinstance(operand.type, VectorType)})
    assert 0 < len(built) <= distinct
    assert len({id(const) for const in built}) == len(built)  # one each
