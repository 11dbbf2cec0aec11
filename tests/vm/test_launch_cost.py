"""What a launch costs, counted (never timed).

Generated code is bound once per module, so the second and every later
``Interpreter`` over a cached module must do no emission work at all; a
``Memory`` is as large as its extent; generated code (whose inline
accesses skip the ``memory`` fault hook) never runs while a fault plan is
armed; the source→code cache is bounded and cleared with the compile
cache; every generated source compiles under its own filename, with
its text in ``linecache``; and a launch makes a bounded number of host
calls per kernel, because the emitter folds what it knows at emit time.
"""

import builtins
import cProfile
import linecache
import pstats
import re
import traceback

import numpy as np
import pytest

from repro.backend import codegen as cg
from repro.benchsuite.runner import _GUARD_BYTES
from repro.benchsuite.simdlib import BY_NAME, KERNELS
from repro.driver import clear_compile_cache, compile_parsimony
from repro.faultinject import FaultPlan, InjectedFault, inject
from repro.ir.types import VectorType
from repro.ir.values import Constant
from repro.vm import Interpreter, Memory, MemoryError_

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

    NAMES = ("_value_impl", "_Emitter", "_batch_fingerprint",
             "compile", "exec")

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
    """One callable per (function, machine, cost model): interpreters
    hold a reference to it, and it references none of them."""
    module = compile_parsimony(COPY.psim_src)
    a, _ = _launch(module, COPY.workload())
    b, _ = _launch(module, COPY.workload())
    assert a._codegen_fns and a._codegen_fns == b._codegen_fns
    for function, kfn in a._codegen_fns.items():
        assert any(entry[4] is kfn for entry in function._emissions)
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
    sees exactly the hits the predecoded engine gives it."""
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


# -- the source → code cache ---------------------------------------------------

def _source(i):
    return f"def _kfn(_interp, _args, depth):\n    return {i}\n"


def test_code_cache_is_bounded_and_evicted_sources_recompile(monkeypatch):
    monkeypatch.setattr(cg, "CODE_CACHE_ENTRIES", 4)
    cg.clear_code_cache()
    filenames = []
    for i in range(5):
        code, origin = cg.compiled_code(_source(i), f"k{i}")
        assert origin == "compiled" and len(cg._CODE_CACHE) <= 4
        filenames.append(code.co_filename)
    assert len(set(filenames)) == 5
    assert filenames[0].startswith("<repro-vm-codegen:k0:")
    # Least recently used went first, and took its linecache entry along.
    assert _source(0) not in cg._CODE_CACHE
    assert filenames[0] not in linecache.cache
    assert all(name in linecache.cache for name in filenames[1:])
    assert cg.compiled_code(_source(1), "k1")[1] == "cache"
    code, origin = cg.compiled_code(_source(0), "k0")
    assert origin == "compiled" and len(cg._CODE_CACHE) == 4
    assert _source(2) not in cg._CODE_CACHE  # 1 was touched, 2 was oldest
    assert cg._bind(code, {})(None, [], 0) == 0
    cg.clear_code_cache()
    assert not cg._CODE_CACHE
    assert not any(name in linecache.cache for name in filenames)


def test_a_kernel_whose_source_was_evicted_still_runs_and_recompiles(
        monkeypatch):
    monkeypatch.setattr(cg, "CODE_CACHE_ENTRIES", 1)
    clear_compile_cache()
    assert not cg._CODE_CACHE  # clear_compile_cache() drops this layer too
    workload = COPY.workload()
    first, addrs = _launch(compile_parsimony(COPY.psim_src), workload)
    want = first.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                   workload.arrays[1].size)
    cg.compiled_code(_source(99), "other")  # evicts Copy's source
    assert len(cg._CODE_CACHE) == 1
    # The bound callable outlives the cache entry ...
    again, addrs = _launch(compile_parsimony(COPY.psim_src), workload)
    assert again.codegen_report()["compiles"] == 0
    # ... and a new module for the same source compiles it afresh.
    clear_compile_cache()
    fresh, addrs = _launch(compile_parsimony(COPY.psim_src), workload)
    assert fresh.codegen_report()["compiles"] >= 1
    for interp in (again, fresh):
        np.testing.assert_array_equal(
            interp.memory.read_array(addrs[1], workload.arrays[1].dtype,
                                     workload.arrays[1].size), want)


def test_a_trap_in_generated_code_shows_the_emitted_line():
    """Per-source filenames + linecache: the frame of a trap raised under
    generated code names the kernel and quotes the access that trapped."""
    module = compile_parsimony(COPY.psim_src)
    workload = COPY.workload()
    interp, addrs = _launch(module, workload)
    function = module.functions["kernel"]
    kfn = interp._codegen_fns[function]
    # Called directly: under run() the replay would swallow this frame
    # and raise the predecoded twin's (identical) trap instead.
    with pytest.raises(MemoryError_, match="out-of-bounds") as caught:
        kfn(interp, [interp.memory.size - 8] + addrs[1:]
            + list(workload.scalars), 0)
    frames = [f for f in traceback.extract_tb(caught.value.__traceback__)
              if f.filename.startswith("<repro-vm-codegen:")]
    assert frames
    frame = frames[-1]
    assert frame.filename == kfn.__code__.co_filename
    name, digest = frame.filename[len("<repro-vm-codegen:"):-1].rsplit(":", 1)
    assert name == function.name and len(digest) == 8
    assert "_mem.load_lanes(" in frame.line or "_mem.load_scalar(" in frame.line
    assert frame.line == linecache.getline(frame.filename, frame.lineno).strip()


# -- host work per launch ----------------------------------------------------------

#: Profiled calls one warm launch may make (measured / at the commit
#: before emit-time folding): BgrToBgra 3183 / 16570, Histogram 9862 /
#: 25662, FillBgr 214 / 1049, Copy 69 / 135.
CALL_BUDGET = {"BgrToBgra": 4000, "Histogram": 12000, "FillBgr": 400,
               "Copy": 110}


@pytest.mark.parametrize("kernel", sorted(CALL_BUDGET))
def test_a_launch_makes_a_bounded_number_of_host_calls(kernel):
    spec = BY_NAME[kernel]
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
    spec = BY_NAME["BgrToBgra"]
    module = compile_parsimony(spec.psim_src)
    _launch(module, spec.workload())
    (entry,) = module.functions["kernel"]._emissions
    lines = entry[3].splitlines()
    # A constant shuffle index is a hoisted selector, not a per-launch
    # ``IDX.astype(int64) % n``.
    assert not any(re.search(r"_h\d+\.astype\(", line) for line in lines)
    # ``Memory`` is only ever the arm a failed range test falls into.
    slow = [i for i, line in enumerate(lines)
            if "_mem.load_lanes(" in line or "_mem.store_lanes(" in line]
    assert slow
    for i in slow:
        assert re.match(r"\s+if .*_i \+ \d+ > _h\d+\(_w\).*:$", lines[i - 1])
    header = lines[1]
    assert header.lstrip().startswith("# folded=")
    assert int(re.search(r"folded=(\d+)", header).group(1)) >= 30
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
            if function._emissions:
                distinct += len({
                    id(operand) for ins in function.instructions()
                    for operand in ins.operands
                    if isinstance(operand, Constant)
                    and isinstance(operand.type, VectorType)})
    assert 0 < len(built) <= distinct
    assert len({id(const) for const in built}) == len(built)  # one each
