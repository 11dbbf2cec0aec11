"""The IR object model: interned types compared by identity, slotted nodes.

Every type is interned — ``FunctionType`` too — so ``==`` and ``hash``
are ``object``'s: identity and address.  That holds only if nothing
builds a second copy of a type (unpickling re-interns through
``Type.__reduce__``) and nothing orders output by a set of types (their
hashes differ from process to process).  IR nodes declare ``__slots__``;
their pickled state is the slots (``thawed_state``), so a module from the
disk cache prints exactly as the one that was stored.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import diskcache, driver
from repro.benchsuite.ispc_suite import BY_NAME as FIG4
from repro.benchsuite.simdlib import KERNELS
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock
from repro.ir.printer import print_module
from repro.ir.types import FunctionType, I32, I64, PointerType, Type, VectorType
from repro.ir.values import Argument, Constant, UndefValue, Value

FIG5 = {spec.name: spec for spec in KERNELS}
#: noise and aobench keep source-level callees (a call, a second
#: FunctionType); the colour conversions batch with window groups.
ROUND_TRIP = [FIG4["noise"], FIG4["aobench"], FIG5["BgraToBgr"],
              FIG5["GetStatistic"]]


def _types(module):
    """Every type the module's IR reaches."""
    found = []

    def add(t):
        found.append(t)
        for part in (getattr(t, "elem", None), getattr(t, "pointee", None)):
            if part is not None:
                add(part)
        if isinstance(t, FunctionType):
            add(t.ret)
            for param in t.params:
                add(param)

    for function in list(module.functions.values()) + list(
            module.externals.values()):
        add(function.type)
        add(function.ftype)
        for arg in getattr(function, "args", ()):
            add(arg.type)
        for instr in getattr(function, "instructions", tuple)():
            add(instr.type)
            for op in instr.operands:
                add(op.type)
    return found


def test_types_are_interned_and_compared_by_identity():
    ftype = FunctionType(I32, (PointerType(I32), I64))
    assert FunctionType(I32, [PointerType(I32), I64]) is ftype
    assert FunctionType(I32, (I64,)) is not ftype
    assert VectorType(I32, 8) is VectorType(I32, 8)
    assert "__eq__" not in vars(Type) and "__hash__" not in vars(Type)
    assert I32.is_int and I32.is_scalar and not I32.is_vector
    assert VectorType(I32, 8).is_vector and not VectorType(I32, 8).is_scalar


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    diskcache.set_enabled(True)
    diskcache.reset_stats()
    driver.clear_compile_cache()
    yield tmp_path
    diskcache.set_enabled(None)
    diskcache.reset_stats()
    driver.clear_compile_cache()


@pytest.mark.parametrize("spec", ROUND_TRIP, ids=lambda s: s.name)
def test_a_disk_cache_round_trip_reinterns_every_type(spec, disk_cache):
    stored = driver.compile_parsimony(spec.psim_src, module_name=spec.name)
    driver.clear_compile_cache()
    loaded = driver.compile_parsimony(spec.psim_src, module_name=spec.name)
    assert diskcache.stats()["hits"] == 1 and loaded is not stored
    found = _types(loaded)
    assert any(isinstance(t, FunctionType) for t in found)
    for t in found:
        assert type(t)(*t._key) is t, t
    assert print_module(loaded) == print_module(stored)


def _nodes():
    function = driver.compile_parsimony(FIG5["Copy"].psim_src).functions["kernel"]
    instr = function.entry.instructions[0]
    return [Constant(I32, 7), UndefValue(I32), function.args[0], instr,
            function.entry]


def test_ir_nodes_are_slotted():
    nodes = _nodes()
    assert [type(n) for n in nodes] == [Constant, UndefValue, Argument,
                                        Instruction, BasicBlock]
    for node in nodes:
        assert isinstance(node, Value) and not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.scratch = 1


_CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from tests.integration import test_codegen_golden as cg, test_compile_golden as ir
print(hashlib.sha256(json.dumps({s.name: [ir.digests(s), cg.digests(s)]
                                 for s in ir.SPECS}, sort_keys=True)
                     .encode()).hexdigest())
"""


def test_two_processes_compile_the_suite_identically():
    """The 79 builds' IR (and twins) and generated source, digested in
    two processes under different hash seeds: a type hashes by address,
    so a set of types ordering any output would show here."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve()
                                          .parents[1]))
    env.pop("REPRO_DISK_CACHE", None)
    procs = [subprocess.Popen([sys.executable, "-c", _CHILD, str(root)],
                              env=dict(env, PYTHONHASHSEED=seed),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for seed in ("1", "2")]
    outs = [proc.communicate() for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    first, second = (out.strip().splitlines()[-1] for out, _ in outs)
    assert first == second
