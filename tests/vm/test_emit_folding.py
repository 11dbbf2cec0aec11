"""Emit-time folding never changes behaviour: one directed case per rule.

The code generator evaluates, once, every pure instruction whose operands
it knows at emit time, and picks cheaper host primitives for a few ops
(``count_nonzero`` for the mask reductions, ``empty``+``fill`` for
``broadcast``, a sign-bit XOR for a narrow ``gep`` index, a literal lane
for ``extractelement``, a masked Python expression for integer
``atomicrmw``, only the taken arm of a branch whose condition it knows).
Each case runs on the codegen and the reference engine, which must agree
on the returned value, ``ExecStats`` and the trap.
"""

import re

import numpy as np
import pytest

from repro import driver
from repro.backend import codegen
from repro.backend.codegen import _Emitter
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.ir import (
    I1,
    I8,
    I16,
    I32,
    I64,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    VectorType,
    verify_function,
)
from repro.vm import Interpreter, VMTrap
from repro.vm.nputil import mask_int, to_signed

ENGINES = {
    "codegen": {},
    "reference": {"codegen": False},
}
LANES = 8
VEC = VectorType(I32, LANES)
MASK = VectorType(I1, LANES)


def _module(ret, params, body):
    module = Module("t")
    f = Function("f", FunctionType(ret, tuple(params)),
                 [f"a{i}" for i in range(len(params))])
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.ret(body(b, *f.args))
    verify_function(f)
    return module


def _drive(module, *args, setup=None):
    """``engine -> (outcome, cycles, instructions, counts)``, plus the
    codegen interpreter."""
    seen = {}
    for engine, kw in ENGINES.items():
        interp = Interpreter(module, **kw)
        extra = setup(interp) if setup else ()
        try:
            returned = interp.run("f", *args, *extra)
            outcome = ("ok", returned)
        except VMTrap as exc:
            outcome = (type(exc).__name__, str(exc))
        stats = interp.stats
        seen[engine] = (outcome, stats.cycles, stats.instructions,
                        dict(stats.counts))
        if engine == "codegen":
            codegen = interp
    return seen, codegen


def _source(interp):
    """The source ``interp`` ran (a hand-built function is emitted afresh
    by each interpreter, and emission is deterministic)."""
    return _Emitter(interp.module.functions["f"], interp.machine,
                    interp.cost_model).emit()[0]


def _agree(seen):
    want, got = seen["reference"], seen["codegen"]
    np.testing.assert_equal(got[0], want[0])
    assert got[1:] == want[1:]
    return want[0]


@pytest.mark.parametrize("op", ["udiv", "urem", "sdiv", "srem"])
def test_constant_division_by_a_zero_lane_traps_at_run_time(op):
    """All operands constant, but evaluating it raises: not folded, and
    the launch traps with the reference engine's words."""
    num = Constant(VEC, list(range(1, LANES + 1)))
    den = Constant(VEC, [3, 1, 0, 2, 5, 7, 1, 1])
    module = _module(VEC, [], lambda b: b.binop(op, num, den))
    seen, codegen = _drive(module)
    kind, text = _agree(seen)
    assert kind == "VMTrap" and "by zero" in text
    assert "folded=0 " in _source(codegen)
    assert codegen.codegen_report()["replays"] == 1


def test_constant_division_without_a_zero_lane_folds():
    num = Constant(VEC, list(range(1, LANES + 1)))
    den = Constant(VEC, [3, 1, 4, 2, 5, 7, 1, 1])
    module = _module(VEC, [], lambda b: b.udiv(num, den))
    seen, codegen = _drive(module)
    kind, value = _agree(seen)
    assert kind == "ok" and value.tolist() == [0, 2, 0, 2, 1, 0, 7, 8]
    assert "folded=1 " in _source(codegen)


@pytest.mark.parametrize("known", [False, True])
def test_mask_popcnt_is_a_python_int(known):
    """``count_nonzero`` hands back ``numpy.int64``; multiplied by a value
    >= 2**63 that overflows a C long instead of wrapping to 64 bits."""
    lanes = [1, 0, 1, 1, 0, 1, 1, 1]
    big = (1 << 63) + 12345

    def body(b, *args):
        mask = Constant(MASK, lanes) if known else args[0]
        return b.mul(b.mask_popcnt(mask), Constant(I64, big))

    module = _module(I64, [] if known else [MASK], body)
    args = [] if known else [np.array(lanes, dtype=bool)]
    seen, _ = _drive(module, *args)
    kind, value = _agree(seen)
    assert kind == "ok" and value == mask_int(6 * big, 64)
    for outcome, *_ in seen.values():
        assert type(outcome[1]) is int

    count = _module(I64, [] if known else [MASK], lambda b, *a: b.mask_popcnt(
        Constant(MASK, lanes) if known else a[0]))
    seen, _ = _drive(count, *args)
    for outcome, *_ in seen.values():
        assert outcome == ("ok", 6) and type(outcome[1]) is int


@pytest.mark.parametrize("lanes,any_,all_", [
    ([0] * LANES, 0, 0), ([0, 0, 1, 0, 0, 0, 0, 0], 1, 0), ([1] * LANES, 1, 1)])
def test_mask_reductions(lanes, any_, all_):
    for op, want in (("mask_any", any_), ("mask_all", all_)):
        module = _module(I1, [MASK], lambda b, m: getattr(b, op)(m))
        seen, _ = _drive(module, np.array(lanes, dtype=bool))
        assert _agree(seen) == ("ok", want)


@pytest.mark.parametrize("elem,value", [
    (I64, (1 << 64) - 1), (I64, 1 << 63), (I32, (1 << 32) - 1), (I8, 255),
    (I1, 1)])
def test_broadcast_of_the_largest_value(elem, value):
    module = _module(VectorType(elem, LANES), [elem],
                     lambda b, s: b.broadcast(s, LANES))
    seen, _ = _drive(module, value)
    kind, lanes = _agree(seen)
    assert kind == "ok" and lanes.tolist() == [value] * LANES
    assert all(o[0][1].dtype == lanes.dtype for o in seen.values())


def test_a_folded_array_is_read_only_and_insertelement_still_copies():
    """``v = CONST + CONST`` folds into one hoisted array every launch
    shares; ``insertelement`` on it must not write through."""
    a = Constant(VEC, list(range(LANES)))
    b_ = Constant(VEC, [10] * LANES)

    def body(b, x):
        return b.insertelement(b.add(a, b_), Constant(I32, 2), x)

    module = _module(VEC, [I32], body)
    interp = Interpreter(module)
    first = interp.run("f", 777)
    second = interp.run("f", 888)
    assert first.tolist() == [10, 11, 777, 13, 14, 15, 16, 17]
    assert second.tolist() == [10, 11, 888, 13, 14, 15, 16, 17]
    kfn = interp._codegen_fns[module.functions["f"]]
    folded = [v for v in kfn.__defaults__
              if isinstance(v, np.ndarray) and v.tolist() == list(range(10, 18))]
    assert len(folded) == 1 and not folded[0].flags.writeable
    assert "folded=1 " in _source(interp)
    seen, _ = _drive(module, 5)
    _agree(seen)


def test_returning_a_folded_array_hands_out_a_copy():
    a = Constant(VEC, list(range(LANES)))
    module = _module(VEC, [], lambda b: b.add(a, a))
    interp = Interpreter(module)
    first = interp.run("f")
    first[0] = 99  # writable, and not the shared payload
    assert interp.run("f").tolist() == [2 * i for i in range(LANES)]


@pytest.mark.parametrize("bits,index", [
    (I8, 0x80), (I8, 0xFF), (I16, 0x8000), (I32, 0xFFFFFFFE), (I32, 5),
    (I64, (1 << 64) - 4), (I64, 1 << 63)])
@pytest.mark.parametrize("known", [False, True])
def test_gep_index_sign_extension_matches_to_signed(bits, index, known):
    ptr = PointerType(I32)
    base = 1 << 20

    def body(b, p, *rest):
        return b.ptrtoint(b.gep(p, Constant(bits, index) if known else rest[0]))

    module = _module(I64, [ptr] if known else [ptr, bits], body)
    seen, _ = _drive(module, base, *([] if known else [index]))
    want = mask_int(base + to_signed(index, bits.bits) * 4, 64)
    assert _agree(seen) == ("ok", want)


@pytest.mark.parametrize("index", [0, 3, LANES + 2, (1 << 32) - 1])
def test_extractelement_with_a_constant_index(index):
    values = [7, 1 << 31, 3, 4, 5, 6, 7, (1 << 32) - 1]
    module = _module(I32, [VEC],
                     lambda b, v: b.extractelement(v, Constant(I32, index)))
    seen, _ = _drive(module, np.array(values, dtype=np.uint32))
    kind, value = _agree(seen)
    assert kind == "ok" and value == values[index % LANES]
    assert type(value) is int


@pytest.mark.parametrize("op", ["add", "sub", "and", "or", "xor", "umax"])
def test_atomicrmw_inline_forms(op):
    """The integer forms inline as ``(old OP x) & MASK``; the rest keep
    the impl.  Same memory, same returned old value."""
    ptr = PointerType(I32)
    module = _module(I32, [ptr],
                     lambda b, p: b.atomicrmw(op, p, Constant(I32, 0xFFFFFFF0)))
    images = {}

    def setup(interp):
        addr = interp.memory.alloc_array(np.array([0x1234], dtype=np.uint32))
        images[id(interp)] = (interp, addr)
        return (addr,)

    seen, _ = _drive(module, setup=setup)
    assert _agree(seen) == ("ok", 0x1234)
    cells = {int(i.memory.read_array(a, np.uint32, 1)[0])
             for i, a in images.values()}
    assert len(cells) == 1


def test_errstate_is_installed_only_where_a_flag_can_be_raised():
    from repro.ir import F32

    lanes = np.arange(1, LANES + 1, dtype=np.uint32)
    adding = _module(VEC, [VEC], lambda b, v: b.add(v, v))
    dividing = _module(VEC, [VEC], lambda b, v: b.udiv(v, v))
    converting = _module(VectorType(F32, LANES), [VEC],
                         lambda b, v: b.uitofp(v, VectorType(F32, LANES)))
    for module, wants in ((adding, False), (dividing, True),
                          (converting, True)):
        interp = Interpreter(module)
        interp.run("f", lanes)
        assert ("(all='ignore')" in _source(interp)) is wants


def _diamond(bound):
    """``f(x)``: ``x + 1`` if ``3 < bound`` else ``x * 3`` — a condition
    the emitter folds — joined by a phi."""
    module = Module("t")
    f = Function("f", FunctionType(I32, (I32,)), ["x"])
    module.add_function(f)
    entry, yes, no, join = (f.add_block(name)
                            for name in ("entry", "yes", "no", "join"))
    b = IRBuilder(f, entry)
    b.condbr(b.icmp("ult", Constant(I32, 3), Constant(I32, bound)), yes, no)
    b.position_at_end(yes)
    plus = b.binop("add", f.args[0], Constant(I32, 1))
    b.br(join)
    b.position_at_end(no)
    times = b.binop("mul", f.args[0], Constant(I32, 3))
    b.br(join)
    b.position_at_end(join)
    phi = b.phi(I32)
    for value, block in ((plus, yes), (times, no)):
        phi.append_operand(value)
        phi.append_operand(block)
    b.ret(phi)
    verify_function(f)
    return module


@pytest.mark.parametrize("bound,want", [(5, 11), (2, 30)])
def test_a_known_branch_condition_emits_only_its_taken_arm(bound, want):
    seen, interp = _drive(_diamond(bound), 10)
    assert _agree(seen) == ("ok", want)
    source = _source(interp)
    assert not _KNOWN_BRANCH.search(source) and "else:" not in source
    assert ("(a0 + " in source) == (bound > 3), source
    assert ("(a0 * " in source) == (bound <= 3), source


#: A branch on a hoisted scalar: ``if _h3:``, ``if not (_h3):``, or a
#: compare of two hoisted values.
_KNOWN_BRANCH = re.compile(
    r"^\s*(el)?if (not \()?_h\d+( [<>=!]+ _h\d+)?\)?:$", re.M)


def test_no_suite_build_branches_on_a_known_condition():
    """Across the 79 benchsuite builds no generated source tests a value
    it knew at emit time (GetRowSums' per-row ``if _h27:`` and ten
    others did)."""
    for spec in list(FIG4) + list(FIG5):
        module = driver.compile_parsimony(
            spec.psim_src, module_name=f"{spec.name}.parsimony")
        for function in module.functions.values():
            if function.blocks:
                source = codegen.generated_source(
                    function, AVX512, DEFAULT_COST_MODEL, module.fingerprint)
                assert not _KNOWN_BRANCH.search(source), (
                    spec.name, _KNOWN_BRANCH.search(source).group(0))
