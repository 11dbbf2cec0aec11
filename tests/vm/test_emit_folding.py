"""Emit-time folding never changes behaviour: one directed case per rule.

The code generator evaluates, once, every pure instruction whose operands
it knows at emit time, and picks cheaper host primitives for a few ops
(``count_nonzero`` for the mask reductions, ``empty``+``fill`` for
``broadcast``, a sign-bit XOR for a narrow ``gep`` index, a literal lane
for ``extractelement``, a masked Python expression for integer
``atomicrmw``).  Each case runs on the codegen, predecoded and reference
engines, which must agree on the returned value, ``ExecStats`` and the
trap.
"""

import numpy as np
import pytest

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
    "predecoded": {"codegen": False},
    "reference": {"predecode": False},
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
    (entry,) = interp.module.functions["f"]._emissions
    return entry[3]


def _agree(seen):
    want = seen["reference"]
    for engine in ("predecoded", "codegen"):
        got = seen[engine]
        np.testing.assert_equal(got[0], want[0], err_msg=engine)
        assert got[1:] == want[1:], engine
    return want[0]


@pytest.mark.parametrize("op", ["udiv", "urem", "sdiv", "srem"])
def test_constant_division_by_a_zero_lane_traps_at_run_time(op):
    """All operands constant, but evaluating it raises: not folded, and
    the launch traps with the predecoded engine's words."""
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
