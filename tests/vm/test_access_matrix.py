"""Trap-identity matrix for the memory access forms the code generator
specializes at emit time.

Every access form {scalar load/store, packed load/store under a constant
mask (all-true, prefix, holes, all-inactive), under a mask the emitter
folds at emit time (constant shuffle ``&`` constant) and under a runtime
mask (full, tail, holes, all-inactive), gather, scatter (constant and
runtime mask), atomicrmw} is driven at {an in-bounds address, the NULL
page, one byte past the logical end, straddling the physical capacity,
an address >= 2**63, an in-bounds address that is not lane-aligned} on
the codegen engine, the predecoded engine and the reference engine,
which must agree on the returned value, ``ExecStats``, trap class and
message, ``Memory.image()`` and ``Memory.extent``.
"""

import numpy as np
import pytest

from repro.ir import (
    I1,
    I32,
    Constant,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    PointerType,
    VectorType,
    verify_function,
)
from repro.ir.types import VOID
from repro.vm import Interpreter, Memory, MemoryError_

LANES = 8
SIZE = 1 << 16  # logical; the physical buffer starts at 4096 bytes
PTR = PointerType(I32)
VEC = VectorType(I32, LANES)
MASK = VectorType(I1, LANES)
PTRS = VectorType(PTR, LANES)
ALL_TRUE = Constant(MASK, [1] * LANES)

ENGINES = {
    "codegen": {},
    "predecoded": {"codegen": False},
    "reference": {"predecode": False},
}


def _function(ret, params, names, body):
    module = Module("t")
    f = Function("f", FunctionType(ret, tuple(params)), names)
    module.add_function(f)
    b = IRBuilder(f, f.add_block("entry"))
    b.ret(body(b, *f.args))
    verify_function(f)
    return module


#: form -> a module whose ``f`` performs exactly that access and returns
#: what it loaded (``.const``: constant all-true mask operand; ``.mask``:
#: the mask is an argument).
FORMS = {
    "load": _function(I32, [PTR], ["p"], lambda b, p: b.load(p)),
    "store": _function(
        VOID, [PTR], ["p"],
        lambda b, p: b.store(Constant(I32, 0xC0FFEE), p) and None),
    "atomicrmw": _function(
        I32, [PTR], ["p"],
        lambda b, p: b.atomicrmw("add", p, Constant(I32, 5))),
    "vload.const": _function(
        VEC, [PTR], ["p"], lambda b, p: b.vload(p, LANES, ALL_TRUE)),
    "vstore.const": _function(
        VOID, [PTR, VEC], ["p", "v"],
        lambda b, p, v: b.vstore(v, p, ALL_TRUE) and None),
    "vload.mask": _function(
        VEC, [PTR, MASK], ["p", "m"], lambda b, p, m: b.vload(p, LANES, m)),
    "vstore.mask": _function(
        VOID, [PTR, VEC, MASK], ["p", "v", "m"],
        lambda b, p, v, m: b.vstore(v, p, m) and None),
    "gather.const": _function(
        VEC, [PTRS], ["ps"], lambda b, ps: b.gather(ps, ALL_TRUE)),
    "gather.mask": _function(
        VEC, [PTRS, MASK], ["ps", "m"], lambda b, ps, m: b.gather(ps, m)),
    "scatter.const": _function(
        VOID, [PTRS, VEC], ["ps", "v"],
        lambda b, ps, v: b.scatter(v, ps, ALL_TRUE) and None),
    "scatter.mask": _function(
        VOID, [PTRS, VEC, MASK], ["ps", "v", "m"],
        lambda b, ps, v, m: b.scatter(v, ps, m) and None),
}

MASKS = {
    "full": [1] * LANES,
    "tail": [1, 1, 1, 0, 0, 0, 0, 0],
    "holes": [0, 1, 0, 1, 1, 0, 1, 0],
    "gaps": [0, 1, 1, 0, 1, 1, 0, 1],  # holes, and the last lane active
    "none": [0] * LANES,
}


def _folded(b, lanes):
    """``lanes`` as the emitter meets it in AoS kernels: a constant
    shuffle ANDed with a constant, known only once both are folded."""
    rotated = Constant(MASK, lanes[1:] + lanes[:1])
    index = Constant(VectorType(I32, LANES),
                     [(i - 1) % LANES for i in range(LANES)])
    return b.and_(b.shuffle(rotated, index), ALL_TRUE)


# ``.c<mask>``: the mask operand is that constant; ``.f<mask>``: it folds
# to it at emit time.  What is active decides ``needed`` as in ``.mask``.
for _name, _lanes in MASKS.items():
    if _name == "full":
        continue  # ``.const`` above
    for _tag, _mask in (("c", lambda b, lanes=_lanes: Constant(MASK, lanes)),
                        ("f", lambda b, lanes=_lanes: _folded(b, lanes))):
        FORMS[f"vload.{_tag}{_name}"] = _function(
            VEC, [PTR], ["p"],
            lambda b, p, mask=_mask: b.vload(p, LANES, mask(b)))
        FORMS[f"vstore.{_tag}{_name}"] = _function(
            VOID, [PTR, VEC], ["p", "v"],
            lambda b, p, v, mask=_mask: b.vstore(v, p, mask(b)) and None)

VALUES = np.arange(1, LANES + 1, dtype=np.uint32) * 0x01010101


def _static_mask(form):
    """The ``MASKS`` key a ``.c*``/``.f*`` form bakes in, else ``None``."""
    tag = form.partition(".")[2]
    return tag[1:] if tag[:1] in ("c", "f") and tag[1:] in MASKS else None


def _cases():
    for form in FORMS:
        for mask in MASKS if form.endswith(".mask") else (None,):
            for where in ("inside", "null", "past-end", "straddle", "huge",
                          "misaligned"):
                yield pytest.param(form, mask, where,
                                   id=f"{form}-{mask or 'x'}-{where}")


def _address(where, nbytes, base, capacity):
    return {
        "inside": base + 16,
        "null": 8,
        "past-end": SIZE - nbytes + 1,
        # Inside the logical image, across the end of the physical buffer
        # (and, at 4 bytes, not lane-aligned either).
        "straddle": capacity - (nbytes // 2 if nbytes > 4 else 2),
        "huge": (1 << 63) + 64,
        # In bounds, but off the typed view generated code slices.
        "misaligned": base + 18,
    }[where]


def _drive(form, mask, where, engine):
    """One launch on a fresh interpreter; everything observable about it."""
    interp = Interpreter(FORMS[form], memory=Memory(SIZE), **ENGINES[engine])
    memory = interp.memory
    base = memory.alloc_array(np.arange(100, 164, dtype=np.uint32))
    capacity = len(memory.data)
    assert capacity < SIZE  # "straddle" means something
    kind = form.split(".")[0]
    if kind in ("gather", "scatter"):
        # Lane 2 carries the address under test; lane 5 repeats lane 1 so
        # a scatter has a collision to resolve in lane order.
        addrs = base + 8 * np.arange(LANES, dtype=np.uint64)
        addrs[5] = addrs[1]
        addrs[2] = _address(where, 4, base, capacity)
        args = [addrs]
    elif kind in ("vload", "vstore"):
        # A masked packed access is bounded by its last active lane.
        lanes = MASKS[mask or _static_mask(form) or "full"]
        active = np.flatnonzero(lanes)
        needed = int(active[-1]) + 1 if active.size else LANES
        args = [_address(where, 4 * needed, base, capacity)]
    else:
        args = [_address(where, 4, base, capacity)]
    if kind in ("vstore", "scatter"):
        args.append(VALUES)
    if mask is not None:
        args.append(np.array(MASKS[mask], dtype=bool))
    try:
        returned = interp.run("f", *args)
        outcome = ("ok", None if returned is None
                   else np.asarray(returned).tolist())
    except MemoryError_ as exc:
        outcome = (type(exc).__name__, str(exc))
    stats = interp.stats
    return {
        "outcome": outcome,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "counts": dict(stats.counts),
        "image": memory.image(),
        "extent": memory.extent,
    }, interp


@pytest.mark.parametrize("form,mask,where", _cases())
def test_access_forms_agree_across_engines(form, mask, where):
    want, _ = _drive(form, mask, where, "reference")
    trapped = want["outcome"][0] != "ok"
    # What the matrix is meant to hit: every bad address traps unless no
    # lane that carries it is active.
    lane2_active = mask is None or MASKS[mask][2]
    touches = (lane2_active if form.split(".")[0] in ("gather", "scatter")
               else "none" not in (mask, _static_mask(form)))
    assert trapped == (where in ("null", "past-end", "huge") and touches)
    if trapped:
        expected = "NULL-page" if where == "null" else f"of {SIZE}"
        assert expected in want["outcome"][1]
    for engine in ("predecoded", "codegen"):
        got, interp = _drive(form, mask, where, engine)
        context = f"{form}/{mask}/{where} on {engine}"
        for key in ("outcome", "cycles", "instructions", "counts", "extent"):
            assert got[key] == want[key], f"{context}: {key}"
        np.testing.assert_array_equal(got["image"], want["image"],
                                      err_msg=f"{context}: image")
        if engine == "codegen":
            report = interp.codegen_report()
            assert not report["bailouts"], report
            assert report["calls"] == 1 and report["replays"] == trapped


def test_a_trapping_store_leaves_the_image_untouched():
    """Trap-before-any-write on the inline paths: the range test covers
    the whole access, so nothing is written before the slow path traps."""
    before, _ = _drive("load", None, "inside", "codegen")
    for form, mask in (("store", None), ("vstore.const", None),
                       ("atomicrmw", None), ("vstore.ctail", None),
                       ("vstore.choles", None), ("vstore.fholes", None),
                       ("vstore.mask", "full")):
        got, _ = _drive(form, mask, "past-end", "codegen")
        assert got["outcome"][0] == "MemoryError_", form
        np.testing.assert_array_equal(got["image"], before["image"])
        assert got["extent"] == before["extent"]


def _packed_inline_cases():
    for form in FORMS:
        if form.split(".")[0] in ("vload", "vstore"):
            for mask in MASKS if form.endswith(".mask") else (None,):
                yield pytest.param(form, mask, id=f"{form}-{mask or 'x'}")


@pytest.mark.parametrize("form,mask", _packed_inline_cases())
def test_which_packed_accesses_stay_out_of_memory(form, mask, monkeypatch):
    """An aligned in-bounds packed access runs inline whenever its mask is
    known at emit time — constant or folded, whatever its shape — or is a
    runtime mask with every lane set; a partial runtime mask, and
    anything off the typed view, goes to the one implementation in
    ``Memory`` (which the other two engines always call)."""
    calls = []
    for name in ("load_lanes", "store_lanes"):
        real = getattr(Memory, name)
        monkeypatch.setattr(
            Memory, name,
            lambda self, *a, _real=real, _name=name: (
                calls.append(_name), _real(self, *a))[1])
    _, interp = _drive(form, mask, "inside", "codegen")
    slow = {"vload": "load_lanes", "vstore": "store_lanes"}[form.split(".")[0]]
    assert calls == ([] if mask in (None, "full") else [slow])
    if _static_mask(form) and ".f" in form:
        (entry,) = interp.module.functions["f"]._emissions
        assert "folded=2 " in entry[3]  # the shuffle and the ``and``
    calls.clear()
    _drive(form, mask, "misaligned", "codegen")
    assert len(calls) == (0 if _static_mask(form) == "none" else 1)
    calls.clear()
    _drive(form, mask, "inside", "predecoded")
    assert len(calls) == 1
