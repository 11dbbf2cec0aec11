"""Trap-identity matrix for the memory access forms the code generator
specializes at emit time.

Every access form {scalar load/store, packed load/store under a constant
mask (all-true, prefix, holes, all-inactive), under a mask the emitter
folds at emit time (constant shuffle ``&`` constant) and under a runtime
mask (full, tail, holes, all-inactive), gather, scatter (constant and
runtime mask), atomicrmw} is driven at {an in-bounds address, the NULL
page, one byte past the logical end, straddling the physical capacity,
ending exactly at it, one element past it, an address >= 2**63, an
in-bounds address that is not lane-aligned} on
the codegen engine and the reference engine, which must agree on the returned value, ``ExecStats``, trap class and
message, ``Memory.image()`` and ``Memory.extent``.

The same holds for every view form of generated code — plain, contiguous
trip, row-strided trip, collapsed row nest, window load, window store
under static and under runtime masks, window copy — with its array inside
memory, ending it under a tail gang, misaligned, on the NULL page and past
the end; there the launch replays on the reference engine exactly when a
range test fails.

And it holds for a collapsed row nest's per-row cells — a row prologue's
store and a per-row atomic, ``sums[y]`` for each row of the trip — which
generated code updates as one strided view (``smin``/``smax`` on its
signed view), and whose range test sends cells outside the physical
buffer, on the NULL page or past the end to a replay.
"""

import re

import numpy as np
import pytest

from repro.backend import codegen as cg
from repro.backend.codegen import _Emitter
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.ir import (
    F64,
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
from repro.ir.types import VOID
from repro import driver
from repro.diagnostics import ExecutionError
from repro.vm import Interpreter, Memory, MemoryError_
from repro.vm.memory import NULL_GUARD
from repro.vm.nputil import elem_dtype

LANES = 8
SIZE = 1 << 16  # logical; the physical buffer starts at 4096 bytes
PTR = PointerType(I32)
VEC = VectorType(I32, LANES)
MASK = VectorType(I1, LANES)
PTRS = VectorType(PTR, LANES)
ALL_TRUE = Constant(MASK, [1] * LANES)

ENGINES = {
    "codegen": {},
    "reference": {"codegen": False},
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
            for where in ("inside", "null", "past-end", "straddle", "fit",
                          "edge", "huge", "misaligned"):
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
        # Ending exactly where the physical buffer does, and one (4-byte)
        # element past it: the range test's boundary.
        "fit": capacity - nbytes,
        "edge": capacity - nbytes + 4,
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
    got, interp = _drive(form, mask, where, "codegen")
    context = f"{form}/{mask}/{where} on codegen"
    for key in ("outcome", "cycles", "instructions", "counts", "extent"):
        assert got[key] == want[key], f"{context}: {key}"
    np.testing.assert_array_equal(got["image"], want["image"],
                                  err_msg=f"{context}: image")
    report = interp.codegen_report()
    assert not report["bailouts"], report
    rejected = _range_test_rejects(form, mask, where)
    assert rejected or not trapped
    assert report["calls"] == 1 and report["replays"] == rejected


def _range_test_rejects(form, mask, where) -> bool:
    """Whether the matrix's access fails its inline range test, so the
    launch replays on the reference engine."""
    kind = form.split(".")[0]
    lane2_active = mask is None or MASKS[mask][2]
    if kind == "scatter":  # always ``Memory``: only a trap replays
        return lane2_active and where in ("null", "past-end", "huge")
    if where == "inside":
        return False
    if kind in ("load", "store", "atomicrmw"):
        # ``struct`` takes any byte address.
        return where not in ("fit", "misaligned")
    if kind == "gather":  # the test covers the active lanes
        return lane2_active and where != "fit"
    # A runtime mask's test covers every lane, past the last active one.
    if where == "fit":
        return form.endswith(".mask") and any(MASKS[mask]) \
            and not MASKS[mask][-1]
    # No active lane known at emit time: nothing to test.
    return _static_mask(form) != "none"


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
    """An aligned in-bounds packed access runs inline whatever its mask:
    known at emit time — constant or folded, whatever its shape — or a
    runtime mask, all lanes set or not (a load zeroes the inactive lanes,
    a store writes the active ones); anything off the typed view replays
    the launch on the reference engine, which runs it through the one
    implementation in ``Memory``."""
    calls = []
    for name in ("load_lanes", "store_lanes"):
        real = getattr(Memory, name)
        monkeypatch.setattr(
            Memory, name,
            lambda *a, _real=real, _name=name: (
                calls.append(_name), _real(*a))[1])
    _, interp = _drive(form, mask, "inside", "codegen")
    assert calls == [] and interp.codegen_report()["replays"] == 0
    if _static_mask(form) and ".f" in form:
        source, _ = _Emitter(interp.module.functions["f"], interp.machine,
                             interp.cost_model).emit()
        assert "folded=2 " in source  # the shuffle and the ``and``
    calls.clear()
    _, interp = _drive(form, mask, "misaligned", "codegen")
    # One replay, then the reference engine's one call of ``Memory``.
    kind = form.split(".")[0]
    silent = _static_mask(form) == "none"
    assert interp.codegen_report()["replays"] == (not silent)
    assert calls == ([] if silent else [f"{kind[1:]}_lanes"])
    calls.clear()
    _drive(form, mask, "inside", "reference")
    assert len(calls) == 1


# -- the range-test replay, across every view form ---------------------------------
#
# Every packed access of generated code is a view — ``(rows, gangs, lanes)``
# slots a row stride and a per-gang delta apart, its lanes ``s`` elements
# apart — and whatever a view's range test rejects replays the launch on
# the reference engine.  Each view form below runs
# with the array it accesses placed inside memory (allocated one gang
# short, so its stores set the extent), ending memory under a tail gang
# whose inactive lanes fall off the end, misaligned, on the NULL page and
# past the end (its first gang fits, the next does not: a store traps
# after writing it): the batched (or, for ``plain``, unbatched) build on
# the codegen engine must leave what the reference engine leaves, and
# replay exactly when a range test fails — always where the reference
# traps.

G = 8

FLAT = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        dst[i] = src[i] * (u16)3 + (u16)1;
    }
}
"""

#: Packed within a gang, gangs two gangs' lanes apart: ``row_stride``.
ROW_STRIDED = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 l = psim_get_lane_num();
        u64 k = 2 * (psim_get_thread_num() - l) + l;
        dst[k] = src[k] + (u16)7;
    }
}
"""

NEST = """
void kernel(u16* src, u16* dst, u64 w, u64 h) {
    for (u64 y = 0; y < h; y++) {
        u64 row = y * w;
        psim (gang_size=8, num_threads=w) {
            u64 x = psim_get_thread_num();
            dst[row + x] = src[row + x] * (u16)5;
        }
    }
}
"""

WINDOW_LOAD = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        dst[i] = src[3 * i + 2] + src[3 * i];
    }
}
"""

WINDOW_STORE = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        u16 v = src[i];
        dst[3 * i] = v;
        dst[3 * i + 2] = v + v;
    }
}
"""

#: The runtime mask ``M`` inside the window group.
WINDOW_STORE_MASKED = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        u16 v = src[i];
        if ((v & (u16)1) == (u16)1) { dst[3 * i + 1] = v; }
    }
}
"""

#: A window load that only a window store reads: one view from another.
COPY = """
void kernel(u16* src, u16* dst, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        dst[3 * i] = src[4 * i];
        dst[3 * i + 1] = src[4 * i + 1];
    }
}
"""

N = 5 * G + 3  # a partial trip and a tail gang
W, H = 2 * G + 5, 4  # two full gangs and a tail per row

#: form -> (source, batch request, the array placed, elements of src and
#: dst: exactly what the threads touch).
VIEW_FORMS = {
    "plain": (FLAT, 0, "src", N, N),
    "trip": (FLAT, None, "dst", N, N),
    "row-strided": (ROW_STRIDED, None, "dst", 2 * N - 3, 2 * N - 3),
    "row-nest": (NEST, None, "dst", W * H, W * H),
    "window-load": (WINDOW_LOAD, None, "src", 3 * N, N),
    "window-store": (WINDOW_STORE, None, "dst", N, 3 * N),
    "window-store-masked": (WINDOW_STORE_MASKED, None, "dst", N, 3 * N - 1),
    "copy": (COPY, None, "src", 4 * N - 2, 3 * N - 1),
}
PLACEMENTS = ("inside", "tail", "misaligned", "null", "past-end")

#: Forms whose placed array a window load reads.
WINDOW_LOADS = {"window-load", "copy"}

#: A collapsed nest runs every access as an ``ndarray`` over the bytes,
#: which takes any address: misaligned, it stays inline.
ALIGNMENT_FREE = {"row-nest"}


def _view_launch(module, form, where, **engine):
    """One launch of ``form`` with its placed array ``where``: everything it
    leaves."""
    source, _, placed, n_src, n_dst = VIEW_FORMS[form]
    rng = np.random.default_rng(len(form))
    arrays = {"src": rng.integers(0, 1 << 16, n_src, dtype=np.uint16),
              "dst": rng.integers(0, 1 << 16, n_dst, dtype=np.uint16)}
    other = "dst" if placed == "src" else "src"
    size = 1 << 20
    if where == "tail":  # the placed array ends memory
        size = (64 + arrays[other].nbytes + 63) // 64 * 64 \
            + arrays[placed].nbytes
    interp = Interpreter(module, memory=Memory(size), **engine)
    memory = interp.memory
    addrs = {other: memory.alloc_array(arrays[other])}
    if where == "inside":
        # One gang short: its last gang reads and writes past every
        # allocation, so the extent ends where its stores do.
        addrs[placed] = memory.alloc_array(arrays[placed][:-G])
    elif where == "tail":
        addrs[placed] = memory.alloc_array(arrays[placed])
    elif where == "misaligned":
        addrs[placed] = memory.alloc(arrays[placed].nbytes + 64) + 1
        memory.write_array(addrs[placed], arrays[placed])
    else:
        addrs[placed] = 0 if where == "null" else size - 16
    scalars = [W, H] if form == "row-nest" else [N]
    trap = None
    try:
        interp.run("kernel", addrs["src"], addrs["dst"], *scalars)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": memory.image().tobytes(),
        "extent": memory.extent,
    }, interp


@pytest.mark.parametrize("where", PLACEMENTS)
@pytest.mark.parametrize("form", sorted(VIEW_FORMS))
def test_every_view_form_leaves_what_the_reference_leaves(form, where):
    source, batch = VIEW_FORMS[form][:2]
    reference = driver.compile_parsimony(source, batch_request=0)
    want, _ = _view_launch(reference, form, where, codegen=False)
    module = driver.compile_parsimony(source, batch_request=batch)
    if batch is None:
        assert module.attrs["batch_applied"], module.attrs["batch_rejected"]
    got, interp = _view_launch(module, form, where)
    assert got == want, (form, where)
    # A tail gang's window load reads every lane's position: placed
    # last, its source runs past the end.
    assert (want["trap"] is not None) == (where in ("null", "past-end")
                                          or where == "tail"
                                          and form in WINDOW_LOADS)
    report = interp.codegen_report()
    assert not report["bailouts"]
    in_range = where == "inside" or where == "misaligned" \
        and form in ALIGNMENT_FREE
    assert report["replays"] == (not in_range), (
        form, where)


def test_a_runtime_mask_store_raises_the_extent_to_its_highest_lane():
    """The extent a view store under a runtime mask leaves
    (``_last_lane_end``): the end of its highest active lane, as the IR's
    stores, one per window, leave it — also where the gangs' windows
    interleave (each gang ``delta`` bytes past the last, less than a
    window spans), so the last active lane in slot order need not end
    highest."""
    rng = np.random.default_rng(5)
    width, step, es = 8, 6, 2  # a window spans 44 bytes
    # Interleaved gangs, interleaved rows, then slots in address order.
    for rows, gangs, rho, delta in ((1, 4, 0, 10), (2, 3, 200, 14),
                                    (3, 2, 64, 48), (2, 3, 200, 48),
                                    (3, 1, 44, 0), (1, 1, 0, 0)):
        for _ in range(50):
            mask = rng.random(rows * gangs * width) < 0.3
            want = max((k // width // gangs * rho + k // width % gangs * delta
                        + k % width * step + es
                        for k in np.flatnonzero(mask)), default=0)
            assert cg._last_lane_end(mask, width, gangs, rho, delta, es,
                                     step) == want, (rows, gangs, delta)


#: form -> (source, the array placed, its elements that four gangs of
#: threads touch, the scalars): no tail gang, so the last gang's view ends
#: exactly where the array does.
EDGE_FORMS = {
    "row-strided": (ROW_STRIDED, "dst", 56, [4 * G]),
    "row-nest": (NEST, "dst", 64, [2 * G, 4]),
    "window-load": (WINDOW_LOAD, "src", 96, [4 * G]),
    "window-store": (WINDOW_STORE, "dst", 96, [4 * G]),
}


def _edge_launch(module, form, short, **engine):
    """One launch of ``form`` with its placed array ending memory, ``short``
    elements short of what the threads touch; what it leaves, and how
    often it replayed."""
    source, placed, touched, scalars = EDGE_FORMS[form]
    other = "dst" if placed == "src" else "src"
    arrays = {other: np.arange(128, dtype=np.uint16) * 7,
              placed: np.arange(touched - short, dtype=np.uint16) * 3}
    size = 64 + arrays[other].nbytes + arrays[placed].nbytes
    interp = Interpreter(module, memory=Memory(size), **engine)
    addrs = {name: interp.memory.alloc_array(arrays[name])
             for name in (other, placed)}
    trap = None
    try:
        interp.run("kernel", addrs["src"], addrs["dst"], *scalars)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": interp.memory.image().tobytes(),
        "extent": interp.memory.extent,
    }, interp.codegen_report()["replays"]


@pytest.mark.parametrize("short", [0, 1], ids=["fit", "one-past"])
@pytest.mark.parametrize("form", sorted(EDGE_FORMS))
def test_a_view_ending_memory_replays_exactly_when_it_runs_past(form, short):
    """The boundary of the strided views' range test: a trip whose last
    gang ends exactly where memory does runs inline; one element more
    traps on the reference engine, and generated code replays there."""
    source = EDGE_FORMS[form][0]
    want, _ = _edge_launch(driver.compile_parsimony(source, batch_request=0),
                           form, short, codegen=False)
    assert (want["trap"] is not None) == bool(short)
    module = driver.compile_parsimony(source)
    assert module.attrs["batch_applied"], module.attrs["batch_rejected"]
    got, replays = _edge_launch(module, form, short)
    assert got == want, (form, short)
    assert replays == short, (form, short)


#: What each form's build must emit for the matrix to mean what it names.
VIEW_MARKERS = {
    "plain": r"_w\[_i:_i \+ 8\]",
    "trip": r"_w\[_i:_i \+ _n\]",
    "row-strided": r"\(\(_r, 8\), _h\d+, _d, v\d+, \(32, 2\)\)",
    "row-nest": r"\(\(_R, _g, 8\), _h\d+, _d, v\d+, \(_rs0, 16, 2\)\)",
    "window-load": r"v\d+ = _h\d+\(\(_r, 8\), _h\d+, _d, v\d+, \(48, 6\)\)",
    "window-store": r"\(48, 6\)\)\[\.\.\.\] = v\d+\.reshape",
    "window-store-masked": r"\(48, 6\)\), v\d+\.reshape\(_r, 8\), where=",
    "copy": r"\(48, 6\)\)\[\.\.\.\] = _h\d+\(\(_r, 8\)",
}


@pytest.mark.parametrize("form", sorted(VIEW_FORMS))
def test_each_view_form_emits_the_view_it_names(form):
    source, batch = VIEW_FORMS[form][:2]
    module = driver.compile_parsimony(source, batch_request=batch)
    text = cg.generated_source(module.functions["kernel"], AVX512,
                               DEFAULT_COST_MODEL, module.fingerprint)
    assert re.search(VIEW_MARKERS[form], text), form
    assert ("_r = " in text) == (batch is None)


#: A row prologue's store and a per-row atomic of a collapsed nest.
ROW_CELLS = """
void kernel(u16* src, i32* sums, u64 w, u64 h) {
    for (u64 y = 0; y < h; y++) {
        sums[y] = (i32)7;
        u64 row = y * w;
        psim (gang_size=8, num_threads=w) {
            u64 x = psim_get_thread_num();
            i32 t = psim_reduce_add_sync((i32)src[row + x] - (i32)40);
            if (psim_get_lane_num() == 0) { %s(sums + y, t); }
        }
    }
}
"""

#: case -> (the atomic, where ``sums`` is: allocated, or an address).
ROW_CELL_CASES = {
    "inside": ("psim_atomic_add", None),
    "signed-min": ("psim_atomic_smin", None),
    "signed-max": ("psim_atomic_smax", None),
    # The cells end exactly where the physical buffer does, or one past.
    "buffer-fit": ("psim_atomic_add", "fit"),
    "buffer-edge": ("psim_atomic_add", "edge"),
    "beyond-buffer": ("psim_atomic_add", 1 << 19),
    "null": ("psim_atomic_add", 0),
    "past-end": ("psim_atomic_add", (1 << 20) - 8),
}


def _row_cell_launch(module, case, **engine):
    interp = Interpreter(module, memory=Memory(1 << 20), **engine)
    memory = interp.memory
    src = memory.alloc_array(np.arange(W * H, dtype=np.uint16) * 7 % 97)
    sums = ROW_CELL_CASES[case][1]
    if sums is None:
        sums = memory.alloc_array(np.zeros(H, np.int32))
    elif isinstance(sums, str):
        sums = len(memory.data) - (H - (sums == "edge")) * 4
    trap = None
    try:
        interp.run("kernel", src, sums, W, H)
    except ExecutionError as exc:
        trap = f"{type(exc).__name__}: {exc}"
    stats = interp.stats
    return {
        "trap": trap,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": memory.image().tobytes(),
        "extent": memory.extent,
    }, interp


@pytest.mark.parametrize("case", sorted(ROW_CELL_CASES))
def test_row_cells_leave_what_the_reference_leaves(case):
    source = ROW_CELLS % ROW_CELL_CASES[case][0]
    want, _ = _row_cell_launch(driver.compile_parsimony(
        source, batch_request=0), case, codegen=False)
    module = driver.compile_parsimony(source)
    assert any(" rows of " in e for e in module.attrs["batch_applied"])
    got, interp = _row_cell_launch(module, case)
    assert got == want, case
    assert (want["trap"] is not None) == (case in ("null", "past-end"))
    # Cells the strided view cannot serve replay the launch; signed
    # atomics fold on the view like the others.
    assert interp.codegen_report()["replays"] == (
        case in ("beyond-buffer", "buffer-edge", "null", "past-end")), case


# -- masked gathers: one typed index of the lane view --------------------------------
#
# Generated code reads a gather's active lanes as ``_mem.lanes[k][ix >>
# shift]`` behind one range test — every active address at or above the
# NULL page, inside the typed view, aligned — and replays the launch for
# whatever the test rejects; an element with no inline view (i1) calls
# ``Memory.gather``.  No active lane is ``zeros`` without a test.  Each
# case: lane 2 carries the address under test, the other lanes read the
# array.

GATHER_ELEMS = {"i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64,
                "f64": F64}

#: mask -> its lanes (``None``: the constant all-true operand; ``c``: a
#: constant operand, else an argument).
GATHER_MASKS = {
    "const": None,
    "full": [1] * LANES,
    "gaps": MASKS["gaps"],  # lane 2 active
    "holes": MASKS["holes"],  # lane 2 inactive
    "none": MASKS["none"],
    "cnone": MASKS["none"],
}

GATHER_PLACES = ("inside", "null", "beyond-buffer", "past-end", "misaligned")


def _gather_module(elem, mask):
    ptrs = VectorType(PointerType(elem), LANES)
    vec = VectorType(elem, LANES)
    if mask in ("const", "cnone"):
        lanes = Constant(MASK, [1] * LANES if mask == "const"
                         else GATHER_MASKS[mask])
        return _function(vec, [ptrs], ["ps"],
                         lambda b, ps: b.gather(ps, lanes))
    return _function(vec, [ptrs, MASK], ["ps", "m"],
                     lambda b, ps, m: b.gather(ps, m))


def _gather_address(where, es, base, capacity):
    return {
        "inside": base + 2 * es,
        "null": NULL_GUARD - es,  # the last element below the guard
        "beyond-buffer": capacity,  # the first element past the view
        "past-end": SIZE - es + 1,
        "misaligned": base + 2 * es + 1,
    }[where]


def _gather_launch(module, elem, mask, where, **engine):
    interp = Interpreter(module, memory=Memory(SIZE), **engine)
    memory = interp.memory
    dtype = elem_dtype(elem)
    values = np.arange(3, 67, dtype=np.uint64) * np.uint64(0x0123456789ABCDEF)
    array = values % 3 == 0 if dtype.kind == "b" \
        else values.view(np.float64) if dtype.kind == "f" \
        else values.astype(dtype)
    base = memory.alloc_array(array)
    capacity = len(memory.data)
    es = dtype.itemsize
    addrs = base + 3 * es * np.arange(LANES, dtype=np.uint64)
    addrs[2] = _gather_address(where, es, base, capacity)
    args = [addrs]
    if mask not in ("const", "cnone"):
        args.append(np.array(GATHER_MASKS[mask], dtype=bool))
    try:
        returned = interp.run("f", *args)
        outcome = ("ok", np.asarray(returned).view(f"u{es}").tolist())
    except MemoryError_ as exc:
        outcome = (type(exc).__name__, str(exc))
    stats = interp.stats
    return {
        "outcome": outcome,
        "stats": (stats.cycles, stats.instructions, dict(stats.counts)),
        "image": memory.image().tobytes(),
        "extent": memory.extent,
        "grown": len(memory.data) > capacity,
    }, interp


@pytest.mark.parametrize("where", GATHER_PLACES)
@pytest.mark.parametrize("mask", sorted(GATHER_MASKS))
@pytest.mark.parametrize("elem", sorted(GATHER_ELEMS))
def test_gathers_leave_what_the_reference_leaves(elem, mask, where,
                                                 monkeypatch):
    t = GATHER_ELEMS[elem]
    module = _gather_module(t, mask)
    want, _ = _gather_launch(module, t, mask, where, codegen=False)
    lanes = GATHER_MASKS[mask]
    tested = lanes is None or lanes[2]  # lane 2 active
    assert (want["outcome"][0] != "ok") == (
        tested and where in ("null", "past-end"))
    if where == "past-end" and tested:
        assert f"of {SIZE}" in want["outcome"][1]
    assert want["grown"] == (where == "beyond-buffer" and tested)
    calls = []
    real = Memory.gather
    monkeypatch.setattr(Memory, "gather", lambda self, *a: (
        calls.append(a), real(self, *a))[1])
    got, interp = _gather_launch(module, t, mask, where)
    assert got == want, (elem, mask, where)
    report = interp.codegen_report()
    assert not report["bailouts"] and report["calls"] == 1
    es = elem_dtype(t).itemsize
    in_range = where == "inside" or not tested or (
        where == "misaligned" and es == 1)
    if t is I1:
        assert calls  # no inline view of i1 lanes: ``Memory`` decides
        assert report["replays"] == (want["outcome"][0] != "ok")
    else:
        assert report["replays"] == (not in_range), (elem, mask, where)


def test_an_inline_gather_is_one_index_of_the_lane_view():
    module = _gather_module(I32, "gaps")
    text = cg.generated_source(module.functions["f"], AVX512,
                               DEFAULT_COST_MODEL)
    assert "gathers=1" in text and "slow=0" in text
    assert re.search(r"_w = _mem\.lanes\[3\]\n.*_q = _x >> 2\n", text)
    assert re.search(r"v\d+\[a1\] = _w\[_q\]", text)
    i1 = cg.generated_source(_gather_module(I1, "gaps").functions["f"],
                             AVX512, DEFAULT_COST_MODEL)
    assert "gathers=" not in i1 and "slow=1" in i1
