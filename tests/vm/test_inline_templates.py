"""Property tests (hypothesis): codegen's inline templates against the
one resolver.

The code generator writes the hot ops as raw Python or numpy expressions
(``_Emitter._scalar_expr``, ``_Emitter._vec_expr``) instead of calling
the instruction's :func:`repro.vm.ops.value_impl`.  Those templates are
the only second definition of an opcode in the tree.  Each test here
asks the emitter for the expression it writes for one instruction,
evaluates it the way generated code runs (empty ``__builtins__``, the
emitter's hoisted bindings, ``np.seterr(all="ignore")``) and compares
the result bit for bit with ``value_impl`` on payloads that include
NaN, ±0.0, ±inf and integer wraparound.  Every opcode and predicate of
the template tables is covered, so a template added to a table is
checked without touching this file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import codegen as cg
from repro.driver import compile_parsimony, compile_scalar
from repro.backend.costmodel import DEFAULT_COST_MODEL
from repro.backend.machine import AVX512
from repro.ir import Function, FunctionType, IRBuilder, Instruction, UndefValue
from repro.ir.types import (F32, F64, I1, I8, I16, I32, I64, PointerType,
                            VectorType, VOID)
from repro.vm import Interpreter
from repro.vm.nputil import elem_dtype
from repro.vm.ops import (VEC_CAST_ASTYPE, eval_scalar_cast,
                          eval_vector_cast, eval_vector_fcmp, value_impl)

LANES = 8
INTS = [I8, I16, I32, I64]
FLOATS = [F32, F64]
_SPECIAL_FLOATS = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf,
                   1.0, -1.0]


def floats(t):
    return st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                     st.floats(width=t.bits))


def ints(t):
    mx = (1 << t.bits) - 1
    edges = sorted({0, 1, mx, mx >> 1, (mx >> 1) + 1})
    return st.one_of(st.sampled_from(edges), st.integers(0, mx))


def scalars(t):
    return floats(t) if t.is_float else ints(t)


def lanes(t):
    """A vector payload of ``t`` lanes, as the engines hold one."""
    return st.lists(scalars(t), min_size=LANES, max_size=LANES).map(
        lambda xs: np.array(xs, dtype=elem_dtype(t)))


def _instr(op, type, operand_types, **attrs):
    return Instruction(op, type, [UndefValue(t) for t in operand_types],
                       attrs=attrs)


def _emitter():
    f = Function("f", FunctionType(VOID, ()))
    IRBuilder(f, f.add_block("entry")).ret()
    return cg._Emitter(f, AVX512, DEFAULT_COST_MODEL)


def _template(ins, vector: bool):
    """The expression the emitter writes for ``ins`` over operands
    ``x0``, ``x1``…, and the bindings it evaluates against.  An operand
    the emitter reads as signed lanes is passed as its signed view, as
    ``_Emitter.ref`` writes it for a value not known at emit time."""
    em = _emitter()
    signed = em._reads_signed(ins) if vector else None
    refs = [f"x{i}" if signed is None else f"x{i}.view({signed})"
            for i in range(len(ins.operands))]
    expr = (em._vec_expr if vector else em._scalar_expr)(ins, refs)
    return expr, dict(em.hoisted)


def _kind(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape)
    return type(value).__name__


def _raw(value):
    """Lanes as unsigned bit patterns (floats reinterpreted)."""
    v = np.atleast_1d(np.asarray(value))
    return v.view(f"u{v.dtype.itemsize}") if v.dtype.kind == "f" else v


def _nan(value):
    v = np.atleast_1d(np.asarray(value))
    return np.isnan(v) if v.dtype.kind == "f" else np.zeros(v.shape, bool)


def check(ins, payloads, vector: bool):
    """The template and ``value_impl`` agree in type and in every bit —
    except the NaN a lane returns when two of its operands are NaN,
    which IEEE 754 leaves open (x86 returns the first source operand's,
    and which operand the C compiler puts first is its choice)."""
    expr, scope = _template(ins, vector)
    assert expr is not None, f"no inline template for {ins.opcode}"
    scope.update((f"x{i}", p) for i, p in enumerate(payloads))
    with np.errstate(all="ignore"):
        got = eval(expr, {"__builtins__": {}}, scope)
        want = value_impl(ins)(*payloads)
    assert _kind(got) == _kind(want), (expr, got, want)
    open_nan = _nan(got) & _nan(want) & (sum(map(_nan, payloads)) >= 2)
    same = (_raw(got) == _raw(want)) | open_nan
    assert same.all(), (expr, payloads, got, want)


# -- vector ops ------------------------------------------------------------------

_VEC_FLOAT_OPS = sorted(set(cg._VEC_FBIN) | {"fmin", "fmax", "frem"})
_VEC_INT_OPS = sorted(set(cg._VEC_IBIN) | {"umin", "umax", "smin", "smax"})


@pytest.mark.parametrize("elem", FLOATS, ids=str)
@pytest.mark.parametrize("op", _VEC_FLOAT_OPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vector_float_binop_templates(op, elem, data):
    vt = VectorType(elem, LANES)
    a, b = data.draw(lanes(elem)), data.draw(lanes(elem))
    check(_instr(op, vt, [vt, vt]), [a, b], vector=True)


@pytest.mark.parametrize("elem", INTS, ids=str)
@pytest.mark.parametrize("op", _VEC_INT_OPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vector_int_binop_templates(op, elem, data):
    vt = VectorType(elem, LANES)
    a, b = data.draw(lanes(elem)), data.draw(lanes(elem))
    check(_instr(op, vt, [vt, vt]), [a, b], vector=True)


@pytest.mark.parametrize("op", sorted(cg._VEC_BBIN))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vector_bool_binop_templates(op, data):
    vt = VectorType(I1, LANES)
    a, b = data.draw(lanes(I1)), data.draw(lanes(I1))
    check(_instr(op, vt, [vt, vt]), [a, b], vector=True)


@pytest.mark.parametrize("elem", FLOATS, ids=str)
@pytest.mark.parametrize("pred", sorted(cg._VEC_FCMP))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vector_fcmp_templates(pred, elem, data):
    vt = VectorType(elem, LANES)
    a, b = data.draw(lanes(elem)), data.draw(lanes(elem))
    ins = _instr("fcmp", VectorType(I1, LANES), [vt, vt], pred=pred)
    check(ins, [a, b], vector=True)


@pytest.mark.parametrize("elem", INTS, ids=str)
@pytest.mark.parametrize("pred", sorted(set(cg._CMP_U) | set(cg._CMP_S)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vector_icmp_templates(pred, elem, data):
    vt = VectorType(elem, LANES)
    a, b = data.draw(lanes(elem)), data.draw(lanes(elem))
    ins = _instr("icmp", VectorType(I1, LANES), [vt, vt], pred=pred)
    check(ins, [a, b], vector=True)


#: (opcode, from, to) for every cast ``_vec_expr`` writes as a numpy
#: expression: the ``.astype`` table, and bitcast, sext and sitofp.
_VEC_CASTS = [
    ("trunc", I32, I8), ("trunc", I64, I16), ("zext", I8, I32),
    ("zext", I1, I32), ("zext", I16, I64), ("fptrunc", F64, F32),
    ("fpext", F32, F64), ("uitofp", I32, F32), ("uitofp", I64, F64),
    ("uitofp", I1, F32), ("ptrtoint", PointerType(I32), I64),
    ("inttoptr", I64, PointerType(I8)), ("bitcast", F32, I32),
    ("bitcast", I64, F64), ("sext", I8, I32), ("sext", I16, I64),
    ("sitofp", I32, F32), ("sitofp", I64, F64), ("fptosi", F32, I32),
    ("fptosi", F64, I8), ("fptoui", F32, I16), ("fptoui", F64, I32),
]


def test_every_astype_cast_is_covered():
    assert {op for op, _, _ in _VEC_CASTS} >= VEC_CAST_ASTYPE


@pytest.mark.parametrize("op,src,dst", _VEC_CASTS,
                         ids=lambda v: v if isinstance(v, str) else str(v))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vector_cast_templates(op, src, dst, data):
    scalar_src = I64 if isinstance(src, PointerType) else src
    v = data.draw(lanes(scalar_src)).astype(elem_dtype(src))
    ins = _instr(op, VectorType(dst, LANES), [VectorType(src, LANES)])
    check(ins, [v], vector=True)


#: Every pair of these is an ordered compare's corner: NaN of either
#: sign, infinities, signed zeros, units, the smallest denormal, the
#: largest finite value.
def _fcmp_corners(t):
    info = np.finfo(elem_dtype(t))
    return np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     1.0, -1.0, info.smallest_subnormal, info.max],
                    dtype=elem_dtype(t))


@pytest.mark.parametrize("elem", FLOATS, ids=str)
@pytest.mark.parametrize("pred", sorted(cg._VEC_FCMP))
def test_vector_fcmp_on_every_corner_pair(pred, elem):
    """Every ordered predicate over all pairs of corner values, bit for
    bit against ``ops.eval_vector_fcmp``: only ``one`` needs the NaN mask
    (numpy's ``!=`` is True on NaN), the others are the bare operator."""
    corners = _fcmp_corners(elem)
    a, b = np.repeat(corners, len(corners)), np.tile(corners, len(corners))
    vt = VectorType(elem, len(a))
    ins = _instr("fcmp", VectorType(I1, len(a)), [vt, vt], pred=pred)
    expr, scope = _template(ins, vector=True)
    assert ("isnan" in repr(scope)) == (pred == "one"), expr
    scope.update(x0=a, x1=b)
    with np.errstate(all="ignore"):
        got = eval(expr, {"__builtins__": {}}, scope)
    want = eval_vector_fcmp(pred, a, b)
    assert got.dtype == want.dtype and np.array_equal(got, want), (
        [(x, y) for x, y, g, w in zip(a, b, got, want) if g != w])


_CAST_CORNERS = [math.nan, math.inf, -math.inf, 0.5, -0.5, 2.0 ** 31,
                 -2.0 ** 31, 3e9, 2.0 ** 63, -2.0 ** 63, 1e19, -1e19,
                 2.0 ** 64, 3e38, -3e38]


@pytest.mark.parametrize("src", FLOATS, ids=str)
@pytest.mark.parametrize("dst", INTS, ids=str)
@pytest.mark.parametrize("op", ["fptosi", "fptoui"])
def test_vector_float_to_int_casts_on_corners(op, dst, src):
    """``fptosi``/``fptoui`` inline as ``ops.eval_vector_cast`` writes
    them (trunc → int64 → the target width; to 64-bit lanes
    ``float_lanes_to_int64``), on NaN, ±inf, ±0.5, ±2³¹, 3e9, ±2⁶³,
    ±1e19, 2⁶⁴ and ±3e38, bit for bit.  A finite corner is what the
    scalar cast leaves, its value modulo 2**bits: at 64 bits every one
    (a u64 lane holds 1e19), narrower every one an int64 holds (past the
    target's range the IR's value is poison)."""
    v = np.array(_CAST_CORNERS, dtype=elem_dtype(src))
    ins = _instr(op, VectorType(dst, len(v)), [VectorType(src, len(v))])
    expr, scope = _template(ins, vector=True)
    assert expr is not None, f"no inline template for {op}"
    scope["x0"] = v
    with np.errstate(all="ignore"):
        got = eval(expr, {"__builtins__": {}}, scope)
        want = eval_vector_cast(op, src, dst, v)
    assert got.dtype == want.dtype and np.array_equal(got, want), (
        v, got, want)
    for x, lane in zip(v.tolist(), got.tolist()):
        if math.isfinite(x) and (dst.bits == 64 or abs(x) < 2.0 ** 63):
            assert lane == int(x) % (1 << dst.bits) \
                == eval_scalar_cast(op, src, dst, x), (op, x, lane)


U64_CAST = """
void kernel(f32* a, u64* b, u64 n) {
    psim (gang_size=8, num_threads=n) {
        u64 i = psim_get_thread_num();
        b[i] = (u64)a[i];
    }
}
"""
U64_CAST_SERIAL = """
void kernel(f32* a, u64* b, u64 n) {
    for (u64 i = 0; i < n; i++) { b[i] = (u64)a[i]; }
}
"""


def test_a_float_to_u64_kernel_matches_the_scalar_build():
    """``b[i] = (u64)a[i]`` over f32 lanes in [0, 2**40), 2**63 and 1e19
    (past what an int64 holds), and a tail gang: the vector ``fptoui`` to
    64-bit lanes, on both engines, bit for bit what the scalar build
    leaves."""
    n = 8 * 5 + 3
    a = np.random.default_rng(40).uniform(0, 2.0 ** 40, n).astype(np.float32)
    a[[3, 17, n - 1]] = [2.0 ** 63, 1e19, 1e19]

    def run(module, **engine):
        interp = Interpreter(module, **engine)
        addrs = [interp.memory.alloc_array(a),
                 interp.memory.alloc_array(np.zeros(n, np.uint64))]
        interp.run("kernel", *addrs, n)
        return interp.memory.read_array(addrs[1], np.uint64, n)

    want = run(compile_scalar(U64_CAST_SERIAL))
    assert want.tolist() == [int(x) for x in a.tolist()]
    for batch in (None, 0):
        module = compile_parsimony(U64_CAST, batch_request=batch)
        for engine in ({}, {"codegen": False}):
            np.testing.assert_array_equal(run(module, **engine), want)


@pytest.mark.parametrize("elem", INTS, ids=str)
@pytest.mark.parametrize("op", ["smin", "smax", "iabs"])
def test_signed_lane_ops_on_every_corner_pair(op, elem):
    """``smin``/``smax``/``iabs`` read their lanes through a hoisted
    signed dtype (no ``signed_view``/``as_unsigned`` call), bit for bit
    against ``value_impl`` over every pair of MIN, −1, 0 and MAX."""
    top = 1 << elem.bits
    corners = np.array([top >> 1, top - 1, 0, (top >> 1) - 1],
                       dtype=elem_dtype(elem))
    a, b = np.repeat(corners, 4), np.tile(corners, 4)
    vt = VectorType(elem, len(a))
    ins = _instr(op, vt, [vt] if op == "iabs" else [vt, vt])
    expr, scope = _template(ins, vector=True)
    assert ".view(" in expr and not {"signed_view", "as_unsigned"} & {
        getattr(v, "__name__", None) for v in scope.values()}, expr
    check(ins, [a] if op == "iabs" else [a, b], vector=True)


# -- scalar ops ------------------------------------------------------------------


@pytest.mark.parametrize("t", FLOATS, ids=str)
@pytest.mark.parametrize("op", sorted(cg._INLINE_FBIN))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_float_binop_templates(op, t, data):
    # A scalar f32 payload is already rounded to f32 (drawn at width 32).
    a, b = data.draw(floats(t)), data.draw(floats(t))
    check(_instr(op, t, [t, t]), [a, b], vector=False)


@pytest.mark.parametrize("t", INTS, ids=str)
@pytest.mark.parametrize(
    "op", sorted(set(cg._INLINE_IBIN) | set(cg._INLINE_IBIT)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_int_binop_templates(op, t, data):
    a, b = data.draw(ints(t)), data.draw(ints(t))
    check(_instr(op, t, [t, t]), [a, b], vector=False)


@pytest.mark.parametrize("t", [I1] + INTS, ids=str)
@pytest.mark.parametrize("pred", sorted(set(cg._CMP_U) | set(cg._CMP_S)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_icmp_templates(pred, t, data):
    a, b = data.draw(ints(t)), data.draw(ints(t))
    check(_instr("icmp", I1, [t, t], pred=pred), [a, b], vector=False)


@pytest.mark.parametrize("t", FLOATS, ids=str)
@pytest.mark.parametrize("pred", sorted(cg._SCALAR_FCMP))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_fcmp_templates(pred, t, data):
    a, b = data.draw(floats(t)), data.draw(floats(t))
    check(_instr("fcmp", I1, [t, t], pred=pred), [a, b], vector=False)


def test_scalar_fcmp_one_is_not_inlined():
    """Python's ``nan != x`` is True, but an ordered ``one`` is 0 on NaN:
    the emitter must leave it to ``value_impl``."""
    expr, _ = _template(_instr("fcmp", I1, [F64, F64], pred="one"),
                        vector=False)
    assert expr is None


@pytest.mark.parametrize("op,src,dst", [
    ("trunc", I32, I8), ("trunc", I64, I32), ("zext", I8, I64),
    ("zext", I1, I32), ("sext", I8, I32), ("sext", I1, I64),
    ("sext", I32, I64),
], ids=lambda v: v if isinstance(v, str) else str(v))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_int_cast_templates(op, src, dst, data):
    v = data.draw(ints(src))
    check(_instr(op, dst, [src]), [v], vector=False)
