"""Property-based tests (hypothesis): VM operational semantics.

The single invariant everything else rests on: for every integer opcode,
the vector semantics equal the scalar semantics applied lane-wise.  The
interpreter, the constant folder, and the vectorizer all assume it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import F32, FloatType, I8, I16, I32, I64, IntType
from repro.vm import ops as vmops

INT_TYPES = [I8, I16, I32, I64]

_BINOPS = [
    "add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
    "smin", "smax", "umin", "umax",
    "addsat_s", "addsat_u", "subsat_s", "subsat_u",
    "mulhi_s", "mulhi_u", "avg_u", "abd_u",
]
_DIV_OPS = ["sdiv", "udiv", "srem", "urem"]
_ICMP_PREDS = ["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"]


def lanes_for(type, data):
    return np.array([v & ((1 << type.bits) - 1) for v in data],
                    dtype=np.dtype(f"u{max(1, type.bits // 8)}"))


@st.composite
def int_type_and_lanes(draw, n=8):
    type = draw(st.sampled_from(INT_TYPES))
    mx = (1 << type.bits) - 1
    a = draw(st.lists(st.integers(0, mx), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, mx), min_size=n, max_size=n))
    return type, a, b


@settings(max_examples=200, deadline=None)
@given(data=int_type_and_lanes(), op=st.sampled_from(_BINOPS))
def test_vector_binop_matches_scalar_lanewise(data, op):
    type, a, b = data
    va, vb = lanes_for(type, a), lanes_for(type, b)
    vec = vmops.eval_vector_binop(op, type, va, vb)
    for lane in range(len(a)):
        scalar = vmops.scalar_binop_impl(op, type)(a[lane], b[lane])
        assert int(vec[lane]) == scalar, (
            f"{op} {type}: lane {lane}: a={a[lane]} b={b[lane]} "
            f"vector={int(vec[lane])} scalar={scalar}"
        )


@settings(max_examples=100, deadline=None)
@given(data=int_type_and_lanes(), op=st.sampled_from(_DIV_OPS))
def test_vector_division_matches_scalar_lanewise(data, op):
    type, a, b = data
    b = [v if v != 0 else 1 for v in b]
    # Avoid the single overflow corner INT_MIN / -1 (UB in C, inconsistent
    # across numpy versions).
    if op in ("sdiv", "srem"):
        minval = 1 << (type.bits - 1)
        b = [v if v != (1 << type.bits) - 1 or True else v for v in b]
        a = [v if v != minval else minval - 1 for v in a]
    va, vb = lanes_for(type, a), lanes_for(type, b)
    vec = vmops.eval_vector_binop(op, type, va, vb)
    for lane in range(len(a)):
        scalar = vmops.scalar_binop_impl(op, type)(a[lane], b[lane])
        assert int(vec[lane]) == scalar


@settings(max_examples=150, deadline=None)
@given(data=int_type_and_lanes(), pred=st.sampled_from(_ICMP_PREDS))
def test_vector_icmp_matches_scalar_lanewise(data, pred):
    type, a, b = data
    va, vb = lanes_for(type, a), lanes_for(type, b)
    vec = vmops.eval_vector_icmp(pred, type, va, vb)
    for lane in range(len(a)):
        scalar = vmops.scalar_icmp_impl(pred, type)(a[lane], b[lane])
        assert int(bool(vec[lane])) == scalar


_CASTS = [
    ("trunc", I32, I8), ("trunc", I64, I16), ("zext", I8, I32),
    ("zext", I16, I64), ("sext", I8, I32), ("sext", I16, I64),
]


@settings(max_examples=150, deadline=None)
@given(
    value=st.integers(0, (1 << 64) - 1),
    cast=st.sampled_from(_CASTS),
)
def test_vector_cast_matches_scalar(value, cast):
    op, src, dst = cast
    v = value & ((1 << src.bits) - 1)
    scalar = vmops.eval_scalar_cast(op, src, dst, v)
    arr = lanes_for(src, [v] * 4)
    vec = vmops.eval_vector_cast(op, src, dst, arr)
    assert int(vec[0]) == scalar


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-1e6, 1e6, width=32),
    b=st.floats(-1e6, 1e6, width=32),
    op=st.sampled_from(["fadd", "fsub", "fmul", "fmin", "fmax"]),
)
def test_f32_scalar_rounding_matches_vector(a, b, op):
    """Scalar f32 semantics round exactly like numpy float32 vector math —
    the invariant behind every bit-identical cross-implementation check."""
    scalar = vmops.scalar_binop_impl(op, F32)(a, b)
    va = np.array([a], dtype=np.float32)
    vb = np.array([b], dtype=np.float32)
    vec = vmops.eval_vector_binop(op, F32, va, vb)
    assert scalar == float(vec[0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=16, max_size=16))
def test_saturating_ops_stay_in_range(data):
    a = lanes_for(I8, data)
    b = lanes_for(I8, data[::-1])
    for op in ("addsat_u", "subsat_u", "avg_u", "abd_u"):
        out = vmops.eval_vector_binop(op, I8, a, b)
        assert out.dtype == np.uint8
        assert (out <= 255).all()
