"""Operational semantics of the IR's compute opcodes.

:func:`value_impl` is the one definition of what each compute opcode
(:data:`COMPUTE_OPS`) evaluates to: it resolves an instruction, once, to
a callable over its operand payloads — scalar values (Python ints /
floats) or vector values (numpy arrays).  The reference engine, the code
generator's emit-time folding and slow-op calls, ``constant_fold`` and
gang batching's known-lane evaluation all call it; what an instruction
*charges* is :func:`repro.backend.costmodel.charge_items`.  Integer
semantics are two's complement with silent wraparound, matching LLVM's
sign-less integers; signedness comes from the opcode (``sdiv`` vs
``udiv`` etc.).

f32 scalar results are rounded through ``numpy.float32`` so that scalar
and vectorized executions of the same program produce bit-identical
results — the property every benchmark's cross-implementation check
relies on.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from ..diagnostics import ExecutionError
from ..ir.instructions import (
    CAST_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    Instruction,
    REDUCE_OPS,
    UNARY_OPS,
)
from ..ir.types import FloatType, IntType, Type, VectorType
from .nputil import (
    as_unsigned,
    count_nonzero,
    elem_dtype,
    from_signed,
    mask_int,
    signed_dtype,
    signed_view,
    to_signed,
)

__all__ = [
    "VMTrap",
    "COMPUTE_OPS",
    "value_impl",
    "reduce_lanes",
    "eval_vector_binop",
    "eval_scalar_unop",
    "eval_vector_unop",
    "eval_vector_icmp",
    "eval_vector_fcmp",
    "eval_scalar_cast",
    "eval_vector_cast",
    "VEC_CAST_ASTYPE",
    "round_float",
    "scalar_binop_impl",
    "scalar_icmp_impl",
    "scalar_fcmp_impl",
    "vector_binop_impl",
    "shuffle_segments",
    "repeat_lanes",
    "reduce_segments",
    "fold_lanes",
]


class VMTrap(ExecutionError):
    """Runtime trap (division by zero, unreachable, ...)."""


#: Fast f64→f32→f64 round-trip.  ``ctypes.c_float`` performs the same IEEE
#: round-to-nearest-even conversion as ``np.float32`` (verified bit-exact,
#: including nan/inf/-0.0 and overflow-to-inf) at roughly half the cost —
#: this sits on the hot path of every scalar f32 binop.
_c_float = ctypes.c_float


def round_float(type: Type, value: float) -> float:
    """Round a scalar float result to the storage precision of ``type``."""
    if isinstance(type, FloatType) and type.bits == 32:
        return _c_float(value).value
    return float(value)


# --------------------------------------------------------------------------------
# scalar integer binops
# --------------------------------------------------------------------------------


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("signed division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _i_add(bits, a, b):
    return mask_int(a + b, bits)


def _i_sub(bits, a, b):
    return mask_int(a - b, bits)


def _i_mul(bits, a, b):
    return mask_int(a * b, bits)


def _i_and(bits, a, b):
    return a & b


def _i_or(bits, a, b):
    return a | b


def _i_xor(bits, a, b):
    return a ^ b


def _i_shl(bits, a, b):
    return mask_int(a << (b & (bits - 1)), bits)


def _i_lshr(bits, a, b):
    return a >> (b & (bits - 1))


def _i_ashr(bits, a, b):
    return from_signed(to_signed(a, bits) >> (b & (bits - 1)), bits)


def _i_sdiv(bits, a, b):
    return from_signed(_sdiv(to_signed(a, bits), to_signed(b, bits)), bits)


def _i_udiv(bits, a, b):
    if b == 0:
        raise VMTrap("unsigned division by zero")
    return a // b


def _i_srem(bits, a, b):
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if sb == 0:
        raise VMTrap("signed remainder by zero")
    return from_signed(sa - _sdiv(sa, sb) * sb, bits)


def _i_urem(bits, a, b):
    if b == 0:
        raise VMTrap("unsigned remainder by zero")
    return a % b


def _i_smin(bits, a, b):
    return from_signed(min(to_signed(a, bits), to_signed(b, bits)), bits)


def _i_smax(bits, a, b):
    return from_signed(max(to_signed(a, bits), to_signed(b, bits)), bits)


def _i_umin(bits, a, b):
    return min(a, b)


def _i_umax(bits, a, b):
    return max(a, b)


def _i_addsat_u(bits, a, b):
    return min(a + b, (1 << bits) - 1)


def _i_subsat_u(bits, a, b):
    return max(a - b, 0)


def _i_addsat_s(bits, a, b):
    half = 1 << (bits - 1)
    return from_signed(
        max(-half, min(half - 1, to_signed(a, bits) + to_signed(b, bits))), bits
    )


def _i_subsat_s(bits, a, b):
    half = 1 << (bits - 1)
    return from_signed(
        max(-half, min(half - 1, to_signed(a, bits) - to_signed(b, bits))), bits
    )


def _i_mulhi_s(bits, a, b):
    return from_signed((to_signed(a, bits) * to_signed(b, bits)) >> bits, bits)


def _i_mulhi_u(bits, a, b):
    return (a * b) >> bits


def _i_avg_u(bits, a, b):
    return (a + b + 1) >> 1


def _i_abd_u(bits, a, b):
    return max(a, b) - min(a, b)


#: Scalar integer binop implementations, ``impl(bits, a, b) -> result``.
SCALAR_INT_BINOPS = {
    "add": _i_add, "sub": _i_sub, "mul": _i_mul,
    "and": _i_and, "or": _i_or, "xor": _i_xor,
    "shl": _i_shl, "lshr": _i_lshr, "ashr": _i_ashr,
    "sdiv": _i_sdiv, "udiv": _i_udiv, "srem": _i_srem, "urem": _i_urem,
    "smin": _i_smin, "smax": _i_smax, "umin": _i_umin, "umax": _i_umax,
    "addsat_u": _i_addsat_u, "subsat_u": _i_subsat_u,
    "addsat_s": _i_addsat_s, "subsat_s": _i_subsat_s,
    "mulhi_s": _i_mulhi_s, "mulhi_u": _i_mulhi_u,
    "avg_u": _i_avg_u, "abd_u": _i_abd_u,
}


def _f_div(a, b):
    return a / b if b != 0.0 else math.copysign(math.inf, a) * math.copysign(1.0, b) if a != 0.0 else math.nan


def _f_rem(a, b):
    return math.fmod(a, b) if b != 0.0 else math.nan


#: Scalar float binop implementations (unrounded; callers round to type).
SCALAR_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _f_div,
    "frem": _f_rem,
    "fmin": lambda a, b: min(a, b),
    "fmax": lambda a, b: max(a, b),
}


def _f_div32(a, b):
    # True single-rounded float32 division.  Going through the f64
    # quotient and then rounding (``round_float``) double-rounds, which
    # differs from f32 division in rare near-tie cases and would break
    # the bitwise scalar/vector output agreement the fallback paths pin.
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float32(a) / np.float32(b))


def scalar_binop_impl(opcode: str, type: Type):
    """Resolve a scalar binop (or an ``atomicrmw`` op) on ``type`` once,
    returning a 2-arg callable; f32 results round to f32."""
    if isinstance(type, FloatType):
        if opcode == "fdiv" and type.bits == 32:
            return _f_div32
        impl = SCALAR_FLOAT_BINOPS.get(opcode)
        if impl is None:
            raise NotImplementedError(f"scalar float binop {opcode}")
        if type.bits == 32:
            return lambda a, b: _c_float(impl(a, b)).value
        return lambda a, b: float(impl(a, b))
    impl = SCALAR_INT_BINOPS.get(opcode)
    if impl is None:
        raise NotImplementedError(f"scalar int binop {opcode}")
    bits = type.bits
    return lambda a, b: impl(bits, a, b)


# --------------------------------------------------------------------------------
# vector binops
# --------------------------------------------------------------------------------

def eval_vector_binop(opcode: str, elem: Type, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if isinstance(elem, FloatType):
        return _vector_float_binop(opcode, a, b)
    if elem.bits == 1:
        return _vector_bool_binop(opcode, a, b)
    bits = elem.bits
    dtype = elem_dtype(elem)
    if opcode == "add":
        return a + b
    if opcode == "sub":
        return a - b
    if opcode == "mul":
        return a * b
    if opcode == "and":
        return a & b
    if opcode == "or":
        return a | b
    if opcode == "xor":
        return a ^ b
    if opcode == "shl":
        return a << (b & np.uint64(bits - 1)).astype(dtype)
    if opcode == "lshr":
        return a >> (b & np.uint64(bits - 1)).astype(dtype)
    if opcode == "ashr":
        amount = signed_view((b & np.uint64(bits - 1)).astype(dtype))
        return as_unsigned(signed_view(a) >> amount)
    if opcode == "udiv":
        if (b == 0).any():
            raise VMTrap("vector unsigned division by zero")
        return a // b
    if opcode == "urem":
        if (b == 0).any():
            raise VMTrap("vector unsigned remainder by zero")
        return a % b
    if opcode == "sdiv":
        sa, sb = signed_view(a), signed_view(b)
        if (sb == 0).any():
            raise VMTrap("vector signed division by zero")
        # Truncated division as floor + sign correction, entirely in the
        # native signed dtype: abs() would wrap INT_MIN negative and turn
        # e.g. 1 / INT64_MIN into 1 instead of 0.  The wrapped q*sb below
        # is still exact because the true remainder fits the dtype.
        with np.errstate(all="ignore"):
            q = sa // sb
            r = sa - q * sb
            q = q + ((r != 0) & ((sa < 0) != (sb < 0)))
        return q.astype(signed_dtype(elem)).view(dtype)
    if opcode == "srem":
        q = eval_vector_binop("sdiv", elem, a, b)
        return a - eval_vector_binop("mul", elem, q, b)
    if opcode == "smin":
        return as_unsigned(np.minimum(signed_view(a), signed_view(b)))
    if opcode == "smax":
        return as_unsigned(np.maximum(signed_view(a), signed_view(b)))
    if opcode == "umin":
        return np.minimum(a, b)
    if opcode == "umax":
        return np.maximum(a, b)
    if opcode == "addsat_u":
        # Width-generic: unsigned overflow iff the wrapped sum is smaller.
        wrapped = a + b
        return np.where(wrapped < a, np.array((1 << bits) - 1, dtype=dtype), wrapped)
    if opcode == "subsat_u":
        return np.where(a < b, np.array(0, dtype=dtype), a - b)
    if opcode == "addsat_s":
        sa, sb = signed_view(a), signed_view(b)
        wrapped = signed_view(a + b)
        pos_ovf = (sa > 0) & (sb > 0) & (wrapped < 0)
        neg_ovf = (sa < 0) & (sb < 0) & (wrapped >= 0)
        smax_c = np.array((1 << (bits - 1)) - 1, dtype=wrapped.dtype)
        smin_c = np.array(-(1 << (bits - 1)), dtype=wrapped.dtype)
        return as_unsigned(np.where(pos_ovf, smax_c, np.where(neg_ovf, smin_c, wrapped)))
    if opcode == "subsat_s":
        sa, sb = signed_view(a), signed_view(b)
        wrapped = signed_view(a - b)
        pos_ovf = (sa >= 0) & (sb < 0) & (wrapped < 0)
        neg_ovf = (sa < 0) & (sb > 0) & (wrapped >= 0)
        smax_c = np.array((1 << (bits - 1)) - 1, dtype=wrapped.dtype)
        smin_c = np.array(-(1 << (bits - 1)), dtype=wrapped.dtype)
        return as_unsigned(np.where(pos_ovf, smax_c, np.where(neg_ovf, smin_c, wrapped)))
    if opcode == "mulhi_s":
        sa, sb = signed_view(a), signed_view(b)
        if bits < 64:
            wide = sa.astype(np.int64) * sb.astype(np.int64)
            return ((wide >> bits) & ((1 << bits) - 1)).astype(dtype)
        vals = [((to_signed(int(x), 64) * to_signed(int(y), 64)) >> 64) & ((1 << 64) - 1)
                for x, y in zip(a, b)]
        return np.array(vals, dtype=dtype)
    if opcode == "mulhi_u":
        if bits < 64:
            wide = a.astype(np.uint64) * b.astype(np.uint64)
            return (wide >> np.uint64(bits)).astype(dtype)
        vals = [(int(x) * int(y)) >> 64 for x, y in zip(a, b)]
        return np.array(vals, dtype=dtype)
    if opcode == "avg_u":
        # (a >> 1) + (b >> 1) + ((a | b) & 1): rounding average, no widening.
        one = np.array(1, dtype=dtype)
        return (a >> one) + (b >> one) + ((a | b) & one)
    if opcode == "abd_u":
        return np.maximum(a, b) - np.minimum(a, b)
    raise NotImplementedError(f"vector int binop {opcode}")


def _errstate_binop(sym_impl):
    def _impl(a, b):
        with np.errstate(all="ignore"):
            return sym_impl(a, b)
    return _impl


#: Pre-resolved hot vector binops (the fast path of
#: :func:`vector_binop_impl`).  Each entry must be bit-identical to the
#: corresponding :func:`eval_vector_binop` branch.
_VECTOR_FLOAT_IMPLS = {
    "fadd": _errstate_binop(lambda a, b: a + b),
    "fsub": _errstate_binop(lambda a, b: a - b),
    "fmul": _errstate_binop(lambda a, b: a * b),
    "fmin": np.minimum,
    "fmax": np.maximum,
}
_VECTOR_INT_IMPLS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "umin": np.minimum,
    "umax": np.maximum,
}


def vector_binop_impl(opcode: str, elem: Type):
    """Resolve a vector binop on ``elem`` lanes once, returning a 2-arg
    callable: the hot opcodes skip :func:`eval_vector_binop`'s per-call
    dispatch chain (each fast-path impl is the same expression that
    branch evaluates), everything else falls back to it."""
    if isinstance(elem, FloatType):
        impl = _VECTOR_FLOAT_IMPLS.get(opcode)
        if impl is not None:
            return impl
    elif elem.bits != 1:
        impl = _VECTOR_INT_IMPLS.get(opcode)
        if impl is not None:
            return impl
    return lambda a, b: eval_vector_binop(opcode, elem, a, b)


def _vector_bool_binop(opcode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if opcode in ("and", "umin", "mul", "smax"):
        return a & b
    if opcode in ("or", "umax"):
        return a | b
    if opcode in ("xor", "add", "sub"):
        return a ^ b
    raise NotImplementedError(f"i1 vector binop {opcode}")


def _vector_float_binop(opcode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Inactive lanes legitimately hold garbage in linearized SPMD code, so
    # overflow/invalid warnings from them are expected and suppressed.
    if opcode == "fadd":
        with np.errstate(all="ignore"):
            return a + b
    if opcode == "fsub":
        with np.errstate(all="ignore"):
            return a - b
    if opcode == "fmul":
        with np.errstate(all="ignore"):
            return a * b
    if opcode == "fdiv":
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if opcode == "frem":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmod(a, b)
    if opcode == "fmin":
        return np.minimum(a, b)
    if opcode == "fmax":
        return np.maximum(a, b)
    raise NotImplementedError(f"vector float binop {opcode}")


# --------------------------------------------------------------------------------
# unary ops
# --------------------------------------------------------------------------------


def eval_scalar_unop(opcode: str, type: Type, a):
    if opcode == "fneg":
        return round_float(type, -a)
    if opcode == "fabs":
        return round_float(type, abs(a))
    if opcode == "fsqrt":
        if type.bits == 32:
            # Single-rounded f32 sqrt (see _f_div32 on double rounding).
            with np.errstate(invalid="ignore"):
                return float(np.sqrt(np.float32(a)))
        return round_float(type, math.sqrt(a) if a >= 0 else math.nan)
    if opcode == "iabs":
        sa = to_signed(a, type.bits)
        return from_signed(abs(sa), type.bits)
    if opcode == "not":
        return mask_int(~a, type.bits)
    raise NotImplementedError(f"scalar unop {opcode}")


def eval_vector_unop(opcode: str, elem: Type, a: np.ndarray) -> np.ndarray:
    if opcode == "fneg":
        return -a
    if opcode == "fabs":
        return np.abs(a)
    if opcode == "fsqrt":
        with np.errstate(invalid="ignore"):
            return np.sqrt(a)
    if opcode == "iabs":
        return as_unsigned(np.abs(signed_view(a)))
    if opcode == "not":
        return ~a
    raise NotImplementedError(f"vector unop {opcode}")


# --------------------------------------------------------------------------------
# compares
# --------------------------------------------------------------------------------


#: Unsigned comparisons (operate on canonical unsigned payloads directly).
_SCALAR_CMP_U = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}
#: Signed comparisons (operate on two's-complement reinterpretations).
_SCALAR_CMP_S = {
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}


def scalar_icmp_impl(pred: str, type: Type):
    """Resolve a scalar ``icmp`` of ``type`` operands once, returning a
    2-arg callable with a 0/1 result."""
    impl = _SCALAR_CMP_U.get(pred)
    if impl is not None:
        return lambda a, b: 1 if impl(a, b) else 0
    signed = _SCALAR_CMP_S[pred]
    bits = getattr(type, "bits", 64)
    return lambda a, b: 1 if signed(to_signed(a, bits), to_signed(b, bits)) else 0


_VECTOR_ICMP = {
    "eq": np.equal, "ne": np.not_equal,
    "ult": np.less, "ule": np.less_equal, "ugt": np.greater, "uge": np.greater_equal,
    "slt": np.less, "sle": np.less_equal, "sgt": np.greater, "sge": np.greater_equal,
}
_SIGNED_PREDS = frozenset(("slt", "sle", "sgt", "sge"))


def eval_vector_icmp(pred: str, elem: Type, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if pred in _SIGNED_PREDS:
        a, b = signed_view(a), signed_view(b)
    return _VECTOR_ICMP[pred](a, b)


_SCALAR_FCMP = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


def scalar_fcmp_impl(pred: str):
    """Resolve a scalar ``fcmp`` once, returning a 2-arg callable with a
    0/1 result (0 when either operand is NaN: every predicate is
    ordered)."""
    impl = _SCALAR_FCMP[pred]

    def run(a, b):
        if math.isnan(a) or math.isnan(b):
            return 0
        return 1 if impl(a, b) else 0

    return run


_VECTOR_FCMP = {
    "oeq": np.equal, "one": np.not_equal,
    "olt": np.less, "ole": np.less_equal, "ogt": np.greater, "oge": np.greater_equal,
}


def eval_vector_fcmp(pred: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ordered = ~(np.isnan(a) | np.isnan(b))
    with np.errstate(invalid="ignore"):
        return _VECTOR_FCMP[pred](a, b) & ordered


# --------------------------------------------------------------------------------
# casts
# --------------------------------------------------------------------------------


def eval_scalar_cast(opcode: str, from_t: Type, to_t: Type, v):
    if opcode in ("bitcast", "ptrtoint", "inttoptr"):
        if from_t.is_float or to_t.is_float:
            src = elem_dtype(from_t)
            dst = elem_dtype(to_t)
            return _bit_reinterpret_scalar(v, src, dst, to_t)
        return mask_int(int(v), getattr(to_t, "bits", 64))
    if opcode == "trunc":
        return mask_int(v, to_t.bits)
    if opcode == "zext":
        return v
    if opcode == "sext":
        return from_signed(to_signed(v, from_t.bits), to_t.bits)
    if opcode in ("fptrunc", "fpext"):
        return round_float(to_t, v)
    if opcode == "fptosi":
        return from_signed(int(v), to_t.bits)
    if opcode == "fptoui":
        return mask_int(int(v), to_t.bits)
    if opcode == "sitofp":
        return round_float(to_t, float(to_signed(v, from_t.bits)))
    if opcode == "uitofp":
        return round_float(to_t, float(v))
    raise NotImplementedError(f"scalar cast {opcode}")


def _bit_reinterpret_scalar(v, src_dtype, dst_dtype, to_t: Type):
    arr = np.array([v], dtype=src_dtype).view(dst_dtype)
    return float(arr[0]) if to_t.is_float else int(arr[0])


def float_lanes_to_int64(v: np.ndarray) -> np.ndarray:
    """The ``fptosi``/``fptoui`` to 64-bit lanes: ``int(x)`` modulo 2**64
    of every finite lane ``x`` of ``v``, as int64 — what the scalar casts
    leave.  A plain ``astype(int64)`` saturates from 2**63 on, where a u64
    lane still holds the value; ``fmod`` by 2**64 and the one shift of
    ±2**64 into [-2**63, 2**63) are exact in binary floating point.
    Narrower targets truncate through a plain ``astype(int64)``: every
    value they hold fits it, and one past their range is poison (as for
    LLVM's casts).  NaN and ±inf lanes are unspecified (the caller's
    ``errstate`` silences them)."""
    t = np.fmod(np.trunc(v), 2.0 ** 64)
    t = np.where(t >= 2.0 ** 63, t - 2.0 ** 64,
                 np.where(t < -2.0 ** 63, t + 2.0 ** 64, t))
    return t.astype(np.int64)


#: Vector casts that are one ``.astype`` to the destination lane dtype.
VEC_CAST_ASTYPE = frozenset(
    ("ptrtoint", "inttoptr", "trunc", "zext", "fptrunc", "fpext", "uitofp")
)


def eval_vector_cast(opcode: str, from_elem: Type, to_elem: Type, v: np.ndarray) -> np.ndarray:
    dst = elem_dtype(to_elem)
    if opcode in VEC_CAST_ASTYPE:
        return v.astype(dst)
    if opcode == "bitcast":
        return v.view(dst) if v.dtype.itemsize == dst.itemsize else v.astype(dst)
    if opcode == "sext":
        if from_elem.bits == 1:
            return as_unsigned(np.where(v, -1, 0).astype(signed_dtype(to_elem)))
        return as_unsigned(signed_view(v).astype(signed_dtype(to_elem)))
    if opcode in ("fptrunc", "fpext"):
        return v.astype(dst)
    if opcode in ("fptosi", "fptoui"):
        with np.errstate(invalid="ignore"):
            if to_elem.bits == 64:  # int(x) mod 2**64: the lanes' bits
                return float_lanes_to_int64(v).view(dst)
            lanes = np.trunc(v).astype(np.int64)
            if opcode == "fptoui":
                return (lanes & ((1 << to_elem.bits) - 1)).astype(dst)
            return lanes.astype(signed_dtype(to_elem)).view(dst)
    if opcode == "sitofp":
        return signed_view(v).astype(dst)
    raise NotImplementedError(f"vector cast {opcode}")


# --------------------------------------------------------------------------------
# per-gang segments (gang batching, see repro.backend.batch)
# --------------------------------------------------------------------------------
#
# A batched gang loop lays B gangs side by side; an op with a ``segments``
# attr treats its operand as B independent segments, one per gang.  Only
# generated code runs batched IR; it evaluates what it does not inline
# through these functions.


def shuffle_segments(a: np.ndarray, idx: np.ndarray, segments: int) -> np.ndarray:
    """``shuffle`` within each segment: the narrow index selects from
    every one of ``segments`` equal slices of ``a``."""
    row = len(a) // segments
    return a.reshape(segments, row)[:, idx.astype(np.int64) % row].reshape(-1)


def repeat_lanes(v: np.ndarray, count: int) -> np.ndarray:
    """``broadcast`` of a per-gang value: each lane repeated over its
    gang's ``count // len(v)`` lanes."""
    return np.repeat(v, count // len(v))


def reduce_segments(op: str, v: np.ndarray, segments: int) -> np.ndarray:
    """An integer ``reduce_*`` per segment: one lane per segment, in the
    lane dtype, each equal to what the unsegmented reduction returns for
    that segment (wrapping sums, i1 sums as xor)."""
    rows = v.reshape(segments, -1)
    if v.dtype.kind == "b":
        if op == "reduce_add":
            return np.bitwise_xor.reduce(rows, axis=1)
        if op in ("reduce_and", "reduce_min_u", "reduce_min_s"):
            return rows.all(axis=1)
        return rows.any(axis=1)
    if op == "reduce_add":
        return np.add.reduce(rows, axis=1, dtype=v.dtype)
    if op == "reduce_min_u":
        return rows.min(axis=1)
    if op == "reduce_max_u":
        return rows.max(axis=1)
    if op == "reduce_min_s":
        return as_unsigned(signed_view(rows).min(axis=1))
    if op == "reduce_max_s":
        return as_unsigned(signed_view(rows).max(axis=1))
    if op == "reduce_and":
        return np.bitwise_and.reduce(rows, axis=1)
    if op == "reduce_or":
        return np.bitwise_or.reduce(rows, axis=1)
    raise NotImplementedError(op)


def fold_lanes(rmw: str, bits: int, v: np.ndarray) -> int:
    """The one operand an ``atomicrmw`` over per-gang lanes applies: B
    read-modify-writes of one cell with ``rmw`` equal one with this fold
    (``sub`` subtracts the sum; every op is exact mod 2**bits)."""
    if rmw in ("add", "sub"):
        return int(np.add.reduce(v, dtype=v.dtype))
    if rmw == "and":
        return int(np.bitwise_and.reduce(v))
    if rmw == "or":
        return int(np.bitwise_or.reduce(v))
    if rmw == "xor":
        return int(np.bitwise_xor.reduce(v))
    if rmw == "umin":
        return int(v.min())
    if rmw == "umax":
        return int(v.max())
    if rmw == "smin":
        return from_signed(int(signed_view(v).min()), bits)
    if rmw == "smax":
        return from_signed(int(signed_view(v).max()), bits)
    raise NotImplementedError(rmw)


def reduce_lanes(op: str, elem, ret_type, v: np.ndarray):
    """A horizontal ``reduce_*`` of ``elem`` lanes into ``ret_type`` over
    one vector payload."""
    if op == "reduce_add":
        if elem.is_float:
            return round_float(ret_type, float(np.sum(v, dtype=v.dtype)))
        if elem.bits == 1:
            return 1 if bool(np.bitwise_xor.reduce(v)) else 0
        return int(np.add.reduce(v, dtype=v.dtype))
    if op in ("reduce_min_s", "reduce_max_s"):
        sv = signed_view(v)
        r = int(sv.min() if op.endswith("min_s") else sv.max())
        return from_signed(r, elem.bits)
    if op == "reduce_min_u":
        r = v.min()
        return float(r) if elem.is_float else int(r)
    if op == "reduce_max_u":
        r = v.max()
        return float(r) if elem.is_float else int(r)
    if op == "reduce_and":
        if elem.bits == 1:
            return 1 if bool(v.all()) else 0
        return int(np.bitwise_and.reduce(v))
    if op == "reduce_or":
        if elem.bits == 1:
            return 1 if bool(v.any()) else 0
        return int(np.bitwise_or.reduce(v))
    raise NotImplementedError(op)


# --------------------------------------------------------------------------------
# the resolver
# --------------------------------------------------------------------------------

_BINOPS = INT_BINOPS | FLOAT_BINOPS

#: Every opcode :func:`value_impl` computes: all of them except the
#: control flow, ``phi``, ``call`` (calls re-enter an engine) and the
#: memory ops (each engine accesses memory its own way).
COMPUTE_OPS = frozenset(
    _BINOPS | UNARY_OPS | CAST_OPS | REDUCE_OPS
    | {
        "icmp", "fcmp", "select", "fma", "gep", "broadcast",
        "extractelement", "insertelement", "shuffle", "shuffle2", "sad",
        "mask_any", "mask_all", "mask_popcnt",
    }
)


def value_impl(instr: Instruction):
    """What ``instr`` computes, as a callable ``fn(*operand_payloads) ->
    payload`` — the one definition of every :data:`COMPUTE_OPS` opcode.

    Resolved once per instruction (opcode, types and attrs are read
    here, not per call); operands map positionally and no ``env`` is
    read.  A per-gang op of batched IR (a ``segments`` attr) evaluates
    per segment.
    """
    op = instr.opcode
    ops = instr.operands
    vec = isinstance(instr.type, VectorType)

    if op in _BINOPS:
        if vec:
            return vector_binop_impl(op, instr.type.elem)
        return scalar_binop_impl(op, instr.type)
    if op in UNARY_OPS:
        if vec:
            elem = instr.type.elem
            return lambda a: eval_vector_unop(op, elem, a)
        t = instr.type
        return lambda a: eval_scalar_unop(op, t, a)
    if op == "icmp":
        pred = instr.attrs["pred"]
        src_t = ops[0].type
        if isinstance(src_t, VectorType):
            elem = src_t.elem
            return lambda a, b: eval_vector_icmp(pred, elem, a, b)
        return scalar_icmp_impl(pred, src_t)
    if op == "fcmp":
        pred = instr.attrs["pred"]
        if isinstance(ops[0].type, VectorType):
            return lambda a, b: eval_vector_fcmp(pred, a, b)
        return scalar_fcmp_impl(pred)
    if op in CAST_OPS:
        from_t, to_t = ops[0].type, instr.type
        if isinstance(to_t, VectorType):
            from_e, to_e = from_t.elem, to_t.elem
            return lambda v: eval_vector_cast(op, from_e, to_e, v)
        return lambda v: eval_scalar_cast(op, from_t, to_t, v)
    if op == "select":
        if isinstance(ops[0].type, VectorType) or vec:
            return lambda c, a, b: np.where(c, a, b)
        return lambda c, a, b: a if c else b
    if op == "fma":
        if vec:
            return lambda a, b, c: a * b + c
        t = instr.type
        return lambda a, b, c: round_float(t, round_float(t, a * b) + c)
    if op == "gep":
        bits = ops[1].type.bits
        esize = instr.type.pointee.size_bytes()
        return lambda base, idx: mask_int(
            base + to_signed(idx, bits) * esize, 64
        )
    segments = instr.attrs.get("segments")
    if op == "broadcast":
        count = instr.type.count
        if segments is not None:
            return lambda s: repeat_lanes(s, count)
        dtype = elem_dtype(instr.type.elem)
        return lambda s: np.full(count, s, dtype=dtype)
    if op == "extractelement":
        if instr.type.is_float:
            return lambda v, i: float(v[int(i) % len(v)])
        return lambda v, i: int(v[int(i) % len(v)])
    if op == "insertelement":
        def _insert(v, i, e):
            v = v.copy()
            v[int(i) % len(v)] = e
            return v
        return _insert
    if op == "shuffle":
        if segments is not None:
            return lambda a, i: shuffle_segments(a, i, segments)
        return lambda a, i: a[i.astype(np.int64) % len(a)]
    if op == "shuffle2":
        def _shuffle2(lo, hi, i):
            both = np.concatenate([lo, hi])
            return both[i.astype(np.int64) % len(both)]
        return _shuffle2
    if op == "sad":
        def _sad(a, b):
            diffs = np.abs(
                a.astype(np.int64) - b.astype(np.int64)
            ).reshape(-1, 8).sum(axis=1)
            return diffs.astype(np.uint64)
        return _sad
    if op in REDUCE_OPS:
        if segments is not None:
            return lambda v: reduce_segments(op, v, segments)
        elem, ret_type = ops[0].type.elem, instr.type
        return lambda v: reduce_lanes(op, elem, ret_type, v)
    if op == "mask_any":
        return lambda m: 1 if count_nonzero(m) else 0
    if op == "mask_all":
        return lambda m: 1 if count_nonzero(m) == len(m) else 0
    if op == "mask_popcnt":
        return lambda m: int(count_nonzero(m))

    raise NotImplementedError(f"value_impl: opcode {op}")
