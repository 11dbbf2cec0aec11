"""Integer narrowing (demanded-width shrinking).

C's integer promotions make byte/short kernels compute in i32; LLVM's
InstCombine undoes this by re-evaluating truncated expression trees at a
narrower width ("evaluateInDifferentType").  Without this, a SIMD kernel
that touches u8 data widens every vector op 4×, which is why the pass is
load-bearing for the Figure 5 comparison: the paper's Parsimony relies on
LLVM's standard scalar pipeline doing exactly this cleanup.

Legality here is *range-exactness*: an expression tree rooted at a
``trunc`` (or an ``icmp`` whose operands are extensions) may be evaluated
at width ``w`` when every intermediate value's integer range — computed
from the extension leaves — fits in ``w`` (signed if any value can be
negative).  Exact ranges make every supported operator (including shifts,
min/max and compares) produce identical results at the narrow width.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.instructions import Instruction
from ..ir.module import Function
from ..ir.types import I1, IntType, Type, VectorType
from ..ir.values import Constant, Value


def _elem(t: Type):
    """Integer element type of a scalar or vector type, else None."""
    if isinstance(t, VectorType):
        t = t.elem
    return t if isinstance(t, IntType) else None


def _retype(t: Type, bits: int) -> Type:
    """Same shape as ``t`` with ``bits``-wide integer elements."""
    if isinstance(t, VectorType):
        return VectorType(IntType(bits), t.count)
    return IntType(bits)

__all__ = ["narrow_ints"]

_RANGE_OPS = frozenset(
    """add sub mul and or xor shl lshr ashr
       smin smax umin umax iabs select""".split()
)

_MAX_TREE = 64


def narrow_ints(function: Function) -> bool:
    changed = False
    for block in function.blocks:
        for instr in list(block.instructions):
            if instr.opcode == "trunc" and _elem(instr.type) is not None:
                changed |= _narrow_trunc(function, instr)
            elif instr.opcode == "icmp":
                changed |= _narrow_icmp(function, instr)
    return changed


# ---------------------------------------------------------------------------- ranges


def _range_of(value: Value, cache: Dict, depth: int = 0) -> Optional[Tuple[int, int]]:
    """Exact integer range of ``value`` (as a mathematical integer), or None."""
    if depth > 12:
        return None
    cached = cache.get(value)
    if cached is not Ellipsis and value in cache:
        return cached
    result = _compute_range(value, cache, depth)
    cache[value] = result
    return result


def _compute_range(value: Value, cache: Dict, depth: int):
    if isinstance(value, Constant) and _elem(value.type) is not None:
        v = value.as_signed()
        if isinstance(v, tuple):
            return (min(v), max(v)) if v else None
        return (v, v)
    if not isinstance(value, Instruction):
        return None
    op = value.opcode
    ops = value._operands  # read only: no tuple per range query
    if op == "zext":
        src = ops[0]
        inner = _range_of(src, cache, depth + 1)
        if inner is not None and inner[0] >= 0:
            return inner
        bits = src.type.bits
        return (0, (1 << bits) - 1)
    if op == "sext":
        src = ops[0]
        inner = _range_of(src, cache, depth + 1)
        if inner is not None:
            return inner
        bits = src.type.bits
        return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    if op not in _RANGE_OPS:
        return None
    if op == "select":
        a = _range_of(ops[1], cache, depth + 1)
        b = _range_of(ops[2], cache, depth + 1)
        if a is None or b is None:
            return None
        return (min(a[0], b[0]), max(a[1], b[1]))
    if op == "iabs":
        a = _range_of(ops[0], cache, depth + 1)
        if a is None:
            return None
        lo = 0 if a[0] <= 0 <= a[1] else min(abs(a[0]), abs(a[1]))
        return (lo, max(abs(a[0]), abs(a[1])))

    a = _range_of(ops[0], cache, depth + 1)
    b = _range_of(ops[1], cache, depth + 1)
    if a is None or b is None:
        return None
    if op == "add":
        return (a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return (a[0] - b[1], a[1] - b[0])
    if op == "mul":
        corners = [x * y for x in a for y in b]
        return (min(corners), max(corners))
    if op in ("and", "or", "xor"):
        if a[0] < 0 or b[0] < 0:
            return None
        hi = max(a[1], b[1])
        bound = (1 << hi.bit_length()) - 1
        if op == "and":
            return (0, min(a[1], b[1]))
        return (0, bound)
    if op in ("shl", "lshr", "ashr"):
        if not isinstance(ops[1], Constant):
            return None
        k = ops[1].value
        if isinstance(k, tuple):  # splat vector shift amount
            if len(set(k)) != 1:
                return None
            k = k[0]
        if op == "shl":
            return (a[0] << k, a[1] << k)
        if a[0] < 0 and op == "lshr":
            return None  # logical shift of negatives is width-dependent
        return (a[0] >> k, a[1] >> k)
    if op in ("smin", "umin"):
        if op == "umin" and (a[0] < 0 or b[0] < 0):
            return None
        return (min(a[0], b[0]), min(a[1], b[1]))
    if op in ("smax", "umax"):
        if op == "umax" and (a[0] < 0 or b[0] < 0):
            return None
        return (max(a[0], b[0]), max(a[1], b[1]))
    return None


def _fits_unsigned(r: Tuple[int, int], bits: int) -> bool:
    return r[0] >= 0 and r[1] < (1 << bits)


def _fits_signed(r: Tuple[int, int], bits: int) -> bool:
    return -(1 << (bits - 1)) <= r[0] and r[1] < (1 << (bits - 1))


def _fits(r: Tuple[int, int], bits: int) -> bool:
    """Representable at ``bits`` under at least one interpretation."""
    return _fits_unsigned(r, bits) or _fits_signed(r, bits)


def _tree_fits(value: Value, bits: int, cache: Dict, seen: set) -> bool:
    """Every node of the tree is exactly representable at ``bits``, with
    sign-sensitive operators (smin/smax, shifts, umin/umax) additionally
    requiring operands whose *interpretation* at the narrow width is exact
    (the rebuilder flips smin→umin / ashr→lshr for non-negative trees)."""
    if len(seen) > _MAX_TREE:
        return False
    if isinstance(value, Constant):
        r = _range_of(value, cache)
        return r is not None and _fits(r, bits)
    if not isinstance(value, Instruction):
        return False
    if value in seen:
        return True
    r = _range_of(value, cache)
    if r is None or not _fits(r, bits):
        return False
    seen.add(value)
    op = value.opcode
    if op in ("zext", "sext"):
        src_elem = _elem(value.operands[0].type)
        return src_elem is not None and src_elem.bits <= bits
    if op == "select":
        return (
            _tree_fits(value.operands[1], bits, cache, seen)
            and _tree_fits(value.operands[2], bits, cache, seen)
        )
    if op not in _RANGE_OPS:
        return False

    def operand_range(idx):
        return _range_of(value.operands[idx], cache)

    if op in ("smin", "smax", "umin", "umax"):
        ra, rb = operand_range(0), operand_range(1)
        if ra is None or rb is None:
            return False
        both_unsigned = _fits_unsigned(ra, bits) and _fits_unsigned(rb, bits)
        both_signed = _fits_signed(ra, bits) and _fits_signed(rb, bits)
        if op in ("umin", "umax") and not both_unsigned:
            return False
        if op in ("smin", "smax") and not (both_unsigned or both_signed):
            return False
        return _tree_fits(value.operands[0], bits, cache, seen) and _tree_fits(
            value.operands[1], bits, cache, seen
        )
    if op in ("lshr", "ashr"):
        ra = operand_range(0)
        if ra is None:
            return False
        if op == "lshr" and not _fits_unsigned(ra, bits):
            return False
        if op == "ashr" and not (_fits_unsigned(ra, bits) or _fits_signed(ra, bits)):
            return False
        return _tree_fits(value.operands[0], bits, cache, seen)
    if op == "shl":
        return _tree_fits(value.operands[0], bits, cache, seen)
    return all(_tree_fits(o, bits, cache, seen) for o in value.operands)


# ---------------------------------------------------------------------------- rebuild


class _Narrower:
    def __init__(self, function: Function, bits: int, cache: Dict):
        self.function = function
        self.bits = bits
        self.cache = cache  # range cache from the legality check
        self.built: Dict[Value, Value] = {}

    def _type_for(self, value: Value) -> Type:
        return _retype(value.type, self.bits)

    def build(self, value: Value) -> Value:
        cached = self.built.get(value)
        if cached is not None:
            return cached
        result = self._build(value)
        self.built[value] = result
        return result

    def _build(self, value: Value) -> Value:
        if isinstance(value, Constant):
            payload = value.as_signed()
            return Constant(self._type_for(value), payload)
        assert isinstance(value, Instruction)
        op = value.opcode
        if op in ("zext", "sext"):
            src = value.operands[0]
            if _elem(src.type).bits == self.bits:
                return src
            new = Instruction(
                op, self._type_for(value), [src], self.function.unique_name(value.name)
            )
            self._insert_after(value, new)
            return new
        if op == "select":
            operands = [value.operands[0], self.build(value.operands[1]), self.build(value.operands[2])]
        elif op in ("shl", "lshr", "ashr"):
            operands = [
                self.build(value.operands[0]),
                Constant(self._type_for(value.operands[1]), value.operands[1].as_signed()),
            ]
        else:
            operands = [self.build(o) for o in value.operands]
        # Sign-sensitive ops flip to their unsigned forms when the narrow
        # interpretation is unsigned (the legality check guaranteed one of
        # the interpretations is exact).
        if op in ("smin", "smax", "ashr"):
            ra = _range_of(value.operands[0], self.cache)
            rb = _range_of(value.operands[1], self.cache) if op != "ashr" else ra
            if ra is not None and rb is not None:
                if not (_fits_signed(ra, self.bits) and _fits_signed(rb, self.bits)):
                    op = {"smin": "umin", "smax": "umax", "ashr": "lshr"}[op]
        new = Instruction(
            op, self._type_for(value), operands,
            self.function.unique_name(value.name), dict(value.attrs),
        )
        self._insert_after(value, new)
        return new

    def _insert_after(self, anchor: Instruction, new: Instruction) -> None:
        block = anchor.parent
        block.insert(block.instructions.index(anchor) + 1, new)


def _narrow_trunc(function: Function, trunc: Instruction) -> bool:
    dst_bits = _elem(trunc.type).bits
    root = trunc.operands[0]
    root_elem = _elem(root.type) if isinstance(root, Instruction) else None
    if root_elem is None or root_elem.bits <= dst_bits:
        return False
    for width in (dst_bits, 16, 32):
        if width < dst_bits or width >= root_elem.bits:
            continue
        cache: Dict = {}
        if _tree_fits(root, width, cache, set()) or (
            width == dst_bits and _tree_fits_mod(root, width, set())
        ):
            narrower = _Narrower(function, width, cache)
            narrow_root = narrower.build(root)
            if width == dst_bits:
                trunc.replace_all_uses_with(narrow_root)
                trunc.erase()
            else:
                trunc.set_operand(0, narrow_root)
            return True
    return False


_MOD_OPS = frozenset("add sub mul and or xor shl".split())


def _tree_fits_mod(value: Value, bits: int, seen: set) -> bool:
    """Wrap-agnostic check: ops whose low ``bits`` depend only on operand
    low bits can always be evaluated at the final width."""
    if len(seen) > _MAX_TREE:
        return False
    if isinstance(value, Constant):
        return True
    if not isinstance(value, Instruction):
        return False
    if value in seen:
        return True
    seen.add(value)
    if value.opcode in ("zext", "sext"):
        src_elem = _elem(value.operands[0].type)
        return src_elem is not None and src_elem.bits <= bits
    if value.opcode == "select":
        return _tree_fits_mod(value.operands[1], bits, seen) and _tree_fits_mod(
            value.operands[2], bits, seen
        )
    if value.opcode in _MOD_OPS:
        if value.opcode == "shl":
            return isinstance(value.operands[1], Constant) and _tree_fits_mod(
                value.operands[0], bits, seen
            )
        return all(_tree_fits_mod(o, bits, seen) for o in value.operands)
    return False


def _narrow_icmp(function: Function, icmp: Instruction) -> bool:
    a, b = icmp.operands
    a_elem = _elem(a.type)
    if a_elem is None or a_elem == I1:
        return False
    cache: Dict = {}
    ra = _range_of(a, cache)
    rb = _range_of(b, cache)
    if ra is None or rb is None:
        return False
    pred0 = icmp.attrs["pred"]
    if pred0 in ("ult", "ule", "ugt", "uge") and (ra[0] < 0 or rb[0] < 0):
        return False
    for width in (8, 16, 32):
        if width >= a_elem.bits:
            return False
        if not (_fits(ra, width) and _fits(rb, width)):
            continue
        if not (
            _tree_fits(a, width, cache, set()) and _tree_fits(b, width, cache, set())
        ):
            continue
        narrower = _Narrower(function, width, cache)
        na, nb = narrower.build(a), narrower.build(b)
        pred = icmp.attrs["pred"]
        if ra[0] >= 0 and rb[0] >= 0:
            pred = {"slt": "ult", "sle": "ule", "sgt": "ugt", "sge": "uge"}.get(pred, pred)
        new = Instruction("icmp", icmp.type, [na, nb], function.unique_name(icmp.name), {"pred": pred})
        block = icmp.parent
        block.insert(block.instructions.index(icmp), new)
        icmp.replace_all_uses_with(new)
        icmp.erase()
        return True
    return False
