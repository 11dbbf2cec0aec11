"""Affine (SCEV-lite) analysis of values relative to a loop induction.

Classifies integer/pointer values inside a loop as ``sym + coeff·i +
const`` where ``i`` is the canonical induction variable, ``coeff`` and
``const`` are compile-time integers, and ``sym`` is a canonical form of
the loop-invariant symbolic part — a loop-invariant pointer cast or
offset counts as its root plus a byte offset, so ``(u32*)((u8*)a + 2)``
and ``a`` share a ``sym``.  This powers the classical loop vectorizer's
two decisions (paper §2: "alias analysis as well as target-dependent
heuristics"):

* **access classification** — unit-stride / small-stride / unanalyzable;
* **dependence testing** — each access is a lockstep
  :class:`~repro.backend.lockstep.MemRef` on base ``sym``: offset
  ``const``, step ``coeff``, its element's bytes (whole or in part).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..ir.cfg import Loop
from ..ir.instructions import Instruction
from ..ir.values import Constant, Value

__all__ = ["Affine", "AffineAnalysis"]


@dataclass(frozen=True)
class Affine:
    """``sym + coeff·i + const`` (sym: multiset of (value-id, factor))."""

    coeff: int
    const: int
    sym: FrozenSet[Tuple[int, int]]  # frozenset of (id(value), factor)


def _sym_add(a: FrozenSet, b: FrozenSet) -> FrozenSet:
    combined: Dict[int, int] = {}
    for vid, factor in list(a) + list(b):
        combined[vid] = combined.get(vid, 0) + factor
    return frozenset((vid, f) for vid, f in combined.items() if f != 0)


def _sym_scale(a: FrozenSet, k: int) -> FrozenSet:
    return frozenset((vid, f * k) for vid, f in a) if k else frozenset()


class AffineAnalysis:
    """Computes affine forms for values in one loop."""

    def __init__(self, loop: Loop, induction: Value):
        self.loop = loop
        self.induction = induction
        self._cache: Dict[Value, Optional[Affine]] = {}
        self._in_flight: Set[int] = set()

    def analyze(self, value: Value) -> Optional[Affine]:
        """Affine form of ``value`` relative to the induction, or None."""
        if value in self._cache:
            return self._cache[value]
        if id(value) in self._in_flight:
            return None  # cyclic (non-induction recurrence)
        self._in_flight.add(id(value))
        try:
            result = self._compute(value)
        finally:
            self._in_flight.discard(id(value))
        self._cache[value] = result
        return result

    def _compute(self, value: Value) -> Optional[Affine]:
        if value is self.induction:
            return Affine(coeff=1, const=0, sym=frozenset())
        if isinstance(value, Constant) and value.type.is_int:
            return Affine(coeff=0, const=value.as_signed(), sym=frozenset())
        if not isinstance(value, Instruction) or (
                value.parent not in self.loop.blocks
                and value.opcode not in ("bitcast", "gep")):
            # Loop-invariant: a pure symbol (a pointer cast or offset goes
            # on to its root).
            return Affine(coeff=0, const=0, sym=frozenset([(id(value), 1)]))

        op = value.opcode
        ops = value.operands
        if op == "add":
            a, b = self.analyze(ops[0]), self.analyze(ops[1])
            if a is None or b is None:
                return None
            return Affine(a.coeff + b.coeff, a.const + b.const, _sym_add(a.sym, b.sym))
        if op == "sub":
            a, b = self.analyze(ops[0]), self.analyze(ops[1])
            if a is None or b is None:
                return None
            neg = _sym_scale(b.sym, -1)
            return Affine(a.coeff - b.coeff, a.const - b.const, _sym_add(a.sym, neg))
        if op == "mul":
            a, b = self.analyze(ops[0]), self.analyze(ops[1])
            if a is None or b is None:
                return None
            for x, y in ((a, b), (b, a)):
                if x.coeff == 0 and not x.sym:  # pure constant factor
                    return Affine(y.coeff * x.const, y.const * x.const,
                                  _sym_scale(y.sym, x.const))
            return None
        if op == "shl":
            a = self.analyze(ops[0])
            b = self.analyze(ops[1])
            if a is None or b is None or b.coeff != 0 or b.sym:
                return None
            k = 1 << b.const
            return Affine(a.coeff * k, a.const * k, _sym_scale(a.sym, k))
        if op == "gep":
            ptr = self.analyze(ops[0])
            idx = self.analyze(ops[1])
            if ptr is None or idx is None:
                return None
            size = value.type.pointee.size_bytes()
            return Affine(ptr.coeff + idx.coeff * size,
                          ptr.const + idx.const * size,
                          _sym_add(ptr.sym, _sym_scale(idx.sym, size)))
        if op in ("sext", "zext", "trunc", "ptrtoint", "inttoptr", "bitcast"):
            # Width changes preserve affine form under the vectorizer's
            # standard no-wrap assumption for induction expressions.
            return self.analyze(ops[0])
        return None
