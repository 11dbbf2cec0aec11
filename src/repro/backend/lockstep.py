"""Does running ``n`` consecutive loop iterations in lockstep reverse a
dependence of their sequential order?

Gang batching runs B gangs per trip and the auto-vectorizer baseline VF
iterations per vector iteration: each access for all ``n`` iterations
at once, in body order.  Both ask this one question, of plain memory refs
built from their own affine forms.  Ref ``r`` of iteration ``k`` touches
the bytes ``r.offset + k·r.step + b``, ``b`` a bit of ``r.bytes``; refs
on different bases never meet.  For each write ``W`` and each ref ``X``
on its base, different steps give up; else every ``0 < |d| < n`` at
which ``W`` of iteration ``k`` and ``X`` of ``k + d`` share a byte is a
meeting, harmless only when ``W`` is not ``X``, neither is ``looped``
(in a loop of the body, whose trips interleave across iterations), and
the ref earlier in the body belongs to the earlier iteration.  A ref that
``folds`` (``n`` commuting updates of one cell, folded into one) may
meet itself.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Optional

__all__ = ["MemRef", "lockstep_conflict"]


class MemRef(NamedTuple):
    base: Hashable
    offset: int
    step: int
    bytes: int  # a bitset from ``offset``
    write: bool
    order: int  # position in the body
    looped: bool = False
    folds: bool = False


def lockstep_conflict(refs: Iterable[MemRef], n: int) -> Optional[str]:
    """Why lockstep over ``n`` iterations would reverse a dependence
    between ``refs``, or ``None``."""
    groups = {}
    for ref in refs:
        groups.setdefault(ref.base, []).append(ref)
    for group in groups.values():
        for w in (r for r in group if r.write):
            for x in group:
                if x.step != w.step:
                    return "accesses to one base advance by different steps"
                d = _reversed_meeting(w, x, n)
                if d is not None:
                    kind = ("write-after-write" if x.write else
                            "read-after-write" if d > 0 else "write-after-read")
                    return (f"lockstep reverses a {kind} dependence at"
                            f" distance {abs(d)}")
    return None


def _reversed_meeting(w: MemRef, x: MemRef, n: int) -> Optional[int]:
    """The nearest ``d`` at which ``w`` of iteration ``k`` and ``x`` of
    ``k + d`` share a byte in an order lockstep reverses, or ``None``."""
    if x is w and w.folds:
        return None
    ordered = not (x is w or w.looped or x.looped)
    later = x.order > w.order
    base = x.offset - w.offset  # x from w, at d = 0
    step = w.step
    if step == 0:
        near = range(1 - n, n) if _overlap(w.bytes, x.bytes, base) else ()
    else:  # only where -len(x) < base + d·step < len(w)
        lo, hi = -x.bytes.bit_length() - base, w.bytes.bit_length() - base
        if step < 0:
            lo, hi = hi, lo
        near = range(max(lo // step + 1, 1 - n), min(-(-hi // step), n))
    for d in sorted(near, key=abs):
        if d and _overlap(w.bytes, x.bytes, base + d * step) and not (
                ordered and later == (d > 0)):
            return d
    return None


def _overlap(w_bytes: int, x_bytes: int, shift: int) -> bool:
    """``x_bytes`` placed ``shift`` bytes after ``w_bytes`` meet them."""
    if shift >= 0:
        return bool(w_bytes & (x_bytes << shift))
    return bool((w_bytes << -shift) & x_bytes)
