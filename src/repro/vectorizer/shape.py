"""Value shapes for the Parsimony vectorizer (§4.2.2).

Parsimony classifies every SSA value into one of two categories:

* **indexed** — representable as ``base + offset[lane]`` where ``base`` is
  a (possibly runtime) scalar common to all lanes and the per-lane offsets
  are compile-time constants.  *Uniform* (all offsets zero) and *strided*
  (offsets ``k·lane``) values are special cases; keeping the broader
  indexed category captures more patterns (e.g. lane permutations of a
  stride, or the blocked per-lane layout of privatized allocas).
* **varying** — everything else; stored as a vector value in the IR.

Indexed values keep their base in a scalar register and their offsets as
compiler metadata (exactly the paper's representation), which is what lets
the transformer emit scalar instructions, scalar branches, and packed
memory accesses.

A ``Shape`` is immutable: nothing writes ``offsets`` in place, so the
analysis shares one read-only uniform shape per lane count and one
varying shape instead of building a fresh one per query.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["Shape", "uniform", "indexed", "varying", "lane_shape"]


class Shape:
    """Shape of one SSA value across the gang's lanes."""

    __slots__ = ("offsets", "_uniform")

    def __init__(self, offsets: Optional[np.ndarray]):
        #: ``None`` means varying; otherwise an int64 array of per-lane offsets.
        self.offsets = offsets
        #: :attr:`is_uniform`, once asked.
        self._uniform: Optional[bool] = None

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def uniform(lanes: int) -> "Shape":
        """The one (read-only) uniform shape of ``lanes`` lanes."""
        shape = _UNIFORM.get(lanes)
        if shape is None:
            offsets = np.zeros(lanes, dtype=np.int64)
            offsets.setflags(write=False)
            shape = _UNIFORM[lanes] = Shape(offsets)
            shape._uniform = True
        return shape

    @staticmethod
    def indexed(offsets) -> "Shape":
        return Shape(np.asarray(offsets, dtype=np.int64))

    @staticmethod
    def varying() -> "Shape":
        return _VARYING

    # -- predicates --------------------------------------------------------------

    @property
    def is_varying(self) -> bool:
        return self.offsets is None

    @property
    def is_indexed(self) -> bool:
        return self.offsets is not None

    @property
    def is_uniform(self) -> bool:
        uniform = self._uniform
        if uniform is None:
            uniform = self._uniform = (self.offsets is not None
                                       and not self.offsets.any())
        return uniform

    def stride(self) -> Optional[int]:
        """The constant stride if offsets are ``k·lane``, else ``None``."""
        if self.offsets is None or len(self.offsets) == 0:
            return None
        lanes = np.arange(len(self.offsets), dtype=np.int64)
        if len(self.offsets) == 1:
            return int(self.offsets[0]) if self.offsets[0] == 0 else None
        k = int(self.offsets[1]) - int(self.offsets[0])
        if np.array_equal(self.offsets, self.offsets[0] + k * lanes):
            return k
        return None

    def same_as(self, other: "Shape") -> bool:
        if self is other:
            return True
        if self.is_varying or other.is_varying:
            return self.is_varying and other.is_varying
        return np.array_equal(self.offsets, other.offsets)

    def __repr__(self) -> str:
        if self.is_varying:
            return "varying"
        if self.is_uniform:
            return "uniform"
        stride = self.stride()
        if stride is not None:
            return f"indexed(stride={stride})"
        return f"indexed({self.offsets.tolist()})"


#: Lane count -> its uniform shape (see :meth:`Shape.uniform`).
_UNIFORM: Dict[int, Shape] = {}
_VARYING = Shape(None)


def uniform(lanes: int) -> Shape:
    return Shape.uniform(lanes)


def indexed(offsets) -> Shape:
    return Shape.indexed(offsets)


def varying() -> Shape:
    return Shape.varying()


def lane_shape(lanes: int) -> Shape:
    """The shape of ``psim.lane_num()``: indexed with stride 1 (§4.2.2)."""
    return Shape.indexed(np.arange(lanes, dtype=np.int64))
