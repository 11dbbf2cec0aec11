"""Machine model: the SIMD CPU the compiled IR "runs" on.

This substitutes for the paper's Intel Xeon Gold 6258R with AVX-512
(§5): a single core with fixed-width SIMD registers.  The back-end
legalizes gang-width vector IR down to machine-width operations (§4.3) —
e.g. a gang-32 × i32 add (1024b) becomes two 512b machine ops — and the
cost model charges cycles per machine op.

The model is deliberately simple but captures the effects the paper's
evaluation turns on:

* packed loads/stores are roughly an order of magnitude cheaper than
  gather/scatter ("often no faster than performing each individual
  serialized scalar access", §4.2.2);
* uniform/indexed values stay in scalar registers and cost scalar rates;
* wide memory traffic is bandwidth-limited, so pure streaming kernels do
  not show unrealistic 64× speedups;
* complex horizontal ops (``sad``/vpsadbw) are single machine ops, which
  is why hand-written kernels edge out the vectorizer on a few kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..ir.types import Type, VectorType

__all__ = ["Machine", "AVX512", "AVX2", "SSE4", "ExecStats"]


@dataclass(frozen=True)
class Machine:
    """A SIMD CPU description.

    Attributes
    ----------
    name:
        Human-readable ISA name.
    vector_bits:
        SIMD register width; gang-width IR vectors are legalized into
        ``ceil(gang_bits / vector_bits)`` machine ops.
    mem_bandwidth_bytes:
        Sustained bytes transferable per cycle; wide memory ops pay
        ``bytes / mem_bandwidth_bytes`` cycles when that exceeds the issue
        cost.
    gather_lane_cost:
        Cycles per *lane* for gather/scatter (the serialization penalty).
    shuffle_cost:
        Cycles per machine op for cross-lane permutes.
    """

    name: str = "avx512"
    vector_bits: int = 512
    mem_bandwidth_bytes: float = 16.0
    gather_lane_cost: float = 2.0
    shuffle_cost: float = 2.0

    def lanes(self, elem_bits: int) -> int:
        """Native lane count for elements of the given width."""
        return self.vector_bits // elem_bits

    def legalize_factor(self, type: Type) -> int:
        """How many machine ops one IR op of this type legalizes into."""
        if not isinstance(type, VectorType):
            return 1
        bits = type.elem.bits * type.count
        if type.elem.bits == 1:
            # Masks live in predicate registers (AVX-512 k-regs).
            return 1
        return max(1, math.ceil(bits / self.vector_bits))


#: Default machine: 512-bit SIMD, mirroring the paper's AVX-512 testbed.
AVX512 = Machine(name="avx512", vector_bits=512)
#: Narrower machines, used for width-agnostic tests and ablations.
AVX2 = Machine(name="avx2", vector_bits=256)
SSE4 = Machine(name="sse4", vector_bits=128)


@dataclass
class ExecStats:
    """Counters accumulated by the VM while executing a function.

    ``cycles`` is the cost-model time; the per-opcode ``counts`` let tests
    assert instruction-selection properties (e.g. "no gathers emitted on a
    unit-stride kernel").
    """

    cycles: float = 0.0
    instructions: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    def charge(self, opcode: str, cycles: float) -> None:
        self.cycles += cycles
        self.instructions += 1
        self.counts[opcode] = self.counts.get(opcode, 0) + 1

    def count(self, *opcodes: str) -> int:
        return sum(self.counts.get(op, 0) for op in opcodes)
