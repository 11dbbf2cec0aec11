"""``repro.backend`` — machine model, cost model, and legalization
(substitutes for the unmodified LLVM back-end of paper §4.3), and the
lockstep dependence test gang batching and the auto-vectorizer share."""

from .machine import AVX2, AVX512, ExecStats, Machine, SSE4
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .legalize import legalize_function, legalize_module
from .lockstep import MemRef, lockstep_conflict

__all__ = [
    "Machine", "AVX512", "AVX2", "SSE4", "ExecStats",
    "CostModel", "DEFAULT_COST_MODEL",
    "legalize_function", "legalize_module",
    "MemRef", "lockstep_conflict",
]
