"""Seeded random SPMD kernel generator for differential fuzzing.

Generates small PsimC kernels — straight-line arithmetic, ``if``/``else``
divergence, bounded ``while`` loops, gathers over indexed/varying shapes,
lane-private arrays (SoA-swizzled, §4.2.3), and convergent gang
reductions — whose semantics are engine-independent: no read-after-write
aliasing between lanes, loop bounds that provably terminate.  Any two
correct execution strategies (full vectorization, region-granular partial
fallback, whole-function scalarization, whole-kernel codegen) must
therefore produce bit-identical outputs, which is exactly what
``tests/fuzz/test_differential_kernels.py`` checks.

One carve-out: a kernel containing a cross-lane intrinsic
(``psim_reduce_*_sync``, or the ``psim_shuffle_sync`` lane exchanges)
has **no scalar execution strategy** — cross-lane communication cannot
be scalarized, so degraded compiles raise ``CompileError`` instead of
falling back (``FuzzKernel.refuses_whole_fallback`` flags this for the
test harness and ``examples/fuzz_smoke.py``).  The vector-engine strategies (decoded, batched,
codegen) still all apply and must still agree bitwise; reductions may
additionally sit inside a uniform-trip-count loop *after* the divergent
body, so the sync point executes repeatedly under loop control flow.

Everything is derived from one integer seed via ``random.Random``, so a
failing kernel reproduces from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["FuzzKernel", "generate_kernel", "workload_arrays", "N_THREADS"]

#: Thread count for every fuzz kernel: deliberately not a multiple of any
#: gang size below, so the tail gang (partial last gang) is always covered.
N_THREADS = 37

_GANGS = (4, 8, 16)

#: Unary math builtins applied behind a domain guard (see _f_math).
_MATH1 = ("exp", "log2", "floor", "rsqrt")
_MATH2 = ("pow", "fmod")


@dataclass
class FuzzKernel:
    seed: int
    gang_size: int
    source: str
    #: Kernel calls a ``psim_reduce_*_sync`` intrinsic: no scalar strategy
    #: exists, so degraded compiles must raise instead of falling back.
    has_reduction: bool = False
    #: Kernel declares a lane-private array (exercises the SoA-swizzled
    #: blocked layout and, under gang batching, its legality rejection).
    has_private: bool = False
    #: Kernel calls ``psim_shuffle_sync`` (cross-lane exchange): like
    #: reductions, no scalar strategy exists.
    has_shuffle: bool = False

    @property
    def refuses_whole_fallback(self) -> bool:
        """Cross-lane communication (reductions, lane exchanges) has no
        scalar strategy: a degraded compile must raise ``CompileError``,
        never fall back to a semantically different kernel."""
        return self.has_reduction or self.has_shuffle


_REDUCTIONS = ("psim_reduce_add_sync", "psim_reduce_min_sync",
               "psim_reduce_max_sync")

#: Lane-private array length; every generated index is reduced mod this.
_PRIVATE_LEN = 4


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.gang = self.rng.choice(_GANGS)
        # Feature draws happen up front so the rest of the stream — and
        # therefore the body shared by featureless kernels — stays stable.
        self.private = self.rng.random() < 0.35
        self.reduction = self.rng.random() < 0.20
        self.shuffle = self.rng.random() < 0.30
        self.counter = 0
        self.lines: List[str] = []
        self.indent = 2

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -- expressions ---------------------------------------------------------------

    def f_leaf(self) -> str:
        r = self.rng
        choice = r.randrange(8)
        if choice == 0:
            return f"{r.uniform(-2.0, 2.0):.5f}f"
        if choice == 1:
            return "sv"
        if choice == 2:
            # Gather: varying index derived from per-lane integer state.
            # Remainder *before* abs: ``abs(INT_MIN)`` wraps negative, so
            # ``abs(x) % n`` can go out of bounds while ``abs(x % n)``
            # is total (|x % n| < n for every i32 x).
            return f"A[(u64)abs({self.i_leaf()} % {N_THREADS})]"
        if choice == 3:
            return f"(f32){self.i_leaf()}"
        if choice == 4 and self.private:
            # Lane-private array read through a varying in-bounds index.
            return f"t[(u64)abs({self.i_leaf()} % {_PRIVATE_LEN})]"
        return r.choice(("x", "y", "va", "vb"))

    def i_leaf(self) -> str:
        r = self.rng
        choice = r.randrange(5)
        if choice == 0:
            return str(r.randrange(-9, 10))
        if choice == 1:
            return "si"
        return r.choice(("p", "q"))

    def f_expr(self, depth: int) -> str:
        r = self.rng
        if depth <= 0:
            return self.f_leaf()
        choice = r.randrange(8)
        a = self.f_expr(depth - 1)
        if choice < 3:
            op = r.choice(("+", "-", "*", "/"))
            return f"({a} {op} {self.f_expr(depth - 1)})"
        if choice == 3:
            # Parenthesize: a negative literal operand would lex as ``--``.
            return f"(-({a}))"
        if choice == 4:
            fn = r.choice(("min", "max"))
            return f"{fn}({a}, {self.f_expr(depth - 1)})"
        if choice == 5:
            return self._f_math(a)
        if choice == 6:
            return f"abs({a})"
        return self.f_leaf()

    def _f_math(self, arg: str) -> str:
        # Keep math arguments in tame domains so no strategy-dependent NaN
        # payloads or overflows sneak into the comparison: exp/pow operate
        # on clamped inputs, log2/rsqrt on strictly positive ones.
        fn = self.rng.choice(_MATH1 + _MATH2)
        small = f"min(max({arg}, -8.0f), 8.0f)"
        positive = f"(abs({arg}) + 0.125f)"
        if fn == "exp":
            return f"exp({small})"
        if fn in ("log2", "rsqrt"):
            return f"{fn}({positive})"
        if fn == "pow":
            return f"pow({positive}, min(max({self.f_leaf()}, -4.0f), 4.0f))"
        return f"fmod({arg}, 3.0f)"

    def i_expr(self, depth: int) -> str:
        r = self.rng
        if depth <= 0:
            return self.i_leaf()
        choice = r.randrange(7)
        a = self.i_expr(depth - 1)
        if choice < 3:
            op = r.choice(("+", "-", "*"))
            return f"({a} {op} {self.i_expr(depth - 1)})"
        if choice == 3:
            return f"({a} % {r.choice((3, 5, 7, 11))})"
        if choice == 4:
            fn = r.choice(("min", "max"))
            return f"{fn}({a}, {self.i_expr(depth - 1)})"
        if choice == 5:
            # Narrowing arithmetic: wrap through u8/u16 and widen back,
            # exercising trunc/zext chains, the vectorizer's sub-word
            # lanes, and every engine's modular-wraparound agreement.
            narrow = r.choice(("u8", "u16"))
            return f"(i32)(({narrow})({a}))"
        return self.i_leaf()

    def condition(self) -> str:
        r = self.rng
        if r.random() < 0.5:
            op = r.choice(("<", ">", "<=", ">=", "==", "!="))
            return f"{self.i_expr(1)} {op} {self.i_expr(1)}"
        op = r.choice(("<", ">", "<=", ">="))
        return f"{self.f_expr(1)} {op} {self.f_expr(1)}"

    # -- statements ----------------------------------------------------------------

    def assign(self) -> None:
        r = self.rng
        if self.private and r.random() < 0.15:
            idx = f"(u64)abs(({self.i_expr(1)}) % {_PRIVATE_LEN})"
            self.emit(f"t[{idx}] = {self.f_expr(r.randrange(1, 3))};")
        elif r.random() < 0.5:
            var = r.choice(("x", "y"))
            self.emit(f"{var} = {self.f_expr(r.randrange(1, 3))};")
        else:
            var = r.choice(("p", "q"))
            self.emit(f"{var} = {self.i_expr(r.randrange(1, 3))};")

    def if_stmt(self, depth: int) -> None:
        self.emit(f"if ({self.condition()}) {{")
        self.indent += 1
        self.block(depth - 1, self.rng.randrange(1, 3))
        self.indent -= 1
        if self.rng.random() < 0.6:
            self.emit("} else {")
            self.indent += 1
            self.block(depth - 1, self.rng.randrange(1, 3))
            self.indent -= 1
        self.emit("}")

    def while_stmt(self, depth: int) -> None:
        # Trip count is bounded by construction: a per-lane limit in
        # [-2, 6] and a counter that increments every iteration.
        k = self.fresh("k")
        lim = self.fresh("lim")
        self.emit(f"i32 {lim} = {self.rng.randrange(1, 4)} + ({self.i_expr(1)} % 4);")
        self.emit(f"i32 {k} = 0;")
        self.emit(f"while ({k} < {lim}) {{")
        self.indent += 1
        self.block(depth - 1, self.rng.randrange(1, 3))
        if self.rng.random() < 0.5:
            self.emit(f"x = x + (f32){k};")
        self.emit(f"{k} = {k} + 1;")
        self.indent -= 1
        self.emit("}")

    def block(self, depth: int, n_stmts: int) -> None:
        for _ in range(n_stmts):
            r = self.rng.random()
            if depth > 0 and r < 0.25:
                self.if_stmt(depth)
            elif depth > 0 and r < 0.45:
                self.while_stmt(depth)
            else:
                self.assign()

    # -- whole kernel ----------------------------------------------------------------

    def generate(self) -> FuzzKernel:
        self.block(2, self.rng.randrange(3, 7))
        body = "\n".join(self.lines)
        decls = ""
        if self.private:
            decls = (f"        f32 t[{_PRIVATE_LEN}];\n"
                     "        t[0] = va; t[1] = vb; t[2] = sv;"
                     " t[3] = va - vb;\n")
        # Cross-lane exchanges sit at top level, after the divergent
        # body: a butterfly/rotation pattern mixes the per-lane f32 and
        # i32 state across the gang (the lane index wraps mod gang size
        # by the shuffle contract, so any pattern is in-bounds).
        shuffle_line = ""
        if self.shuffle:
            rot = self.rng.choice(("^ 1", "+ 1", "^ 3",
                                   f"+ {self.gang - 1}"))
            shuffle_line = (
                f"        f32 ex = psim_shuffle_sync(x,"
                f" psim_get_lane_num() {rot});\n"
                "        x = (x + ex) * 0.5f;\n"
                f"        q = q + psim_shuffle_sync(q,"
                f" psim_get_lane_num() {rot});\n")
        # Reductions also sit after the divergent body: every lane of the
        # gang reaches the sync point together (convergent by
        # construction), the only masking being the tail gang's.  Half of
        # them additionally run inside a uniform-trip-count loop, so the
        # sync point repeats under loop control flow.
        reduce_line = ""
        if self.reduction:
            fn = self.rng.choice(_REDUCTIONS)
            if self.rng.random() < 0.5:
                reduce_line = (
                    "        i32 rk = 0;\n"
                    "        while (rk < 2) {\n"
                    f"            f32 red = {fn}(min(max(x, -8.0f),"
                    " 8.0f));\n"
                    "            y = y + red * 0.125f;\n"
                    "            rk = rk + 1;\n"
                    "        }\n")
            else:
                reduce_line = (f"        f32 red = {fn}(x);\n"
                               "        y = y + red;\n")
        source = f"""
void kernel(f32* A, f32* B, i32* C, f32* OUT, i32* IOUT,
            f32 sv, i32 si, u64 n) {{
    psim (gang_size={self.gang}, num_threads=n) {{
        u64 i = psim_get_thread_num();
        f32 va = A[i];
        f32 vb = B[i];
        i32 p = C[i];
        f32 x = va * 0.5f;
        f32 y = sv - vb;
        i32 q = si + p;
{decls}{body}
{shuffle_line}{reduce_line}        OUT[i] = x + y;
        IOUT[i] = p + q * 3;
    }}
}}
"""
        return FuzzKernel(seed=self.seed, gang_size=self.gang,
                          source=source, has_reduction=self.reduction,
                          has_private=self.private,
                          has_shuffle=self.shuffle)


def generate_kernel(seed: int) -> FuzzKernel:
    """One deterministic random SPMD kernel for ``seed``."""
    return _Gen(seed).generate()


def workload_arrays(seed: int):
    """Deterministic inputs for a fuzz kernel: ``(A, B, C, OUT, IOUT, sv, si)``."""
    rng = np.random.default_rng(0xF0770 + seed)
    A = (rng.random(N_THREADS, dtype=np.float32) * 8 - 4).astype(np.float32)
    B = (rng.random(N_THREADS, dtype=np.float32) * 8 - 4).astype(np.float32)
    C = rng.integers(-50, 51, N_THREADS).astype(np.int32)
    OUT = np.zeros(N_THREADS, np.float32)
    IOUT = np.zeros(N_THREADS, np.int32)
    sv = float(np.float32(rng.random() * 4 - 2))
    si = int(rng.integers(-20, 21))
    return A, B, C, OUT, IOUT, sv, si
