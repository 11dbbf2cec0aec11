"""Seeded random SPMD kernel generator for differential fuzzing.

Generates small PsimC kernels — straight-line arithmetic, ``if``/``else``
divergence, bounded ``while`` loops, gathers over indexed/varying shapes,
lane-private arrays (SoA-swizzled, §4.2.3), and convergent gang
reductions — whose semantics are engine-independent: no read-after-write
aliasing between lanes, loop bounds that provably terminate.  Any two
correct execution strategies (full vectorization, whole-function
scalarization, gang batching, whole-kernel codegen) must
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
Integer reductions sit *before* the divergent body and feed the
per-lane state back (a broadcast of the per-gang result) and, half the
time, one gang-wide atomic on the cell ``IOUT[n]`` past the per-lane
outputs: the forms gang batching keeps per gang.  A per-thread array
written and then read at *uniform* indices (``u[k]`` in counted loops:
packed SoA rows, which gang batching expands per gang) sits before the
divergent body, where the loop counters are still uniform.  In its
*read-before-write* variant the writes skip row 0, which no thread
writes, so every build reads the zeroed block there — and a batched
build, which holds no copy of an unwritten row, replays on its unbatched
twin (``FuzzKernel.reads_unwritten``).

A third of the kernels put the region inside a row loop — three rows of
``n / 3`` threads, thread ``i = row + x`` with ``row = r * w``: the row
nest of the Simd Library filters, which gang batching collapses into the
gang trip.  Their gang atomics update a per-row cell ``IOUT[n + 1 + r]``,
and they declare no per-thread array at uniform indices.
In the *in-place* variant (``FuzzKernel.in_place``) two rows run and each
also writes ``B`` one row down (from its own row's ``B``), which the next
row reads: the output
aliases the input one row apart, so a collapsed nest's no-alias check
fails and the rows run one per trip.

Two in five kernels (drawn last of all) add to a cell their lanes' state
picks — the serialized atomic of §4.2.3, a scatter-add once batched:
``IOUT[n + 4 + (e & 15)]``, unguarded or under a varying ``if``, or in
the *aliasing* variant (``FuzzKernel.scatter_aliases``) ``C[e & 15]``,
which the loop reads, from threads ``i >= 16`` only: their updates land
after every read of those cells in any order, but a batched trip holding
both replays.  Like row kernels, these read no gathers and keep no
per-thread array at uniform indices.

Everything is derived from one integer seed via ``random.Random``, so a
failing kernel reproduces from its seed alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["FuzzKernel", "generate_kernel", "generate_shifted_kernel",
           "workload_arrays", "N_THREADS", "N_CELLS"]

#: Thread count for every fuzz kernel: deliberately not a multiple of any
#: gang size below, so the tail gang (partial last gang) is always covered.
N_THREADS = 37

#: ``IOUT`` cells: one per thread, the gang atomics' cell ``IOUT[n]``, the
#: per-row cells of the row variant and the 16 cells of the scatter-adds.
N_CELLS = N_THREADS + 4 + 16

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
    #: blocked layout and, read through a gather, the batching legality
    #: rejection).
    has_private: bool = False
    #: Kernel calls ``psim_shuffle_sync`` (cross-lane exchange): like
    #: reductions, no scalar strategy exists.
    has_shuffle: bool = False
    #: Kernel reduces integer state across the gang (counted in
    #: ``has_reduction`` too) ...
    has_int_reduction: bool = False
    #: ... and adds the result into ``IOUT[n]`` with one atomic per gang.
    has_atomic: bool = False
    #: Kernel writes and reads a per-thread array at uniform indices ...
    has_uniform_array: bool = False
    #: ... and reads a row of it no thread writes: a batched build that
    #: expands the array replays on its unbatched twin.
    reads_unwritten: bool = False
    #: The region sits in a row loop (``row = r * w`` addressing) ...
    rows: bool = False
    #: ... and writes ``B`` one row down, which the next row reads.
    in_place: bool = False
    #: Kernel adds to a cell its lanes' state picks (a scatter-add) ...
    scatter_add: bool = False
    #: ... inside ``C``, which the loop reads.
    scatter_aliases: bool = False

    @property
    def refuses_whole_fallback(self) -> bool:
        """Cross-lane communication (reductions, lane exchanges) has no
        scalar strategy: a degraded compile must raise ``CompileError``,
        never fall back to a semantically different kernel."""
        return self.has_reduction or self.has_shuffle


_REDUCTIONS = ("psim_reduce_add_sync", "psim_reduce_min_sync",
               "psim_reduce_max_sync")
_ATOMICS = ("psim_atomic_add", "psim_atomic_min", "psim_atomic_max")

#: A gather leaf of :meth:`_Gen.f_leaf` (its index is an integer leaf).
_GATHER = re.compile(r"A\[\(u64\)abs\(([^()\[\]]*)\)\]")

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
        # Integer reductions (drawn last, so every earlier draw — and the
        # source of a kernel without them — is what it was before they
        # existed) sit before the divergent body: the gang's mask is still
        # the launch's there, so the atomic's one-lane guard is the same
        # for every gang.
        int_line = ""
        int_reduction = self.rng.random() < 0.30
        atomic = False
        if int_reduction:
            fn = self.rng.choice(_REDUCTIONS)
            int_line = (f"        i32 ired = {fn}(q * 3 + p);\n"
                        "        q = q + ired % 7;\n")
            atomic = self.rng.random() < 0.5
            if atomic:
                int_line += (
                    "        if (psim_get_lane_num() == 0) {\n"
                    f"            {self.rng.choice(_ATOMICS)}(IOUT + n, ired);\n"
                    "        }\n")
        # Per-thread array at uniform indices (drawn after everything
        # else, like the integer reductions): written in one counted loop,
        # read in the next; the read-before-write variant skips row 0.
        uniform_line = ""
        uniform = self.rng.random() < 0.50
        unwritten = uniform and self.rng.random() < 0.40
        if uniform:
            uniform_line = (
                f"        f32 u[{_PRIVATE_LEN}];\n"
                f"        i32 uw = {int(unwritten)};\n"
                f"        while (uw < {_PRIVATE_LEN}) {{\n"
                "            u[(u64)uw] = x * 0.5f + (f32)uw;\n"
                "            uw = uw + 1;\n"
                "        }\n"
                "        i32 ur = 0;\n"
                f"        while (ur < {_PRIVATE_LEN}) {{\n"
                "            y = y + u[(u64)ur] * 0.25f;\n"
                "            ur = ur + 1;\n"
                "        }\n")
        # The row loop (drawn last but one).  A row kernel keeps no
        # per-thread array at uniform indices and reads no gathers (their
        # indices become values): private storage and data-dependent
        # addresses keep a row nest from collapsing.
        rows = self.rng.random() < 0.35
        in_place = rows and self.rng.random() < 0.35
        scatter = self.rng.random() < 0.40  # the scatter-add (drawn last)
        variant = self.rng.randrange(3) if scatter else 0
        scatter_line = ""
        if scatter:
            add = (f"psim_atomic_add(IOUT + n + 4 + (u64)(({self.i_expr(1)})"
                   f" & 15), {self.rng.choice(('q', '1', 'p - q'))});")
            if variant == 1:
                add = f"if ({self.condition()}) {{ {add} }}"
            elif variant == 2:
                add = f"if (i >= (u64)16) {{ {add.replace('IOUT + n + 4', 'C')} }}"
            scatter_line = f"        {add}\n"
        if rows or scatter:
            uniform_line, uniform, unwritten = "", False, False
            body = _GATHER.sub(r"(f32)abs(\1)", body)
        region = f"""    psim (gang_size={self.gang}, num_threads=n) {{
        u64 i = psim_get_thread_num();
        f32 va = A[i];
        f32 vb = B[i];
        i32 p = C[i];
        f32 x = va * 0.5f;
        f32 y = sv - vb;
        i32 q = si + p;
{int_line}{decls}{uniform_line}{body}
{shuffle_line}{reduce_line}{scatter_line}        OUT[i] = x + y;
        IOUT[i] = p + q * 3;
    }}
"""
        if rows:
            region = region.replace(
                "num_threads=n", "num_threads=w").replace(
                "u64 i = psim_get_thread_num();",
                "u64 i = row + psim_get_thread_num();").replace(
                "(IOUT + n,", "(IOUT + n + 1 + r,")
            if in_place:
                region = region.replace(
                    "        OUT[i] = x + y;",
                    "        B[i + w] = x - vb;\n        OUT[i] = x + y;")
            region = "\n".join("    " + line if line else line
                                for line in region.split("\n"))
            region = (f"    u64 w = n / 3;\n"
                      f"    for (u64 r = 0; r < {2 if in_place else 3}; r++) {{\n"
                      f"        u64 row = r * w;\n{region}    }}\n")
        source = f"""
void kernel(f32* A, f32* B, i32* C, f32* OUT, i32* IOUT,
            f32 sv, i32 si, u64 n) {{
{region}}}
"""
        return FuzzKernel(seed=self.seed, gang_size=self.gang,
                          source=source,
                          has_reduction=self.reduction or int_reduction,
                          has_private=self.private,
                          has_shuffle=self.shuffle,
                          has_int_reduction=int_reduction,
                          has_atomic=atomic,
                          has_uniform_array=uniform,
                          reads_unwritten=unwritten,
                          rows=rows, in_place=in_place, scatter_add=scatter,
                          scatter_aliases=variant == 2)


def generate_kernel(seed: int) -> FuzzKernel:
    """One deterministic random SPMD kernel for ``seed``."""
    return _Gen(seed).generate()


def generate_shifted_kernel(seed: int) -> FuzzKernel:
    """A kernel for ``seed`` whose ``n - k`` threads read ``B`` (or ``C``)
    ``k`` cells from where they write it — at ``i + k`` and ``i``, or at
    ``i`` and ``i + k`` — before the write or after it: gang batching
    must keep what each thread sees unbatched, or stay unbatched."""
    rng = random.Random(seed)
    gang = rng.choice(_GANGS)
    k = rng.randrange(1, 2 * gang + 2)
    at = ["i", f"i + (u64){k}"]
    read, write = at if rng.random() < 0.5 else at[::-1]
    array, t, value, out = rng.choice((
        ("B", "f32", "va * 0.5f + sv", "OUT"),
        ("C", "i32", "si * (i32)3 + (i32)1", "IOUT")))
    body = [f"{t} v = {array}[{read}];", f"{array}[{write}] = v + {value};"]
    if rng.random() < 0.5:  # the write first, of a value the read is not
        body = [body[1].replace("v + ", ""), body[0]]
    return FuzzKernel(seed=seed, gang_size=gang, source=f"""
void kernel(f32* A, f32* B, i32* C, f32* OUT, i32* IOUT,
            f32 sv, i32 si, u64 n) {{
    u64 m = n - (u64){k};
    psim (gang_size={gang}, num_threads=m) {{
        u64 i = psim_get_thread_num();
        f32 va = A[i];
        {body[0]}
        {body[1]}
        {out}[i] = v;
    }}
}}
""")


def workload_arrays(seed: int):
    """Deterministic inputs for a fuzz kernel: ``(A, B, C, OUT, IOUT, sv, si)``.

    ``IOUT`` holds :data:`N_CELLS` cells: one per thread, the cell the
    gang-wide atomics update, then one per row of the row variant."""
    rng = np.random.default_rng(0xF0770 + seed)
    A = (rng.random(N_THREADS, dtype=np.float32) * 8 - 4).astype(np.float32)
    B = (rng.random(N_THREADS, dtype=np.float32) * 8 - 4).astype(np.float32)
    C = rng.integers(-50, 51, N_THREADS).astype(np.int32)
    OUT = np.zeros(N_THREADS, np.float32)
    IOUT = np.zeros(N_CELLS, np.int32)
    sv = float(np.float32(rng.random() * 4 - 2))
    si = int(rng.integers(-20, 21))
    return A, B, C, OUT, IOUT, sv, si
