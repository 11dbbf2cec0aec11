"""Auto-vectorizer tests: success cases, legality rejections, semantics."""

import numpy as np
import pytest

from repro.autovec import AutoVecConfig, auto_vectorize_module
from repro.backend import AVX512
from repro.driver import compile_autovec, compile_scalar, execute
from repro.vm import Interpreter


def build(source, fast_math=False):
    return compile_autovec(source, AVX512, fast_math=fast_math)


def run_with_arrays(module, fn, arrays, scalars=()):
    interp = Interpreter(module)
    addrs = [interp.memory.alloc_array(a) for a in arrays]
    result = interp.run(fn, *addrs, *scalars)
    outs = [
        interp.memory.read_array(addr, a.dtype, a.size)
        for addr, a in zip(addrs, arrays)
    ]
    return result, outs, interp


SAXPY = """
void saxpy(f32* x, f32* y, f32 a, i32 n) {
    for (i32 i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}
"""


def test_saxpy_vectorizes_and_matches_scalar():
    module = build(SAXPY)
    x = np.linspace(0, 1, 100, dtype=np.float32)
    y0 = np.linspace(1, 2, 100, dtype=np.float32)
    _, (x_out, y_out), interp = run_with_arrays(module, "saxpy", [x, y0.copy()], (2.0, 100))
    np.testing.assert_array_equal(y_out, np.float32(2.0) * x + y0)
    assert interp.stats.count("vload") > 0  # really vectorized
    # 100 elements at VF 16 -> 6 vector iterations + 4 scalar remainder
    assert interp.stats.counts.get("vstore", 0) == 6


def test_remainder_loop_handles_small_n():
    module = build(SAXPY)
    x = np.ones(3, dtype=np.float32)
    y = np.zeros(3, dtype=np.float32)
    _, (_, y_out), interp = run_with_arrays(module, "saxpy", [x, y], (5.0, 3))
    np.testing.assert_array_equal(y_out, np.full(3, 5.0, dtype=np.float32))
    assert interp.stats.count("vload") == 0  # too short: scalar path only


def test_integer_sum_reduction():
    src = """
    u32 total(u32* a, i32 n) {
        u32 acc = 0;
        for (i32 i = 0; i < n; i++) { acc += a[i]; }
        return acc;
    }
    """
    module = build(src)
    a = np.arange(77, dtype=np.uint32)
    result, _, interp = run_with_arrays(module, "total", [a], (77,))
    assert result == a.sum()
    assert interp.stats.count("reduce_add") == 1


def test_float_reduction_requires_fast_math():
    src = """
    f32 total(f32* a, i32 n) {
        f32 acc = 0.0f;
        for (i32 i = 0; i < n; i++) { acc += a[i]; }
        return acc;
    }
    """
    module = build(src)  # fast_math=False
    a = np.ones(64, dtype=np.float32)
    _, _, interp = run_with_arrays(module, "total", [a], (64,))
    assert interp.stats.count("vload") == 0  # refused without fast-math

    module = build(src, fast_math=True)
    result, _, interp = run_with_arrays(module, "total", [a], (64,))
    assert result == 64.0
    assert interp.stats.count("vload") > 0


def test_loop_carried_dependence_rejected():
    """Listing 1's adjacent-copy: a[i+1] = a[i] must NOT vectorize."""
    src = """
    void shift(u32* a, i32 n) {
        for (i32 i = 0; i < n; i++) {
            a[i + 1] = a[i];
        }
    }
    """
    module = build(src)
    a = np.arange(40, dtype=np.uint32)
    _, (a_out,), interp = run_with_arrays(module, "shift", [a], (39,))
    # serial semantics preserved: everything becomes a[0]
    np.testing.assert_array_equal(a_out, np.zeros(40, dtype=np.uint32))
    assert interp.stats.count("vload") == 0


def test_distance_beyond_vf_is_allowed():
    src = """
    void farshift(u32* a, i32 n) {
        for (i32 i = 0; i < n; i++) {
            a[i + 64] = a[i] + 1;
        }
    }
    """
    module = build(src)  # VF=16 < distance 64: safe
    a = np.zeros(128, dtype=np.uint32)
    a[:64] = np.arange(64)
    _, (a_out,), interp = run_with_arrays(module, "farshift", [a], (64,))
    np.testing.assert_array_equal(a_out[64:], np.arange(64, dtype=np.uint32) + 1)
    assert interp.stats.count("vload") > 0


#: ``b`` is ``a`` two bytes on: ``b[i]`` is the upper half of ``a[i]`` and
#: the lower half of ``a[i + 1]``, so each access meets two elements of
#: the other.
MISALIGNED = """
void shift(u32* a, i32 n) {
    u32* b = (u32*)((u8*)a + 2);
    for (i32 i = 0; i < n; i++) {
        a[%s] = b[i] + 1;
    }
}
"""


@pytest.mark.parametrize("store, vectorizes", [
    # a[i + 1] is written before iteration i + 1 reads its lower half:
    # a flow dependence that an exact-distance test (whole elements
    # only) misses.
    ("i + 1", False),
    # a[i] is written after every read of it: an anti dependence that
    # runs in order in a vector iteration.
    ("i", True),
], ids=["misaligned-flow", "misaligned-anti"])
def test_a_partial_overlap_is_a_dependence(store, vectorizes):
    src = MISALIGNED % store
    a = np.random.default_rng(1).integers(0, 2**32, 72, dtype=np.uint32)
    _, (want,), _ = run_with_arrays(compile_scalar(src), "shift", [a.copy()],
                                    (64,))
    _, (got,), interp = run_with_arrays(build(src), "shift", [a.copy()], (64,))
    np.testing.assert_array_equal(got, want)
    assert (interp.stats.count("vload") > 0) == vectorizes


def test_if_conversion_enables_vectorization():
    src = """
    void relu(f32* x, f32* y, i32 n) {
        for (i32 i = 0; i < n; i++) {
            f32 v = x[i];
            if (v < 0.0f) { y[i] = 0.0f; } else { y[i] = v; }
        }
    }
    """
    module = build(src)
    x = np.linspace(-1, 1, 48, dtype=np.float32)
    y = np.zeros(48, dtype=np.float32)
    _, (_, y_out), interp = run_with_arrays(module, "relu", [x, y], (48,))
    np.testing.assert_array_equal(y_out, np.maximum(x, 0))
    assert interp.stats.count("vload") > 0


def test_indirect_access_rejected():
    src = """
    void hist(u32* idx, u32* out, i32 n) {
        for (i32 i = 0; i < n; i++) {
            out[idx[i]] = out[idx[i]] + 1;
        }
    }
    """
    module = build(src)
    idx = np.zeros(32, dtype=np.uint32)
    out = np.zeros(4, dtype=np.uint32)
    _, (_, out_v), interp = run_with_arrays(module, "hist", [idx, out], (32,))
    assert out_v[0] == 32  # serial histogram semantics kept
    assert interp.stats.count("gather", "scatter", "vload") == 0


def test_strided_interleaved_load():
    src = """
    void deinterleave(u32* src, u32* dst, i32 n) {
        for (i32 i = 0; i < n; i++) {
            dst[i] = src[2 * i];
        }
    }
    """
    module = build(src)
    src_a = np.arange(96, dtype=np.uint32)
    dst = np.zeros(48, dtype=np.uint32)
    _, (_, dst_out), interp = run_with_arrays(module, "deinterleave", [src_a, dst], (48,))
    np.testing.assert_array_equal(dst_out, src_a[::2])
    assert interp.stats.count("vload") > 0
    assert interp.stats.count("gather") == 0


def test_call_in_loop_rejected():
    # A self-recursive helper cannot be inlined away, so the call survives
    # into the loop body and vectorization must refuse it.
    src = """
    i32 helper(i32 x) {
        if (x <= 0) { return 0; }
        return helper(x - 1) + 1;
    }
    void f(i32* a, i32 n) {
        for (i32 i = 0; i < n; i++) { a[i] = helper(a[i]) + 1; }
    }
    """
    module = build(src)
    a = np.zeros(32, dtype=np.int32)
    _, (a_out,), interp = run_with_arrays(module, "f", [a.view(np.uint32)], (32,))
    np.testing.assert_array_equal(a_out, np.ones(32, dtype=np.uint32))
    assert interp.stats.count("vload") == 0


def test_math_call_blocks_vectorization_without_veclib():
    """Without -fveclib, a libm call in the body blocks vectorization (the
    LLVM default); with a vector math library it vectorizes."""
    src = """
    void vexp(f32* x, f32* y, i32 n) {
        for (i32 i = 0; i < n; i++) { y[i] = exp(x[i]); }
    }
    """
    module = build(src)  # default: no vector math library
    x = np.linspace(0, 1, 32, dtype=np.float32)
    y = np.zeros(32, dtype=np.float32)
    _, (_, y_out), interp = run_with_arrays(module, "vexp", [x, y], (32,))
    np.testing.assert_allclose(y_out, np.exp(x), rtol=1e-6)
    assert interp.stats.count("vload") == 0

    from repro.autovec import AutoVecConfig, auto_vectorize_module
    from repro.driver import compile_scalar
    from repro.passes import clone_module, standard_pipeline

    module = clone_module(compile_scalar(src))
    auto_vectorize_module(module, AVX512, AutoVecConfig(vector_math=True))
    standard_pipeline().run(module)
    _, (_, y_out), interp = run_with_arrays(module, "vexp", [x, y], (32,))
    np.testing.assert_allclose(y_out, np.exp(x), rtol=1e-6)
    assert any(k.startswith("ext:ml.sleef.exp") for k in interp.stats.counts)


def test_autovec_speedup_on_streaming_kernel():
    """The whole point: vector cycles well below scalar cycles."""
    x = np.linspace(0, 1, 512, dtype=np.float32)
    y = np.ones(512, dtype=np.float32)

    def measure(module):
        interp = Interpreter(module)
        ax = interp.memory.alloc_array(x)
        ay = interp.memory.alloc_array(y)
        interp.run("saxpy", ax, ay, 2.0, 512)
        return interp.stats.cycles

    scalar_cycles = measure(compile_scalar(SAXPY))
    vector_cycles = measure(build(SAXPY))
    assert vector_cycles < scalar_cycles / 4


@pytest.mark.parametrize("offset", [256, 2])
def test_in_loop_pointer_cast_chain_stays_scalar(offset):
    """The address ``(u32*)((u8*)a + offset)`` is rebuilt inside the loop
    as bitcast → gep → bitcast.  The body emitter widens the outer bitcast
    but has no widened form for the gep it casts, so the legality walk
    refuses the loop before anything is built: it runs scalar, bitwise as
    the scalar build does (both offsets pass the lockstep test)."""
    src = f"""
    void f(u32* a, u64 n) {{
        for (u64 i = 0; i < n; i = i + 1) {{
            a[i] = ((u32*)((u8*)a + {offset}))[i] + (u32)1;
        }}
    }}
    """
    from repro.passes import clone_module

    module = clone_module(compile_scalar(src))
    report = auto_vectorize_module(module, AVX512)["f"]
    assert report.vectorized == 0
    assert any("no widened form" in why for why in report.rejected), report

    a = np.arange(160, dtype=np.uint32) * np.uint32(2654435761)
    images = []
    for built in (compile_scalar(src), build(src)):
        interp = Interpreter(built)
        addr = interp.memory.alloc_array(a)
        interp.run("f", addr, 64)
        images.append(interp.memory.image())
        assert interp.stats.count("vload", "vstore") == 0
    assert np.array_equal(images[0], images[1])
