"""§4.2.3 memory instruction selection matrix, form by form.

| address shape | load form | store form |
|---|---|---|
| uniform | scalar load | warned single-lane scalar store |
| stride == element size | packed vload | packed vstore |
| const stride ≤ 4×gang | packed + shuffle window | inverse-shuffled masked vstores |
| anything else | gather | scatter |
"""

import numpy as np
import pytest

from repro.driver import compile_parsimony
from repro.vectorizer import VectorizeConfig, parsimony_records
from repro.vm import Interpreter


def compile_and_run(src, arrays, scalars, config=None):
    module = compile_parsimony(src, config)
    interp = Interpreter(module)
    addrs = [interp.memory.alloc_array(a) for a in arrays]
    interp.memory.alloc(4096)  # window over-read guard
    interp.run("kernel", *addrs, *scalars)
    outs = [interp.memory.read_array(ad, a.dtype, a.size) for ad, a in zip(addrs, arrays)]
    return outs, interp.stats, module


def test_uniform_load_stays_scalar():
    src = """
    void kernel(u32* a, u32* b, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            b[i] = a[0] + (u32)i;
        }
    }
    """
    a = np.array([7] + [0] * 15, np.uint32)
    (a_out, b_out), stats, _ = compile_and_run(src, [a, np.zeros(32, np.uint32)], [32])
    np.testing.assert_array_equal(b_out, 7 + np.arange(32, dtype=np.uint32))
    assert stats.count("gather") == 0
    assert stats.counts["load"] == 2  # one scalar load per gang


def test_unit_stride_is_packed():
    src = """
    void kernel(u32* a, u32* b, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            b[i] = a[i] * 3;
        }
    }
    """
    a = np.arange(32, dtype=np.uint32)
    (_, b_out), stats, _ = compile_and_run(src, [a, np.zeros(32, np.uint32)], [32])
    np.testing.assert_array_equal(b_out, a * 3)
    assert stats.count("gather", "scatter", "shuffle") == 0
    assert stats.counts["vload"] == 2 and stats.counts["vstore"] == 2


@pytest.mark.parametrize("stride", [2, 3, 4])
def test_bounded_stride_uses_window_shuffles(stride):
    src = f"""
    void kernel(u32* a, u32* b, u64 n) {{
        psim (gang_size=16, num_threads=n) {{
            u64 i = psim_get_thread_num();
            b[i] = a[{stride} * i];
        }}
    }}
    """
    a = np.arange(16 * stride * 2, dtype=np.uint32)
    (_, b_out), stats, _ = compile_and_run(src, [a, np.zeros(32, np.uint32)], [32])
    np.testing.assert_array_equal(b_out, a[::stride][:32])
    assert stats.count("gather") == 0
    assert stats.count("shuffle") > 0


def test_stride_beyond_window_gathers():
    src = """
    void kernel(u32* a, u32* b, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            b[i] = a[8 * i];
        }
    }
    """
    a = np.arange(16 * 8, dtype=np.uint32)
    (_, b_out), stats, _ = compile_and_run(src, [a, np.zeros(16, np.uint32)], [16])
    np.testing.assert_array_equal(b_out, a[::8])
    assert stats.count("gather") > 0  # 8x gang window exceeds the 4x bound


def test_strided_store_uses_masked_windows():
    src = """
    void kernel(u32* a, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            a[2 * i] = (u32)i;
        }
    }
    """
    a = np.full(64, 777, np.uint32)
    (a_out,), stats, _ = compile_and_run(src, [a], [32])
    np.testing.assert_array_equal(a_out[::2], np.arange(32, dtype=np.uint32))
    np.testing.assert_array_equal(a_out[1::2], 777)  # gaps untouched
    assert stats.count("scatter") == 0


def test_uniform_store_of_varying_value_warns():
    """§4.2.3: racy store to a uniform address — warn, one lane wins."""
    src = """
    void kernel(u32* a, u32* out, u64 n) {
        psim (gang_size=16, num_threads=n) {
            u64 i = psim_get_thread_num();
            out[0] = a[i];
        }
    }
    """
    module = compile_parsimony(src)
    warnings = []
    for record in parsimony_records(module).values():
        warnings += record.get("parsimony_warnings", [])
    assert any("racy" in w for w in warnings)

    interp = Interpreter(module)
    a = interp.memory.alloc_array(np.arange(16, dtype=np.uint32))
    out = interp.memory.alloc_array(np.zeros(1, np.uint32))
    interp.run("kernel", a, out, 16)
    winner = interp.memory.read_array(out, np.uint32, 1)[0]
    assert winner == 15  # the chosen (last active) lane


def test_private_alloca_is_blocked_per_lane():
    """§4.2.3: allocas multiply by the gang size; each lane gets a private
    copy (blocked layout via the indexed pointer shape)."""
    src = """
    void kernel(u32* out, u64 n) {
        psim (gang_size=8, num_threads=n) {
            u64 i = psim_get_thread_num();
            u32 tmp[4];
            for (u64 j = 0; j < 4; j++) { tmp[j] = (u32)(i + j); }
            u32 acc = 0;
            for (u64 j = 0; j < 4; j++) { acc += tmp[j]; }
            out[i] = acc;
        }
    }
    """
    (out,), stats, _ = compile_and_run(src, [np.zeros(16, np.uint32)], [16])
    expected = np.array([4 * i + 6 for i in range(16)], np.uint32)
    np.testing.assert_array_equal(out, expected)
    # §4.2.3's SoA swizzle: uniform-index private-array accesses are packed.
    assert stats.count("gather", "scatter") == 0


def test_escaping_private_alloca_falls_back_to_blocked():
    """An alloca whose address flows into arithmetic cannot be swizzled;
    the blocked per-lane layout is kept (correctness over speed)."""
    src = """
    void kernel(u32* out, u64 n) {
        psim (gang_size=8, num_threads=n) {
            u64 i = psim_get_thread_num();
            u32 tmp[2];
            u32* p = tmp + 1;     // address arithmetic: not gep+load/store only
            tmp[0] = (u32)i;
            *p = (u32)i + 1;
            out[i] = tmp[0] + *p;
        }
    }
    """
    (out,), stats, _ = compile_and_run(src, [np.zeros(16, np.uint32)], [16])
    expected = np.array([2 * i + 1 for i in range(16)], np.uint32)
    np.testing.assert_array_equal(out, expected)
