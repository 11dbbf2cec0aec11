"""Legalization tests (§4.3): gang-width IR → machine-width IR.

Two properties:

* **semantic preservation** — legalized code produces bit-identical
  outputs for every kernel shape (elementwise, divergent, strided,
  reductions, shuffles);
* **cost-model validation** — the cost model charges un-legalized wide
  ops their legalization factors; actually legalizing and re-running must
  cost approximately the same cycles, closing the loop between the model
  and the real transformation.
"""

import numpy as np
import pytest

from repro.backend import AVX2, AVX512, SSE4
from repro.backend.legalize import legalize_module
from repro.driver import compile_parsimony as _compile
from repro.passes import clone_module
from repro.ir import VectorType, verify_module
from repro.vm import Interpreter

def compile_parsimony(src):
    """Gang-width IR: legalization narrows what gang batching would widen,
    so it takes the unbatched build (a batched one is refused)."""
    return _compile(src, batch_request=0)


KERNELS = {
    "elementwise": """
    void kernel(u8* a, u8* b, u8* c, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            c[i] = addsat(a[i], b[i]);
        }
    }
    """,
    "divergent": """
    void kernel(u8* a, u8* b, u8* c, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            if (a[i] > b[i]) { c[i] = a[i] - b[i]; }
            else { c[i] = avgr(a[i], b[i]); }
        }
    }
    """,
    "strided": """
    void kernel(u8* a, u8* b, u8* c, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            c[i] = absdiff(a[2 * i], a[2 * i + 1]);
        }
    }
    """,
    "reduction": """
    void kernel(u8* a, u8* b, u8* c, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            u64 total = psim_sad_sync(a[i], b[i]);
            c[i] = (u8)(total & 255ul);
        }
    }
    """,
    "shuffle": """
    void kernel(u8* a, u8* b, u8* c, u64 n) {
        psim (gang_size=64, num_threads=n) {
            u64 i = psim_get_thread_num();
            c[i] = psim_shuffle_sync(a[i], psim_get_lane_num() ^ 7);
        }
    }
    """,
}


def run(module, machine):
    interp = Interpreter(module, machine=machine)
    rng = np.random.default_rng(0)
    a = interp.memory.alloc_array(rng.integers(0, 256, 256).astype(np.uint8))
    b = interp.memory.alloc_array(rng.integers(0, 256, 256).astype(np.uint8))
    c = interp.memory.alloc_array(np.zeros(128, np.uint8))
    interp.run("kernel", a, b, c, 128)
    return interp.memory.read_array(c, np.uint8, 128), interp.stats


@pytest.mark.parametrize("name", sorted(KERNELS), ids=sorted(KERNELS))
@pytest.mark.parametrize("machine", [SSE4, AVX2], ids=["sse4", "avx2"])
def test_legalized_code_matches_unlegalized(name, machine):
    src = KERNELS[name]
    reference, _ = run(compile_parsimony(src), machine)

    module = clone_module(compile_parsimony(src))
    assert legalize_module(module, machine)
    verify_module(module)
    got, _ = run(module, machine)
    np.testing.assert_array_equal(got, reference, err_msg=name)


@pytest.mark.parametrize("machine", [SSE4, AVX2], ids=["sse4", "avx2"])
def test_no_wide_vectors_remain(machine):
    module = clone_module(compile_parsimony(KERNELS["elementwise"]))
    legalize_module(module, machine)
    for function in module.functions.values():
        from repro.ir import Constant

        for instr in function.instructions():
            for value in (instr, *instr.operands):
                if isinstance(value, Constant):
                    continue  # shuffle controls etc. are immediates
                t = value.type
                if isinstance(t, VectorType) and t.elem.bits > 1:
                    assert t.elem.bits * t.count <= machine.vector_bits, (
                        f"wide {t} survives in {function.name}: {instr.opcode}"
                    )


@pytest.mark.parametrize("name", sorted(KERNELS), ids=sorted(KERNELS))
def test_cost_model_matches_real_legalization(name):
    """Modeled cycles (wide IR) ≈ measured cycles (legalized IR)."""
    src = KERNELS[name]
    machine = AVX2  # gang 64 x u8 = 512b -> 2 chunks
    _, modeled = run(compile_parsimony(src), machine)
    module = clone_module(compile_parsimony(src))
    legalize_module(module, machine)
    _, measured = run(module, machine)
    ratio = measured.cycles / modeled.cycles
    # The model folds chunk bookkeeping (extra geps, mask combines) into
    # per-op factors; kernels moving lane-index vectors around additionally
    # pay pack/unpack chains the model does not itemize.
    # Dynamic cross-register permutes additionally pay index-vector
    # management chains that the per-op model only approximates.
    envelope = 4.5 if name in ("shuffle", "strided") else 1.8
    assert 0.6 < ratio < envelope, (
        f"{name}: modeled={modeled.cycles} measured={measured.cycles}"
    )


def test_already_narrow_code_untouched():
    src = """
    void kernel(f32* x, f32* y, u64 n) {
        psim (gang_size=8, num_threads=n) {
            u64 i = psim_get_thread_num();
            y[i] = x[i] + 1.0f;
        }
    }
    """
    # gang 8: even the tail variant's i64 lane-index vectors fit in 512b
    module = clone_module(compile_parsimony(src))
    assert not legalize_module(module, AVX512)


def test_batched_functions_are_refused():
    module = clone_module(_compile(KERNELS["elementwise"]))
    assert module.attrs["batch_applied"]
    with pytest.raises(ValueError, match="gang-batched"):
        legalize_module(module, SSE4)
