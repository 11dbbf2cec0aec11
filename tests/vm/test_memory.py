"""Unit tests for the flat VM memory (bounds, guards, masked semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import F32, I8, I16, I32
from repro.vm import Memory, MemoryError_
from repro.vm.nputil import elem_dtype


def test_alloc_alignment():
    mem = Memory()
    a = mem.alloc(10, align=64)
    b = mem.alloc(10, align=64)
    assert a % 64 == 0 and b % 64 == 0 and b >= a + 10


def test_null_page_traps():
    mem = Memory()
    with pytest.raises(MemoryError_, match="NULL"):
        mem.load_scalar(0, I32)
    with pytest.raises(MemoryError_, match="NULL"):
        mem.store_scalar(4, I8, 1)


def test_out_of_bounds_traps():
    mem = Memory(size=4096)
    with pytest.raises(MemoryError_, match="out-of-bounds"):
        mem.load_scalar(4095, I32)


def test_negative_sizes_are_rejected_before_touching_state():
    """``nbytes < 0`` used to make ``addr + nbytes > size`` false: a
    negative count read ``[]`` from any address, even one past the end,
    and a negative allocation moved the break back into live data."""
    mem = Memory(size=4096)
    addr = mem.alloc_array(np.arange(8, dtype=np.uint32))
    brk, extent = mem._brk, mem.extent
    for bad in (addr, 4096, 1 << 40):
        with pytest.raises(ValueError):
            mem.read_array(bad, np.uint32, -1)
    with pytest.raises(ValueError):
        mem.alloc(-100)
    assert (mem._brk, mem.extent) == (brk, extent)
    assert mem.alloc(4) >= addr + 32  # the live array was not handed out again
    assert mem.read_array(addr, np.uint32, 8).tolist() == list(range(8))


def test_physical_buffer_grows_on_demand_under_a_fixed_logical_size():
    mem = Memory()
    assert mem.size == 1 << 22 and mem.data.nbytes <= 64 * 1024
    addr = mem.alloc_array(np.arange(3000, dtype=np.uint32))
    assert mem.extent <= mem.data.nbytes < 2 * (mem.extent + 4096)
    assert mem.read_array(addr, np.uint32, 3000)[-1] == 2999
    # Above the physical buffer the image is zero, and still bounded by
    # the logical size in checks and messages.
    assert mem.load_scalar(mem.size - 4, I32) == 0
    with pytest.raises(MemoryError_, match=f"of {mem.size}"):
        mem.load_scalar(mem.size - 3, I32)
    image = mem.image()
    assert image.nbytes == mem.size and not image[mem.extent:].any()
    assert mem.image(addr + 8)[addr:].view(np.uint32).tolist() == [0, 1]


def test_scalar_roundtrip_types():
    mem = Memory()
    addr = mem.alloc(64)
    mem.store_scalar(addr, I16, 0xBEEF)
    assert mem.load_scalar(addr, I16) == 0xBEEF
    mem.store_scalar(addr, F32, 1.5)
    assert mem.load_scalar(addr, F32) == 1.5


def test_masked_tail_load_does_not_fault_at_array_end():
    """A tail gang's inactive lanes may point past the array; masked packed
    loads must only require bounds up to the last active lane."""
    mem = Memory(size=4096)
    addr = mem.alloc(4096 - 128)  # consume almost everything
    tail = mem.alloc(8)  # 8 bytes left at the very end
    mask = np.zeros(64, dtype=bool)
    mask[:8] = True
    out = mem.load_lanes(tail, elem_dtype(I8), 64, mask)  # full width would fault
    assert len(out) == 64
    # all-inactive: no bounds check at all
    none = mem.load_lanes(tail + 10_000, elem_dtype(I8), 64,
                         np.zeros(64, dtype=bool))
    assert (none == 0).all()


def test_masked_store_preserves_inactive_lanes():
    mem = Memory()
    addr = mem.alloc_array(np.arange(16, dtype=np.uint8))
    mask = np.zeros(16, dtype=bool)
    mask[::2] = True
    mem.store_lanes(addr, elem_dtype(I8), np.full(16, 99, np.uint8), mask)
    got = mem.read_array(addr, np.uint8, 16)
    assert (got[::2] == 99).all()
    assert (got[1::2] == np.arange(16, dtype=np.uint8)[1::2]).all()


def test_gather_scatter_masked():
    mem = Memory()
    addr = mem.alloc_array(np.arange(32, dtype=np.uint32))
    addrs = np.array([addr + 4 * i for i in (3, 1, 30, 7)], dtype=np.uint64)
    mask = np.array([True, False, True, True])
    out = mem.gather(addrs, I32, mask)
    assert out.tolist() == [3, 0, 30, 7]
    mem.scatter(addrs, I32, np.array([100, 101, 102, 103], np.uint32), mask)
    data = mem.read_array(addr, np.uint32, 32)
    assert data[3] == 100 and data[1] == 1 and data[30] == 102 and data[7] == 103


def test_out_of_memory():
    mem = Memory(size=1024)
    with pytest.raises(MemoryError_, match="out of VM memory"):
        mem.alloc(4096)


# -- the VM contract: trap-before-any-write (see DESIGN.md) ---------------------------


def test_scatter_traps_before_any_write():
    """One bad lane anywhere in a scatter must leave *all* of memory
    untouched, including lanes that individually were in bounds."""
    mem = Memory(size=4096)
    addr = mem.alloc_array(np.arange(8, dtype=np.uint32))
    addrs = np.array([addr, addr + 4, 2**40, addr + 12], dtype=np.uint64)
    values = np.array([100, 101, 102, 103], np.uint32)
    with pytest.raises(MemoryError_, match="out-of-bounds"):
        mem.scatter(addrs, I32, values)
    assert mem.read_array(addr, np.uint32, 8).tolist() == list(range(8))


def test_scatter_reports_first_offending_lane_in_lane_order():
    mem = Memory(size=4096)
    addr = mem.alloc_array(np.zeros(8, np.uint32))
    # lane 1 hits the NULL page, lane 2 is out of bounds; lane order says
    # the NULL lane is the one reported, same as a per-lane loop would.
    addrs = np.array([addr, 3, 2**40, addr + 4], dtype=np.uint64)
    with pytest.raises(MemoryError_, match="NULL"):
        mem.scatter(addrs, I32, np.zeros(4, np.uint32))


def test_masked_bad_lanes_are_exempt_from_the_contract():
    mem = Memory(size=4096)
    addr = mem.alloc_array(np.zeros(4, np.uint32))
    addrs = np.array([addr, 2**40, 3, addr + 12], dtype=np.uint64)
    mask = np.array([True, False, False, True])
    mem.scatter(addrs, I32, np.array([7, 8, 9, 10], np.uint32), mask)
    assert mem.read_array(addr, np.uint32, 4).tolist() == [7, 0, 0, 10]


def test_packed_store_traps_before_any_write():
    mem = Memory(size=4096)
    addr = mem.alloc_array(np.arange(64, dtype=np.uint8))
    with pytest.raises(MemoryError_, match="out-of-bounds"):
        mem.store_lanes(4096 - 8, elem_dtype(I8), np.full(64, 7, np.uint8))
    assert mem.read_array(addr, np.uint8, 64).tolist() == list(range(64))


def test_injected_memory_faults_fire_per_site():
    from repro.faultinject import FaultPlan, InjectedFault, inject

    mem = Memory()
    addr = mem.alloc_array(np.arange(4, dtype=np.uint32))
    addrs = np.array([addr, addr + 4], dtype=np.uint64)
    with inject(FaultPlan(site="memory", match="check")):
        with pytest.raises(InjectedFault):
            mem.load_scalar(addr, I32)
        mem.gather(addrs, I32)  # vector path unaffected by "check" plans
    with inject(FaultPlan(site="memory", match="lanes")):
        with pytest.raises(InjectedFault):
            mem.scatter(addrs, I32, np.zeros(2, np.uint32))
        # trap-before-any-write holds for injected faults too
    assert mem.read_array(addr, np.uint32, 4).tolist() == [0, 1, 2, 3]


# -- extent-bounded snapshots ----------------------------------------------------------

_OPS = ("alloc", "alloc_array", "scalar", "packed", "scatter", "write_array",
        "read", "frame", "trap")


def _eager(size=1 << 22):
    """A memory whose whole logical image is physical and zeroed up
    front — what every ``Memory`` was before buffers grew on demand."""
    mem = Memory(size)
    mem._grow(size)
    assert len(mem.data) == size
    return mem


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_snapshot_restore_matches_an_eager_full_copy(data):
    """Random interleavings of every write path — including stores far
    above the allocator break and alloca-style frames that pop it — then
    ``restore``: the whole image must equal an eager ``data.copy()`` taken
    at ``snapshot`` time, and the extent invariant must hold throughout.

    Every operation runs in lock-step on a demand-grown memory and on an
    eagerly zeroed 4 MB one: image, extent and break must never differ,
    whatever the physical capacity is at the time."""
    mem, eager = Memory(), _eager()
    size = mem.size
    assert len(mem.data) <= 64 * 1024

    def anywhere(nbytes):
        # Mostly near the live region, sometimes anywhere in the buffer.
        hi = data.draw(st.sampled_from((mem.extent + 4096, size))) - nbytes
        return data.draw(st.integers(16, max(16, min(hi, size - nbytes))))

    def both(fn):
        assert fn(mem) == fn(eager)

    def frame(m, nbytes):
        # What every engine does around a call: allocas bump the
        # break, the frame exit pops it, the bytes stay behind.
        mark = m._brk
        addr = m.alloc(nbytes)
        m.store_scalar(addr, I32, 0xDEAD)
        m._brk = mark

    def trap(m, addrs):
        with pytest.raises(MemoryError_):
            m.scatter(addrs, I32, np.ones(2, np.uint32))

    def step():
        op = data.draw(st.sampled_from(_OPS))
        if op == "alloc":
            nbytes = data.draw(st.integers(1, 5000))
            align = data.draw(st.sampled_from((1, 8, 64)))
            both(lambda m: m.alloc(nbytes, align))
        elif op == "alloc_array":
            array = np.full(data.draw(st.integers(1, 300)), 0xAB, np.uint8)
            both(lambda m: m.alloc_array(array))
        elif op == "scalar":
            addr, value = anywhere(4), data.draw(st.integers(1, 2**31))
            both(lambda m: m.store_scalar(addr, I32, value))
        elif op == "packed":
            n = data.draw(st.integers(1, 64))
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)))
            mask = data.draw(st.sampled_from((None, mask)))
            addr = anywhere(2 * n)
            both(lambda m: m.store_lanes(
                addr, elem_dtype(I16), np.arange(1, n + 1, dtype=np.uint16),
                mask))
        elif op == "scatter":
            n = data.draw(st.integers(1, 16))
            addrs = np.array([anywhere(4) for _ in range(n)], dtype=np.uint64)
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)))
            mask = data.draw(st.sampled_from((None, mask)))
            both(lambda m: m.scatter(
                addrs, I32, np.arange(1, n + 1, dtype=np.uint32), mask))
        elif op == "write_array":
            n = data.draw(st.integers(1, 500))
            addr = anywhere(n)
            both(lambda m: m.write_array(addr, np.full(n, 0xCD, np.uint8)))
        elif op == "read":
            # Reads may make bytes physical; they must all read as zero
            # above the extent and never move it.
            n = data.draw(st.integers(1, 64))
            addr = anywhere(4 * n)
            both(lambda m: m.load_lanes(addr, elem_dtype(I32), n).tolist())
        elif op == "frame":
            nbytes = data.draw(st.integers(1, 2000))
            both(lambda m: frame(m, nbytes))
        else:
            addrs = np.array([anywhere(4), size], dtype=np.uint64)
            both(lambda m: trap(m, addrs))
        assert mem.extent == eager.extent and mem._brk == eager._brk
        assert mem.extent <= len(mem.data) <= size
        assert not mem.data[mem.extent:].any()
        np.testing.assert_array_equal(mem.image(), eager.data)

    for _ in range(data.draw(st.integers(0, 8))):
        step()
    oracle, oracle_brk = eager.data.copy(), mem._brk
    snap = mem.snapshot()
    assert len(snap.image) == mem.extent  # the copy is extent-bounded
    both(lambda m: m.restore(snap))  # a no-op, on either capacity
    for _ in range(data.draw(st.integers(0, 12))):
        step()
    both(lambda m: m.restore(snap))
    np.testing.assert_array_equal(mem.image(), oracle)
    np.testing.assert_array_equal(eager.data, oracle)
    assert mem._brk == oracle_brk and mem.extent == len(snap.image)
    assert not mem.data[mem.extent:].any()

    # A snapshot restores into any memory of the same logical size: one
    # whose physical buffer is smaller than the snapshot, and one that had
    # grown to the very top.
    small = Memory()
    small.restore(snap)
    np.testing.assert_array_equal(small.image(), oracle)
    assert len(small.data) < size or mem.extent > size // 2
    other = Memory()
    other.store_scalar(size - 8, I32, 7)
    other.restore(snap)
    np.testing.assert_array_equal(other.image(), oracle)
    with pytest.raises(ValueError):
        Memory(size=4096).restore(snap)
