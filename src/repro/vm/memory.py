"""Flat byte-addressable memory for the VM.

A single ``numpy.uint8`` buffer with a bump allocator stands in for the
process address space.  Pointers in the IR are plain 64-bit byte addresses
into this buffer, which is what makes the vectorizer's *address shape*
decisions (§4.2.2) observable: packed accesses touch consecutive bytes,
strided/gathered accesses do not.

Address 0 is reserved as NULL; any access to the page ``[0, 16)`` traps.
Masked vector accesses never touch memory in inactive lanes (so
out-of-bounds addresses under a false mask bit are fine, as on real
hardware).

Trap ordering (the VM contract, see DESIGN.md): every access — scalar,
packed, gather, scatter — validates **all** the bytes it will touch
*before* writing or reading any of them, so a trapping access leaves
memory untouched.  The error reports the first offending lane in lane
order, identical to what a per-lane reference loop would report.

Fault injection: :func:`repro.faultinject.maybe_fail` hooks the bounds
checks (site ``"memory"``, names ``"check"`` / ``"lanes"``) so tests can
force deterministic memory faults without constructing bad addresses.
Every method of this class goes through a hooked check.  Generated code
(:mod:`repro.backend.codegen`) inlines the in-bounds case of the access
forms it can resolve at emit time and skips the hook there; that is
sound because ``Interpreter.run`` never enters generated code while a
fault plan is armed, and everything the inline range test rejects comes
back here.

Logical size vs physical capacity: ``Memory(size)`` is a ``size``-byte
address space — every bounds check and every trap message uses ``size``
— but the backing buffer ``data`` starts at a few KB and grows
geometrically, up to ``size``, the first time an allocation or an
access reaches past it (:meth:`Memory._grow`).  A kernel's live
footprint is a few KB, so constructing an interpreter must not zero
4 MB.  Bytes between ``len(data)`` and ``size`` are zero by definition;
:meth:`Memory.image` materializes the zero-extended logical image for
callers that want to compare whole memories.  Growth replaces ``data``
(and the typed ``lanes`` views over it), so nothing may hold either
across a call that can allocate or access memory.

Extent and snapshots: rollback (trap replay, shard retries) must not pay
for the whole image either.  ``Memory.extent`` is one past the highest
byte ever allocated or written, ``extent <= len(data)``, and the
invariant **``data[extent:] == 0``** always holds: every write path
(``alloc``, ``alloc_array``, ``write_array``, ``store_scalar``,
``store_packed``, ``scatter``, and the inline stores of generated code)
raises the extent before it writes, and nothing outside this module and
generated code assigns into ``data``.
:meth:`Memory.snapshot` therefore copies only ``[0, extent)`` and
:meth:`Memory.restore` puts those bytes back and re-zeroes whatever the
rolled-back run touched above them — bit-identical to restoring an eager
full-image copy.  Popping allocas lowers ``_brk`` but never the extent
(the popped frame's bytes are still in the image).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import faultinject
from ..diagnostics import ExecutionError
from ..ir.types import Type
from .nputil import count_nonzero, elem_dtype

__all__ = ["Memory", "MemorySnapshot", "MemoryError_"]


class MemoryError_(ExecutionError):
    """Raised on out-of-bounds or NULL-page access."""


#: Addresses below this trap as NULL-page accesses.
NULL_GUARD = 16

#: Physical bytes a fresh memory starts with (and the growth quantum).
_INITIAL_CAPACITY = 4096

#: The dtypes a lane or a memory cell can have; ``Memory.lanes[i]`` views
#: the buffer as ``LANE_DTYPES[i]``.
LANE_DTYPES = tuple(
    np.dtype(name) for name in ("?", "u1", "u2", "u4", "u8", "f4", "f8")
)


class _LaneViews(dict):
    """``index -> buffer viewed as LANE_DTYPES[index]``, each view made
    the first time it is asked for (a kernel uses one or two of them, and
    every growth starts over).  The views cover the buffer's 8-byte-
    aligned prefix, so an access that fits a view fits the buffer."""

    __slots__ = ("whole",)

    def __init__(self, data: np.ndarray):
        self.whole = data[: len(data) & ~7]

    def __missing__(self, index: int) -> np.ndarray:
        view = self[index] = self.whole.view(LANE_DTYPES[index])
        return view


class MemorySnapshot:
    """A rollback point: the image below the extent, plus the allocator
    break.  Restorable into any :class:`Memory` of the same logical size,
    whatever its physical capacity (shard workers rebuild the launch
    image in their own buffer)."""

    __slots__ = ("image", "brk", "size")

    def __init__(self, image: np.ndarray, brk: int, size: int):
        self.image = image
        self.brk = brk
        self.size = size


class Memory:
    """Flat memory with a bump allocator: ``size`` logical bytes over a
    demand-grown physical buffer (see the module docstring)."""

    def __init__(self, size: int = 1 << 22):
        #: Logical size: the bound every check and trap message uses.
        self.size = size
        self._brk = 64  # leave a NULL guard region at the bottom
        self._extent = 0
        self._map(np.zeros(min(size, _INITIAL_CAPACITY), dtype=np.uint8))

    @property
    def extent(self) -> int:
        """One past the highest byte ever allocated or written; every
        byte at or above it is zero."""
        return self._extent

    def image(self, nbytes: Optional[int] = None) -> np.ndarray:
        """A copy of the first ``nbytes`` (default: all ``size``) logical
        bytes, zero-extended above the physical buffer."""
        out = np.zeros(self.size if nbytes is None else nbytes, dtype=np.uint8)
        live = min(self._extent, len(out))
        out[:live] = self.data[:live]
        return out

    # -- physical buffer ----------------------------------------------------------

    def _map(self, data: np.ndarray) -> None:
        """Install ``data`` as the physical buffer, with its typed views
        (generated code slices these for aligned packed accesses)."""
        self.data = data
        self.lanes = _LaneViews(data)

    def _grow(self, end: int) -> None:
        """Make ``[0, end)`` physical (``end <= size``): at least double,
        so a run of small allocations copies each byte O(1) times."""
        capacity = max(2 * len(self.data), _INITIAL_CAPACITY)
        while capacity < end:
            capacity *= 2
        data = np.zeros(min(capacity, self.size), dtype=np.uint8)
        data[: self._extent] = self.data[: self._extent]
        self._map(data)

    # -- rollback -----------------------------------------------------------------

    def snapshot(self) -> MemorySnapshot:
        """Copy ``[0, extent)`` and the allocator break."""
        return MemorySnapshot(
            self.data[: self._extent].copy(), self._brk, self.size
        )

    def restore(self, snapshot: MemorySnapshot) -> None:
        """Make the image bit-identical to what it was at ``snapshot``."""
        if snapshot.size != self.size:
            raise ValueError(
                f"snapshot of a {snapshot.size}-byte memory restored into "
                f"{self.size} bytes"
            )
        kept = len(snapshot.image)
        if kept > len(self.data):
            self._grow(kept)
        self.data[:kept] = snapshot.image
        if self._extent > kept:
            self.data[kept : self._extent] = 0
        self._extent = kept
        self._brk = snapshot.brk

    # -- allocation ---------------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Allocate ``nbytes`` and return the base address."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        addr = (self._brk + align - 1) & ~(align - 1)
        end = addr + nbytes
        if end > self.size:
            raise MemoryError_(
                f"out of VM memory: want {nbytes} bytes at {addr}, size {self.size}"
            )
        if end > len(self.data):
            self._grow(end)
        self._brk = end
        if end > self._extent:
            self._extent = end
        return addr

    def alloc_array(self, array: np.ndarray, align: int = 64) -> int:
        """Allocate and copy a numpy array in; returns its address."""
        flat = np.ascontiguousarray(array).reshape(-1)
        raw = flat.view(np.uint8)
        addr = self.alloc(raw.nbytes, align)
        self.data[addr : addr + raw.nbytes] = raw
        return addr

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Copy ``count`` elements of ``dtype`` out of memory."""
        if count < 0:
            raise ValueError(f"cannot read {count} elements")
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self._check(addr, nbytes)
        return self.data[addr : addr + nbytes].view(dtype).copy()

    def write_array(self, addr: int, array: np.ndarray) -> None:
        flat = np.ascontiguousarray(array).reshape(-1)
        raw = flat.view(np.uint8)
        self._check_write(addr, raw.nbytes)
        self.data[addr : addr + raw.nbytes] = raw

    # -- scalar access ------------------------------------------------------------

    def load_scalar(self, addr: int, type: Type):
        dtype = elem_dtype(type)
        self._check(addr, dtype.itemsize)
        cell = self.data[addr : addr + dtype.itemsize].view(dtype)[0]
        if type.is_float:
            return float(cell)
        return int(cell)

    def store_scalar(self, addr: int, type: Type, value) -> None:
        dtype = elem_dtype(type)
        self._check_write(addr, dtype.itemsize)
        self.data[addr : addr + dtype.itemsize].view(dtype)[0] = value

    # -- vector access ------------------------------------------------------------

    def load_packed(self, addr: int, type: Type, count: int, mask=None) -> np.ndarray:
        """Packed load of ``count`` consecutive elements of IR ``type``."""
        return self.load_lanes(addr, elem_dtype(type), count, mask)

    def store_packed(self, addr: int, type: Type, values: np.ndarray, mask=None) -> None:
        self.store_lanes(addr, elem_dtype(type), values, mask)

    def load_lanes(self, addr: int, dtype: np.dtype, count: int, mask=None) -> np.ndarray:
        """:meth:`load_packed` with the lane dtype already resolved (what
        generated code calls: for runtime masks, and when its inline
        range test fails).

        With a mask, inactive lanes read as zero and, when every lane is
        inactive, the address is never validated (mirrors hardware masked
        loads never faulting on inactive lanes).
        """
        if mask is not None:
            active = count_nonzero(mask)
            if active != len(mask):
                if not active:
                    return np.zeros(count, dtype=dtype)
                # Bounds are only required up to the last active lane, as
                # on real hardware masked loads: a tail gang at the end of
                # an array must not fault on its inactive lanes.
                needed = int(mask.nonzero()[0][-1]) + 1
                nbytes = dtype.itemsize * needed
                self._check(addr, nbytes)
                out = np.zeros(count, dtype=dtype)
                out[:needed] = self.data[addr : addr + nbytes].view(dtype)
                if active != needed:  # holes below the last active lane
                    out[~mask] = 0
                return out
        nbytes = dtype.itemsize * count
        self._check(addr, nbytes)
        return self.data[addr : addr + nbytes].view(dtype).copy()

    def store_lanes(self, addr: int, dtype: np.dtype, values: np.ndarray, mask=None) -> None:
        """:meth:`store_packed` with the lane dtype already resolved."""
        if mask is not None:
            active = count_nonzero(mask)
            if active != len(mask):
                if not active:
                    return
                needed = int(mask.nonzero()[0][-1]) + 1
                nbytes = dtype.itemsize * needed
                self._check_write(addr, nbytes)
                view = self.data[addr : addr + nbytes].view(dtype)
                if active == needed:  # a tail mask: lanes [0, needed)
                    view[:] = values[:needed]
                else:
                    keep = mask[:needed]
                    view[keep] = values.astype(dtype, copy=False)[:needed][keep]
                return
        nbytes = dtype.itemsize * len(values)
        self._check_write(addr, nbytes)
        self.data[addr : addr + nbytes].view(dtype)[:] = values

    def gather(self, addrs: np.ndarray, type: Type, mask=None) -> np.ndarray:
        """Per-lane loads from arbitrary addresses, vectorized.

        All active lanes are bounds-checked up front (the batched check
        traps on the first bad lane, with the same message the scalar path
        produces), then fetched with one 2-D fancy-indexing read.
        """
        dtype = elem_dtype(type)
        count = len(addrs)
        out = np.zeros(count, dtype=dtype)
        if mask is None:
            lanes = None
            active = np.asarray(addrs, dtype=np.uint64)
        else:
            lanes = mask.nonzero()[0]
            active = np.asarray(addrs, dtype=np.uint64)[lanes]
        if active.size == 0:
            return out
        itemsize = dtype.itemsize
        self._check_lanes(active, itemsize)
        byte_idx = active[:, None].astype(np.int64) + np.arange(itemsize, dtype=np.int64)
        gathered = self.data[byte_idx].view(dtype)[:, 0]
        if lanes is None:
            out[:] = gathered
        else:
            out[lanes] = gathered
        return out

    def scatter(self, addrs: np.ndarray, type: Type, values: np.ndarray, mask=None) -> None:
        """Per-lane stores to arbitrary addresses, vectorized.

        Colliding lanes resolve last-lane-wins, matching the scalar
        lane-order loop (numpy fancy assignment applies indices in order).
        Unlike the scalar loop, the batched bounds check runs before any
        lane is written, so a trapping scatter leaves memory untouched.
        """
        dtype = elem_dtype(type)
        vals = values.astype(dtype, copy=False)
        if mask is None:
            active = np.asarray(addrs, dtype=np.uint64)
        else:
            lanes = mask.nonzero()[0]
            active = np.asarray(addrs, dtype=np.uint64)[lanes]
            vals = vals[lanes]
        if active.size == 0:
            return
        itemsize = dtype.itemsize
        end = self._check_lanes(active, itemsize)
        if end > self._extent:
            self._extent = end
        byte_idx = active[:, None].astype(np.int64) + np.arange(itemsize, dtype=np.int64)
        if dtype.kind == "b":
            raw = vals.astype(np.uint8).reshape(-1, 1)
        else:
            raw = np.ascontiguousarray(vals).view(np.uint8).reshape(-1, itemsize)
        self.data[byte_idx] = raw

    # -- internal -----------------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        """Bounds-check ``[addr, addr + nbytes)`` against the logical
        size, then make it physical."""
        faultinject.maybe_fail("memory", "check")
        if addr < NULL_GUARD:
            raise MemoryError_(f"NULL-page access at address {addr}")
        end = addr + nbytes
        if end > self.size:
            raise MemoryError_(
                f"out-of-bounds access: [{addr}, {end}) of {self.size}"
            )
        if end > len(self.data):
            self._grow(end)

    def _check_write(self, addr: int, nbytes: int) -> None:
        """Bounds-check a write and raise the extent over it."""
        self._check(addr, nbytes)
        if addr + nbytes > self._extent:
            self._extent = addr + nbytes

    def _check_lanes(self, addrs: np.ndarray, nbytes: int) -> int:
        """Batched bounds check over a vector of lane addresses; returns
        one past the highest byte the access touches.

        Runs before any lane is read or written (trap-before-any-write is
        canonical — see the VM contract in DESIGN.md).  The bounds are
        compared as Python ints, so uint64 addresses near 2**64 cannot
        wrap around an addition and slip past the check.
        """
        faultinject.maybe_fail("memory", "lanes")
        top = int(addrs.max())
        if int(addrs.min()) < NULL_GUARD or top > self.size - nbytes:
            # Delegate the first offending lane (in lane order) to the
            # scalar check so the error message is identical.
            bad = (addrs < NULL_GUARD) | (addrs > self.size - nbytes)
            self._check(int(addrs[int(bad.nonzero()[0][0])]), nbytes)
        end = top + nbytes
        if end > len(self.data):
            self._grow(end)
        return end
