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

Extent and snapshots: the buffer is 4 MB but a kernel's live footprint is
a few KB, so rollback (trap replay, shard retries) must not pay for the
whole image.  ``Memory.extent`` is one past the highest byte ever
allocated or written, and the invariant **``data[extent:] == 0``** always
holds: every write path (``alloc``, ``alloc_array``, ``write_array``,
``store_scalar``, ``store_packed``, ``scatter``) raises the extent before
it writes, and nothing outside this module assigns into ``data``.
:meth:`Memory.snapshot` therefore copies only ``[0, extent)`` and
:meth:`Memory.restore` puts those bytes back and re-zeroes whatever the
rolled-back run touched above them — bit-identical to restoring an eager
full-image copy.  Popping allocas lowers ``_brk`` but never the extent
(the popped frame's bytes are still in the image).
"""

from __future__ import annotations

import numpy as np

from .. import faultinject
from ..diagnostics import ExecutionError
from ..ir.types import Type
from .nputil import elem_dtype

__all__ = ["Memory", "MemorySnapshot", "MemoryError_"]


class MemoryError_(ExecutionError):
    """Raised on out-of-bounds or NULL-page access."""


_NULL_GUARD = 16


class MemorySnapshot:
    """A rollback point: the image below the extent, plus the allocator
    break.  Restorable into any :class:`Memory` of the same size (shard
    workers rebuild the launch image in their own buffer)."""

    __slots__ = ("image", "brk", "size")

    def __init__(self, image: np.ndarray, brk: int, size: int):
        self.image = image
        self.brk = brk
        self.size = size


class Memory:
    """Flat memory with a bump allocator."""

    def __init__(self, size: int = 1 << 22):
        self.data = np.zeros(size, dtype=np.uint8)
        self._brk = 64  # leave a NULL guard region at the bottom
        self._extent = 0

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def extent(self) -> int:
        """One past the highest byte ever allocated or written; every
        byte at or above it is zero."""
        return self._extent

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
        self.data[:kept] = snapshot.image
        if self._extent > kept:
            self.data[kept : self._extent] = 0
        self._extent = kept
        self._brk = snapshot.brk

    # -- allocation ---------------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Allocate ``nbytes`` and return the base address."""
        addr = (self._brk + align - 1) & ~(align - 1)
        if addr + nbytes > self.size:
            raise MemoryError_(
                f"out of VM memory: want {nbytes} bytes at {addr}, size {self.size}"
            )
        self._brk = addr + nbytes
        if self._brk > self._extent:
            self._extent = self._brk
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
        """Packed load of ``count`` consecutive elements.

        With a mask, inactive lanes read as zero and, when every lane is
        inactive, the address is never validated (mirrors hardware masked
        loads never faulting on inactive lanes).
        """
        dtype = elem_dtype(type)
        if mask is None or mask.all():
            nbytes = dtype.itemsize * count
            self._check(addr, nbytes)
            return self.data[addr : addr + nbytes].view(dtype).copy()
        if not mask.any():
            return np.zeros(count, dtype=dtype)
        # Bounds are only required up to the last active lane, as on real
        # hardware masked loads: a tail gang at the end of an array must not
        # fault on its inactive lanes.
        needed = int(np.nonzero(mask)[0][-1]) + 1
        nbytes = dtype.itemsize * needed
        self._check(addr, nbytes)
        out = np.zeros(count, dtype=dtype)
        out[:needed] = self.data[addr : addr + nbytes].view(dtype)
        out[~mask] = 0
        return out

    def store_packed(self, addr: int, type: Type, values: np.ndarray, mask=None) -> None:
        dtype = elem_dtype(type)
        if mask is None or mask.all():
            nbytes = dtype.itemsize * len(values)
            self._check_write(addr, nbytes)
            self.data[addr : addr + nbytes].view(dtype)[:] = values.astype(dtype, copy=False)
            return
        if not mask.any():
            return
        needed = int(np.nonzero(mask)[0][-1]) + 1
        nbytes = dtype.itemsize * needed
        self._check_write(addr, nbytes)
        view = self.data[addr : addr + nbytes].view(dtype)
        view[mask[:needed]] = values.astype(dtype, copy=False)[:needed][mask[:needed]]

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
            lanes = np.nonzero(mask)[0]
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
            lanes = np.nonzero(mask)[0]
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
        faultinject.maybe_fail("memory", "check")
        if addr < _NULL_GUARD:
            raise MemoryError_(f"NULL-page access at address {addr}")
        if addr + nbytes > self.size:
            raise MemoryError_(
                f"out-of-bounds access: [{addr}, {addr + nbytes}) of {self.size}"
            )

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
        if int(addrs.min()) < _NULL_GUARD or top > self.size - nbytes:
            # Delegate the first offending lane (in lane order) to the
            # scalar check so the error message is identical.
            bad = (addrs < _NULL_GUARD) | (addrs > self.size - nbytes)
            self._check(int(addrs[int(np.nonzero(bad)[0][0])]), nbytes)
        return top + nbytes
