"""The scatter-add's runtime check, proven by bounded enumeration.

Gang batching runs a serialized atomic (the per-lane ``atomicrmw add``
chain of §4.2.3) as one ``np.add.at`` per trip, behind a zero-charge
check (``codegen._scatter_add``): every active cell in bounds and
aligned, and the hull of the cells clear of every other access of the
trip.  The unbatched order runs gang by gang — gang k's loads, its
active lanes' read-modify-writes one at a time, its stores — while the
trip runs every gang's loads, then the scatter-add, then every gang's
stores.  Here a brute-force model lists both orders over small
parameters — gangs per trip, lanes per gang, cell size, lane addresses
(misaligned ones too), masks, and the placement of a load and a store
window around the cells — and requires that whenever the check admits a
trip, the two orders read the same bytes and leave the same memory (a
load and a store that meet across gangs are left out: that order is the
lockstep dependence test's, ``backend.lockstep``, proven in
``tests/backend/test_lockstep_rule.py``).  A seeded mutation of the check (a dropped alignment test, an off-by-one in
the hull, an ignored mask, windows cut to gang 0's) must fail the same
enumeration.
"""

import inspect
import itertools

import numpy as np
import pytest

from repro.backend import codegen
from repro.vm import Memory
from repro.vm.interp import _Replay
from repro.vm.memory import LANE_DTYPES

#: Bytes of the region the cells and windows live in, at a base aligned
#: to 8; the model's addresses are offsets into it.
REGION = 32
#: Lane j adds ``VALUES[j]`` to every byte of its cell (and a carry out
#: of most), so a cell added as a wider or shifted one, or in another
#: order than a store over one of its bytes, shows.
VALUES = (0xFF, 0x81, 0xFE, 0x7F)


def _value(j: int, size: int) -> int:
    return int.from_bytes(bytes((VALUES[j],)) * size, "little")

#: ``(gangs, lanes per gang, lane offsets)``: every address vector over
#: the offsets, with every mask.
SHAPES = ((1, 2, (8, 9, 10, 11, 12, 13)), (2, 1, (8, 9, 10, 11, 12, 13)),
          (2, 2, (8, 10, 12)))
#: A load window before the chain and a store window after it, two bytes
#: a gang, gangs two bytes apart, at bases around the cells.
LOADS = (4, 6, 7, 9, 11, 13, 14, 16)
STORES = (None, 3, 15)


def _unbatched(data, gangs, lanes, addrs, mask, size, load, store):
    """The trip gang by gang: bytes each load reads, and the memory."""
    data = bytearray(data)
    seen = []
    for k in range(gangs):
        seen.append(bytes(data[load + 2 * k:load + 2 * k + 2]))
        for j in range(k * lanes, (k + 1) * lanes):
            if mask[j]:
                a = addrs[j]
                cell = int.from_bytes(data[a:a + size], "little")
                cell = (cell + _value(j, size)) % (1 << 8 * size)
                data[a:a + size] = cell.to_bytes(size, "little")
        if store is not None:
            data[store + 2 * k:store + 2 * k + 2] = bytes((0xA0 + k,) * 2)
    return seen, bytes(data)


def _batched(check, data, gangs, lanes, addrs, mask, size, load, store):
    """The trip batched: every load, ``check`` (the scatter-add), every
    store; ``None`` when the check sends the trip to the twin."""
    memory = Memory(4096)
    base = memory.alloc(REGION)
    memory.write_array(base, np.frombuffer(data, np.uint8))
    view = memory.data[base:base + REGION]
    seen = [bytes(view[load + 2 * k:load + 2 * k + 2]) for k in range(gangs)]
    windows = [(base + load, 2, 2)]
    if store is not None:
        windows.append((base + store, 2, 2))
    lane = LANE_DTYPES.index(np.dtype(f"u{size}"))
    values = np.array([_value(j, size) for j in range(len(addrs))],
                      LANE_DTYPES[lane])
    try:
        check(memory, False, np.array(addrs, np.uint64) + np.uint64(base),
              values, np.array(mask, bool), lane, gangs, windows)
    except _Replay:
        return None
    view = memory.data[base:base + REGION]
    if store is not None:
        for k in range(gangs):
            view[store + 2 * k:store + 2 * k + 2] = 0xA0 + k
    return seen, bytes(view)


def _counterexample(check):
    """The first trip the check admits whose batched order differs from
    the unbatched one, or ``None``; and how many trips it admitted."""
    data = bytes(range(0x30, 0x30 + REGION))
    admitted = 0
    for (gangs, lanes, offsets), size, load, store in itertools.product(
            SHAPES, (1, 2, 4), LOADS, STORES):
        if store is not None and store < load + 2 * gangs \
                and load < store + 2 * gangs:
            continue  # loads against stores: not the scatter-add's rule
        n = gangs * lanes
        for addrs in itertools.product(offsets, repeat=n):
            for mask in itertools.product((0, 1), repeat=n):
                args = (gangs, lanes, addrs, mask, size, load, store)
                got = _batched(check, data, *args)
                if got is None:
                    continue
                admitted += 1
                if got != _unbatched(data, *args):
                    return args, admitted
    return None, admitted


def test_whatever_the_check_admits_the_batched_order_matches():
    found, admitted = _counterexample(codegen._scatter_add)
    assert found is None, found
    # The enumeration reaches both sides of the check.
    assert admitted > 1000


#: Seeded faults in the check, each a one-line edit of its source.
MUTANTS = {
    "no alignment test": ("or size > 1 and count_nonzero(addrs & (size - 1))",
                          "or False"),
    "hull one byte short": ("int(np.maximum.reduce(addrs)) + size",
                            "int(np.maximum.reduce(addrs)) + size - 1"),
    "mask ignored": ("if mask is not None:", "if False:"),
    "later gangs' windows ignored": ("reach = (gangs - 1) * step", "reach = 0"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutated_check_admits_a_reordered_trip(mutant):
    old, new = MUTANTS[mutant]
    source = inspect.getsource(codegen._scatter_add)
    assert source.count(old) == 1
    namespace = dict(vars(codegen))
    exec(source.replace(old, new), namespace)
    found, _ = _counterexample(namespace["_scatter_add"])
    assert found is not None, mutant
