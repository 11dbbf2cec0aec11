"""The lockstep dependence test, proven by bounded enumeration.

Gang batching (B gangs per trip) and the auto-vectorizer baseline (VF
loop iterations per vector iteration) run ``n`` iterations of a loop
body in lockstep: each access for every iteration at once, in body
order, where the sequential loop ran each iteration's body whole before
the next.  ``backend.lockstep.lockstep_conflict`` says when that is the
same.  Here a model runs both orders over a byte-addressed memory whose
cells hold *who wrote them* — so any write seen in another order shows —
for small parameters: ``n`` of 2 to 4; two refs (and a third, folded
update) at small offsets and steps, zero and negative ones too; byte
masks with holes; both body orders (the refs are enumerated in every
role); reads, writes and folded updates; refs inside a loop of the body
(two trips, which lockstep interleaves across iterations) or not.  One
access of the ``n`` iterations writes all their bytes at once: a byte
two of them write is left unspecified, and so differs from any
sequential writer.

Whatever the test admits must read the same bytes and leave the same
memory in both orders.  Where it refuses a read and a write that advance
by one step, neither in a loop, the orders must differ: the test is
exact there.  (Between two writes it may refuse an order that a later
write hides.)  Seeded mutations of the test — the body-order check
dropped, the trips of a loop taken as ordered, the self-conflict
dropped, the distance range cut one short,
overlap rounded to whole accesses the way an exact-distance test
``delta % coeff`` rounds it — must each fail the enumeration.  This is
the order rule that the scatter-add's runtime check
(``tests/vm/test_scatter_add_rule.py``) leaves to batching's legality.
"""

import inspect
import itertools

import pytest

from repro.backend import lockstep
from repro.backend.lockstep import MemRef

STEPS = (-3, -2, 0, 1, 2, 3)
#: One iteration's bytes, from its offset: one, two, four, and two with a
#: hole or behind one.
MASKS = (0b1, 0b11, 0b1111, 0b101, 0b110)
#: A ref's role: read, write, or a folded update (step 0, no loop).
KINDS = ("read", "write", "fold")
#: Trips of the loop holding the ``looped`` refs, in every iteration.
TRIPS = 2


def _bytes_of(ref, k):
    return [ref.offset + k * ref.step + b
            for b in range(ref.bytes.bit_length()) if ref.bytes >> b & 1]


def _access(memory, seen, i, ref, ks, t):
    """Ref ``i`` of iterations ``ks``, all at once (trip ``t``)."""
    if not ref.write:
        for k in ks:
            seen[i, k, t] = [memory.get(a, ("init", a)) for a in _bytes_of(ref, k)]
        return
    if ref.folds:  # commuting updates: the order of ``adds`` is lost
        for k in ks:
            for a in _bytes_of(ref, k):
                old = memory.get(a, ("init", a))
                base, adds = old[1:] if old[0] == "fold" else (old, ())
                memory[a] = ("fold", base, tuple(sorted(adds + ((i, k),))))
        return
    writers = {}
    for k in ks:
        for a in _bytes_of(ref, k):
            writers.setdefault(a, []).append((i, k, t))
    for a, who in writers.items():
        memory[a] = who[0] if len(who) == 1 else ("unspecified", i, t)


def _run(refs, n, lockstep_order):
    """Bytes each access read, and the memory left: the body is the refs
    in order, a run of ``looped`` ones one loop of :data:`TRIPS` trips."""
    items = []
    for i in sorted(range(len(refs)), key=lambda i: refs[i].order):
        if refs[i].looped and items and items[-1][1] == TRIPS:
            items[-1][0].append(i)
        else:
            items.append(([i], TRIPS if refs[i].looped else 1))
    memory, seen = {}, {}
    if lockstep_order:
        for body, trips in items:
            for t in range(trips):
                for i in body:
                    _access(memory, seen, i, refs[i], range(n), t)
    else:
        for k in range(n):
            for body, trips in items:
                for t in range(trips):
                    for i in body:
                        _access(memory, seen, i, refs[i], (k,), t)
    return seen, memory


def _ref(kind, offset, step, mask, order, looped):
    return MemRef(base="a", offset=offset, step=step, bytes=mask,
                  write=kind != "read", order=order, looped=looped,
                  folds=kind == "fold")


def _cases():
    """``(refs, n)``: every pair, then gang-invariant pairs beside a
    folded update (which advances by no step)."""
    for n, step, other in itertools.product((2, 3, 4), STEPS, (0, 1)):
        for k0, m0, k1, m1, offset, looped in itertools.product(
                KINDS, MASKS, KINDS, MASKS, range(-3, 5),
                itertools.product((False, True), repeat=2)):
            kinds = (k0, k1)
            if "write" not in kinds and "fold" not in kinds:
                continue  # two reads: nothing to order
            if any(k == "fold" and (step or other or loop or mask not in (1, 3))
                   for k, loop, mask in zip(kinds, looped, (m0, m1))):
                continue  # an update folds a gang-invariant cell
            yield (_ref(k0, 0, step, m0, 0, looped[0]),
                   _ref(k1, offset, step + other, m1, 1, looped[1])), n
    for n, fold_at, cell, position in itertools.product(
            (2, 3), (-1, 0, 1, 2), (0b1, 0b11), range(3)):
        for k0, k1, offset in itertools.product(KINDS, KINDS, range(-2, 3)):
            refs = [_ref(k0, 0, 0, 0b11, 0, False),
                    _ref(k1, offset, 0, 0b1, 1, False)]
            refs.insert(position, _ref("fold", fold_at, 0, cell, 0, False))
            yield tuple(r._replace(order=j) for j, r in enumerate(refs)), n


def _verdicts(check):
    """The first case ``check`` admits whose orders differ (or ``None``),
    how many it admitted, and how many same-step pairs of a read and a
    write, neither in a loop, it refused whose orders agree."""
    admitted = over = 0
    for refs, n in _cases():
        same = _run(refs, n, False) == _run(refs, n, True)
        if check(refs, n) is None:
            admitted += 1
            if not same:
                return (refs, n), admitted, over
        elif (len(refs) == 2 and refs[0].step == refs[1].step
              and refs[0].write != refs[1].write and not refs[0].folds
              and not refs[1].folds and not refs[0].looped
              and not refs[1].looped and same):
            over += 1
    return None, admitted, over


def test_whatever_the_test_admits_runs_the_same_in_lockstep():
    found, admitted, over = _verdicts(lockstep.lockstep_conflict)
    assert found is None, found
    # The enumeration reaches both sides, and the test refuses no plain
    # pair whose orders agree.
    assert admitted > 5000
    assert over == 0


#: Seeded faults in the test, each a one-line edit of its source.
MUTANTS = {
    "order check dropped": ("ordered and later == (d > 0))", "ordered)"),
    "loop trips taken as ordered": (
        "ordered = not (x is w or w.looped or x.looped)",
        "ordered = x is not w"),
    "self-conflict dropped": ("d = _reversed_meeting(w, x, n)",
                              "d = None if x is w else"
                              " _reversed_meeting(w, x, n)"),
    "distance range cut short": ("min(-(-hi // step), n))",
                                 "min(-(-hi // step), n - 1))"),
    "overlap rounded to whole accesses": (
        "_overlap(w.bytes, x.bytes, base + d * step)", "base + d * step == 0"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutated_test_admits_a_reordered_loop(mutant):
    old, new = MUTANTS[mutant]
    source = inspect.getsource(lockstep)
    assert source.count(old) == 1
    namespace = {"__name__": "mutant"}
    exec(source.replace(old, new), namespace)
    found, _, _ = _verdicts(namespace["lockstep_conflict"])
    assert found is not None, mutant
