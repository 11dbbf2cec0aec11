"""Def-use lists name only instructions that are really there.

Every ``(user, idx)`` in the ``uses`` of a value a compiled module reaches
— functions, externals, arguments, blocks, instructions, their operands,
and the operands of gang batching's charge prototypes — must be an
instruction that sits in one of the module's blocks and holds that value
at operand ``idx``.  Cleanup's global DCE deletes a function exactly when
its use list is empty, so a phantom use (a detached prototype, a deleted
body that never unlinked its operands) would keep dead code alive or let
a def-use walk find code that does not run.
"""

import pytest

from repro import driver
from repro.backend.batch import unbatched_twin
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.faultinject import FaultPlan, inject
from repro.ir.instructions import Instruction
from repro.vectorizer import parsimony_records

SPECS = list(FIG4) + list(FIG5)


def _reachable(module):
    values = [*module.functions.values(), *module.externals.values()]
    for function in module.functions.values():
        values += function.args
        for block in function.blocks:
            values.append(block)
            for instr in block.instructions:
                values.append(instr)
                values += instr.operands
                for proto in instr.attrs.get("batch_charges", ()):
                    values += proto.operands
    return {id(value): value for value in values}.values()


def phantom_uses(module):
    blocks = {block for f in module.functions.values() for block in f.blocks}
    return [
        (value, user, idx)
        for value in _reachable(module)
        for user, idx in value.uses
        if not (isinstance(user, Instruction) and user.parent in blocks
                and user._operands[idx] is value)
    ]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_every_use_names_a_placed_instruction(spec):
    module = driver.compile_parsimony(
        spec.psim_src, module_name=f"{spec.name}.parsimony")
    for built in (module, unbatched_twin(module)):
        if built is not None:
            assert phantom_uses(built) == []


#: Block-fault indices tried per fig4 kernel: every emitted block, except
#: aobench's 106, sampled every 8th (and the last) to keep the matrix fast.
_FAULT_STRIDE = {"aobench": 8}


@pytest.mark.parametrize("spec", FIG4, ids=lambda s: s.name)
def test_block_fault_leaves_no_phantom_uses(spec):
    """A vectorizer failure at any emitted block degrades the function
    whole, and the half-built vector body it leaves is unlinked."""
    probe = FaultPlan(site="vectorize_block", after=10**9)
    with inject(probe):
        driver.compile_parsimony(spec.psim_src, module_name="probe")
    assert probe.hits > 0, "vectorizer emitted no blocks — probe site dead?"
    stride = _FAULT_STRIDE.get(spec.name, 1)
    for i in sorted({*range(0, probe.hits, stride), probe.hits - 1}):
        plan = FaultPlan(site="vectorize_block", after=i, times=1)
        with inject(plan):
            module = driver.compile_parsimony(
                spec.psim_src, module_name=f"{spec.name}.fault{i}")
        assert plan.fired == 1, i
        records = parsimony_records(module).values()
        assert any(r.get("parsimony_fallback") for r in records), i
        assert phantom_uses(module) == [], f"{spec.name}: fault at block {i}"
