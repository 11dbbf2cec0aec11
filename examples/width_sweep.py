#!/usr/bin/env python3
"""Machine-width portability sweep (the paper's §4.3 / SVE discussion).

Parsimony code is compiled against a *gang size*, not a machine width:
the same program runs unmodified on 128-, 256-, 512- (and hypothetical
1024-) bit machines, with the back-end legalizing gang-width vectors to
whatever registers exist.  This example compiles one u8 kernel once per
machine, checks the outputs are identical everywhere, and shows how the
cycle cost scales with register width.

    python examples/width_sweep.py
"""

import numpy as np

from repro import Interpreter, Machine, compile_parsimony
from repro.backend.legalize import legalize_module
from repro.passes import clone_module

N = 4096

SRC = """
void kernel(u8* a, u8* b, u8* c, u64 n) {
    psim (gang_size=64, num_threads=n) {
        u64 i = psim_get_thread_num();
        c[i] = avgr(addsat(a[i], b[i]), absdiff(a[i], b[i]));
    }
}
"""

MACHINES = [
    Machine(name="sse4", vector_bits=128),
    Machine(name="avx2", vector_bits=256),
    Machine(name="avx512", vector_bits=512),
    Machine(name="sve-1024", vector_bits=1024),
]


def run(machine, legalized):
    module = compile_parsimony(SRC)
    if legalized:
        # Compiled modules are frozen hand-outs; legalization rewrites IR.
        module = clone_module(module)
        legalize_module(module, machine)
    interp = Interpreter(module, machine=machine)
    rng = np.random.default_rng(11)
    a = interp.memory.alloc_array(rng.integers(0, 256, N).astype(np.uint8))
    b = interp.memory.alloc_array(rng.integers(0, 256, N).astype(np.uint8))
    c = interp.memory.alloc_array(np.zeros(N, np.uint8))
    interp.run("kernel", a, b, c, N)
    return interp.memory.read_array(c, np.uint8, N), interp.stats.cycles


def main():
    print(f"gang-64 u8 kernel over {N} pixels, one source, four machines\n")
    print(f"{'machine':10s} {'bits':>5s} {'cycles (model)':>15s} {'cycles (legalized IR)':>22s}")
    reference = None
    for machine in MACHINES:
        out_m, cycles_m = run(machine, legalized=False)
        out_l, cycles_l = run(machine, legalized=True)
        if reference is None:
            reference = out_m
        assert (out_m == reference).all() and (out_l == reference).all()
        print(f"{machine.name:10s} {machine.vector_bits:5d} {cycles_m:15.0f} {cycles_l:22.0f}")
    print("\nidentical outputs everywhere; cycles scale with register width")
    print("(both via the cost model's legalization factors and via the real")
    print("legalization pass in repro.backend.legalize)")


if __name__ == "__main__":
    main()
