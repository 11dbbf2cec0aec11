"""Expected outputs, the cost-model pin, and the check every request gets.

Expected outputs never come from the build under test: a kernel's numpy
``spec.ref`` where it has one, otherwise its *serial* source compiled with
``compile_scalar`` and run on the reference engine (``predecode=False``).
``model_cycles.json`` pins cost-model cycles and instructions per kernel and
implementation; they are the paper's numbers and must repeat exactly.

``python3 -m bench.oracle`` rewrites the pin from the reference engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .config import GUARD_BYTES, SRC, suite_specs

PIN_PATH = Path(__file__).resolve().parent / "model_cycles.json"


def load_pin() -> Dict[str, Dict[str, list]]:
    return json.loads(PIN_PATH.read_text())


def bind_inputs(interp, workload) -> List[int]:
    """Copy the workload's arrays into VM memory, a guard after each."""
    addrs = []
    for array in workload.arrays:
        addrs.append(interp.memory.alloc_array(array))
        interp.memory.alloc(GUARD_BYTES)
    return addrs


def read_outputs(interp, workload, addrs, returned) -> List[np.ndarray]:
    outputs = [
        interp.memory.read_array(addrs[i], workload.arrays[i].dtype,
                                 workload.arrays[i].size)
        for i in workload.outputs
    ]
    if workload.returns_value:
        outputs.append(np.asarray(returned))
    return outputs


def run_serial(spec, workload, impl: str, predecode: bool):
    """Run a baseline build of ``spec``; ``(outputs, cycles, instructions)``."""
    import repro

    if impl == "scalar":
        module = repro.compile_scalar(spec.scalar_src, f"{spec.name}.scalar")
    else:
        module = repro.compile_autovec(spec.scalar_src,
                                       module_name=f"{spec.name}.autovec")
    interp = repro.Interpreter(module, predecode=predecode)
    addrs = bind_inputs(interp, workload)
    returned = interp.run("kernel", *addrs, *workload.scalars)
    return (read_outputs(interp, workload, addrs, returned),
            interp.stats.cycles, interp.stats.instructions)


class Oracle:
    """What each kernel must produce, and the verdict on what it did."""

    def __init__(self, pin: Dict[str, Dict[str, list]]):
        self.pin = pin
        self.expected: Dict[str, List[np.ndarray]] = {}
        self.rtol: Dict[str, Optional[float]] = {}
        #: (kernel, implementation) -> (cycles, instructions) of serial
        #: builds already run, so a baseline is not run twice.
        self.serial: Dict[tuple, tuple] = {}

    def learn(self, spec, workload) -> Optional[str]:
        """Compute ``spec``'s expected outputs; a pin mismatch is returned."""
        self.rtol[spec.name] = workload.rtol
        if spec.ref is not None:
            self.expected[spec.name] = [np.asarray(a) for a in spec.ref(workload)]
            return None
        outputs, cycles, instrs = run_serial(spec, workload, "scalar",
                                             predecode=False)
        self.expected[spec.name] = outputs
        self.serial[spec.name, "scalar"] = (cycles, instrs)
        return self.check_counts(spec.name, "scalar", cycles, instrs)

    def check_counts(self, kernel: str, impl: str, cycles: float,
                     instrs: int) -> Optional[str]:
        pinned = self.pin.get(kernel, {}).get(impl)
        if pinned != [cycles, instrs]:
            return (f"{kernel}/{impl}: cost model gave cycles={cycles!r} "
                    f"instructions={instrs!r}, pinned {pinned!r}")
        return None

    def check(self, kernel: str, outputs: List[np.ndarray], cycles: float,
              instrs: int) -> Optional[str]:
        """``None`` when the request was right, else what was wrong."""
        expected = self.expected[kernel]
        rtol = self.rtol[kernel]
        if len(outputs) != len(expected):
            return f"{kernel}: {len(outputs)} outputs, expected {len(expected)}"
        for index, (got, want) in enumerate(zip(outputs, expected)):
            if got.shape != want.shape:
                return f"{kernel}: output {index} has shape {got.shape}"
            if rtol is None:
                same = np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
            else:
                same = np.allclose(got, want, rtol=rtol, atol=0.0,
                                   equal_nan=True)
            if not same:
                return f"{kernel}: output {index} differs from the reference"
        return self.check_counts(kernel, "parsimony", cycles, instrs)

    # The fresh-process workload hands its oracle to the processes it spawns.

    def save(self, path: Path) -> None:
        arrays = {f"{kernel}/{i}": a for kernel, outs in self.expected.items()
                  for i, a in enumerate(outs)}
        np.savez(path, **arrays)
        path.with_suffix(".json").write_text(json.dumps(self.rtol))

    @classmethod
    def load(cls, path: Path) -> "Oracle":
        oracle = cls(load_pin())
        oracle.rtol = json.loads(path.with_suffix(".json").read_text())
        with np.load(path) as arrays:
            for key in sorted(arrays.files,
                              key=lambda k: (k.rpartition("/")[0],
                                             int(k.rpartition("/")[2]))):
                oracle.expected.setdefault(key.rpartition("/")[0], []).append(
                    arrays[key])
        return oracle


def write_pin() -> None:
    """Pin every (kernel, implementation) the harness runs, from the
    reference engine, so the pin does not come from the engine it checks."""
    import repro

    pin: Dict[str, Dict[str, list]] = {}
    for suite, baseline in (("fig4", "autovec"), ("fig5", "scalar")):
        for spec in suite_specs(suite):
            workload = spec.workload()
            row = pin.setdefault(spec.name, {})
            for impl in {baseline} | ({"scalar"} if spec.ref is None else set()):
                _, cycles, instrs = run_serial(spec, workload, impl, False)
                row[impl] = [cycles, instrs]
            module = repro.compile_parsimony(
                spec.psim_src, module_name=f"{spec.name}.parsimony")
            interp = repro.Interpreter(module, predecode=False)
            interp.run("kernel", *bind_inputs(interp, workload),
                       *workload.scalars)
            row["parsimony"] = [interp.stats.cycles, interp.stats.instructions]
    rows = ",\n".join(f" {json.dumps(kernel)}: {json.dumps(row, sort_keys=True)}"
                      for kernel, row in sorted(pin.items()))
    PIN_PATH.write_text("{\n" + rows + "\n}\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(SRC))
    write_pin()
