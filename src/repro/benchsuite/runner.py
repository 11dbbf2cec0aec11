"""Benchmark runner: builds, checks, and measures kernel implementations.

Implements the paper's measurement methodology (§5): every kernel runs in
up to four configurations — un-vectorized scalar, auto-vectorized,
Parsimony, hand-written — on the same machine model with the same seeded
workload, and reports cost-model cycles.  Cross-implementation output
equality is checked before any number is reported.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..backend.machine import AVX512, ExecStats, Machine
from ..driver import compile_autovec, compile_ispc, compile_parsimony, compile_scalar
from ..ir.module import Module
from ..vm import Interpreter
from .kernelspec import KernelSpec
from .workloads import Workload

__all__ = [
    "IMPLEMENTATIONS",
    "KernelResult",
    "build_impl",
    "run_impl",
    "check_kernel",
    "measure_kernel",
    "geomean",
    "summarize_telemetry",
    "dump_codegen",
]

IMPLEMENTATIONS = ("scalar", "autovec", "parsimony", "handwritten")

#: Guard space after each array so bounded-window over-reads (§4.2.3's
#: packed+shuffle accesses) stay in-bounds, as intrinsics code assumes.
_GUARD_BYTES = 4096


@dataclass
class KernelResult:
    impl: str
    cycles: float
    stats: ExecStats
    outputs: List[np.ndarray]
    returned: object = None

    def output_signature(self):
        sig = [np.asarray(o) for o in self.outputs]
        if self.returned is not None:
            sig.append(np.asarray(self.returned))
        return sig


def build_impl(spec: KernelSpec, impl: str, machine: Machine = AVX512) -> Module:
    """Compile one implementation of a kernel to an IR module."""
    if impl == "scalar":
        return compile_scalar(spec.scalar_src, f"{spec.name}.scalar")
    if impl == "autovec":
        return compile_autovec(spec.scalar_src, machine, f"{spec.name}.autovec")
    if impl == "parsimony":
        return compile_parsimony(spec.psim_src, module_name=f"{spec.name}.parsimony")
    if impl == "ispc":
        return compile_ispc(spec.psim_src, machine, f"{spec.name}.ispc")
    if impl == "handwritten":
        module = Module(f"{spec.name}.hand")
        spec.hand_build(module)
        # Intrinsics code still goes through the compiler's -O pipeline.
        from ..passes import constant_fold, cse, dce, licm

        for function in module.functions.values():
            constant_fold(function)
            cse(function)
            licm(function)
            dce(function)
        return module
    raise ValueError(f"unknown implementation {impl!r}")


def run_impl(spec: KernelSpec, impl: str, machine: Machine = AVX512,
             module: Optional[Module] = None,
             workload: Optional[Workload] = None,
             codegen: bool = True) -> KernelResult:
    """Execute one implementation on the kernel's seeded workload.

    ``codegen`` selects the VM engine exactly as
    :class:`~repro.vm.Interpreter` does (default: whole-kernel codegen;
    ``False``: the reference engine).
    """
    workload = workload or spec.workload()
    module = module or build_impl(spec, impl, machine)
    interp = Interpreter(module, machine=machine, codegen=codegen)
    addrs = []
    for array in workload.arrays:
        addrs.append(interp.memory.alloc_array(array))
        interp.memory.alloc(_GUARD_BYTES)
    # Interpreter stats accumulate across run() calls; start this
    # measurement from a known-zero state.
    interp.reset_stats()
    start = time.perf_counter()
    returned = interp.run("kernel", *addrs, *workload.scalars)
    wall = time.perf_counter() - start
    batch = None
    if "batch_factor" in module.attrs:
        batch = {
            "factor": module.attrs["batch_factor"],
            "applied": len(module.attrs.get("batch_applied", ())),
            "rejected": len(module.attrs.get("batch_rejected", ())),
        }
    telemetry.record_vm_run(
        f"{spec.name}/{impl}", interp.stats, interp.hotspots(),
        wall_seconds=wall, batch=batch,
        codegen=interp.codegen_report() if interp.codegen else None,
    )
    outputs = [
        interp.memory.read_array(addrs[idx], workload.arrays[idx].dtype,
                                 workload.arrays[idx].size)
        for idx in workload.outputs
    ]
    return KernelResult(
        impl=impl,
        cycles=interp.stats.cycles,
        stats=interp.stats,
        outputs=outputs,
        returned=returned if workload.returns_value else None,
    )


def check_kernel(spec: KernelSpec, machine: Machine = AVX512,
                 impls: Sequence[str] = IMPLEMENTATIONS) -> Dict[str, KernelResult]:
    """Run every implementation and assert identical outputs (and, when a
    numpy reference exists, agreement with it)."""
    results = {impl: run_impl(spec, impl, machine) for impl in impls}
    workload = spec.workload()
    rtol = workload.rtol

    def compare(got, want, message):
        if rtol is None:
            np.testing.assert_array_equal(got, want, err_msg=message)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, err_msg=message)

    baseline = results[impls[0]]
    base_sig = baseline.output_signature()
    for impl, result in results.items():
        sig = result.output_signature()
        assert len(sig) == len(base_sig), f"{spec.name}/{impl}: output arity differs"
        for got, want in zip(sig, base_sig):
            compare(got, want, f"{spec.name}: {impl} output differs from {impls[0]}")
    if spec.ref is not None:
        expected = spec.ref(workload)
        for got, want in zip(base_sig, expected):
            compare(
                np.asarray(got), np.asarray(want),
                f"{spec.name}: {impls[0]} disagrees with numpy reference",
            )
    return results


def measure_kernel(spec: KernelSpec, machine: Machine = AVX512,
                   impls: Sequence[str] = IMPLEMENTATIONS) -> Dict[str, float]:
    """Speedup of every implementation relative to scalar."""
    results = {impl: run_impl(spec, impl, machine) for impl in impls}
    scalar = results["scalar"].cycles
    return {impl: scalar / r.cycles for impl, r in results.items()}


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize_telemetry(session: "telemetry.Telemetry") -> Dict[str, Dict[str, float]]:
    """Fold a telemetry session's VM runs into a kernel × impl cycle table.

    ``run_impl`` labels each run ``"<kernel>/<impl>"``; later runs of the
    same pair overwrite earlier ones (each run's stats are self-contained
    thanks to ``reset_stats``).
    """
    table: Dict[str, Dict[str, float]] = {}
    for run in session.vm_runs:
        kernel, _, impl = run["label"].partition("/")
        table.setdefault(kernel, {})[impl] = run["cycles"]
    return table


#: What the kinds in a generated source's ``hoisted:`` summary stand for.
_HOISTED_KINDS = {
    "b": "builtins", "c": "constants", "k": "folded values",
    "sel": "shuffle selectors", "keep": "mask keep-vectors",
    "np": "numpy functions", "dt": "dtypes", "sdt": "signed dtypes",
    "t": "IR types", "impl": "op impls", "rmw": "atomic impls",
    "cf": "f32 rounding", "pack": "cell writers", "unpack": "cell readers",
    "ext": "externals", "u": "undef payloads", "s": "signed constants",
}


def dump_codegen(spec: KernelSpec, machine: Machine = AVX512) -> str:
    """What the whole-kernel code generator emits for ``spec``'s Parsimony
    build (``--dump-codegen`` in ``examples/fig4_report.py`` and
    ``fig5_report.py``): per function, a header — lines, values folded at
    emit time, inline (window groups run as one view, and gathers as one
    index of the lane view, among them) vs ``Memory``-only accesses,
    hoisted bindings by kind — then the source,
    its bindings-as-defaults signature elided."""
    from ..backend import codegen
    from ..backend.costmodel import DEFAULT_COST_MODEL

    module = build_impl(spec, "parsimony", machine)
    out = [f"{module.name}: batch factor {module.attrs.get('batch_factor', 1)}"]
    for function in module.functions.values():
        if not function.blocks:
            continue
        try:
            source = codegen.generated_source(
                function, machine, DEFAULT_COST_MODEL, module.fingerprint)
        except codegen.CodegenBailout as exc:
            out.append(f"== @{function.name}: not compiled ({exc.reason})")
            continue
        signature, summary, *body = source.splitlines()
        counts, _, hoisted = summary.strip("# ").partition(" hoisted: ")
        fields = dict(item.split("=") for item in counts.split())
        bindings = ", ".join(
            f"{n} {_HOISTED_KINDS.get(kind, kind)}"
            for kind, n in (item.split("=") for item in hoisted.split()))
        out.append(
            f"== @{function.name}: {len(body)} lines; "
            f"{fields['folded']} values folded at emit time; accesses: "
            f"{fields['inline']} inline ({fields.get('windows', 0)} window"
            f" views, {fields.get('gathers', 0)} gathers),"
            f" {fields['slow']} Memory-only; "
            f"hoisted: {bindings}")
        out.append(f"def _kfn(_interp, _args, depth, "
                   f"<{signature.count('=')} bindings>):")
        out.extend(body)
    return "\n".join(out)
