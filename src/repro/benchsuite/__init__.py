"""``repro.benchsuite`` — the paper's two evaluation suites and the
measurement harness (workloads, runner, kernel registry)."""

from .kernelspec import KernelSpec, elementwise_sources, reduction_sources, rowwise_sources
from .runner import (
    IMPLEMENTATIONS,
    KernelResult,
    build_impl,
    check_kernel,
    dump_codegen,
    geomean,
    measure_kernel,
    run_impl,
    summarize_telemetry,
)
from .workloads import Workload, f32_array, gray_image, planar_image, rng_for

__all__ = [
    "KernelSpec", "elementwise_sources", "reduction_sources", "rowwise_sources",
    "IMPLEMENTATIONS", "KernelResult", "build_impl", "check_kernel",
    "dump_codegen", "geomean", "measure_kernel", "run_impl", "summarize_telemetry",
    "Workload", "f32_array", "gray_image", "planar_image", "rng_for",
]
