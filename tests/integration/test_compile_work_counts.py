"""Deterministic work counts on the compile miss path.

Wall-clock floors are noise in a shared sandbox; call counts are not.  One
``compile_parsimony`` miss used to run ``verify_function`` 37 times and
build 71 ``DominatorTree``s for every fig5 kernel (30 of the former after
passes that had changed nothing, 37 of the latter inside those
verifications).  Verification now follows change and passes share their
CFG analyses, so the counts depend on the kernel — pinned here, as upper
bounds, for three fig5 kernels and ``mandelbrot``.  The counts repeat
exactly from compile to compile, so a bound that trips is a regression
in the pipeline, never a slow machine.
"""

import sys

import pytest

from repro import driver
from repro.benchsuite.ispc_suite import BY_NAME as FIG4
from repro.benchsuite.simdlib import KERNELS
from repro.ir.cfg import DominatorTree
from repro.ir.verifier import verify_function
from repro.passes.pass_manager import set_paranoid

FIG5 = {spec.name: spec for spec in KERNELS}

#: kernel -> (verify_function calls, DominatorTree constructions) per miss;
#: all four were (37, 71) — mandelbrot (37, 75) — before.
BOUNDS = {
    "AbsDifference": (16, 34),
    "GaussianBlur3x3": (23, 38),
    "GetStatistic": (17, 43),
    "mandelbrot": (19, 49),
}


def work_counts(spec):
    """(verify_function calls, DominatorTree constructions) of one miss,
    counted by code object so that no import style escapes the count."""
    counts = {verify_function.__code__: 0, DominatorTree.__init__.__code__: 0}

    def on_call(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    driver.clear_compile_cache()
    sys.setprofile(on_call)
    try:
        driver.compile_parsimony(
            spec.psim_src, module_name=f"{spec.name}.parsimony")
    finally:
        sys.setprofile(None)
        driver.clear_compile_cache()
    return tuple(counts.values())


@pytest.fixture(autouse=True)
def default_verification():
    """The bounds describe the default mode; the CI ``paranoid`` job sets
    ``REPRO_PARANOID=1``, under which every pass re-verifies the module."""
    set_paranoid(False)
    yield
    set_paranoid(None)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_compile_miss_work_is_bounded_and_repeatable(name):
    spec = FIG5.get(name) or FIG4[name]
    first, second = work_counts(spec), work_counts(spec)
    assert first == second, "work counts must repeat exactly"
    verifies, trees = first
    assert verifies <= BOUNDS[name][0], (
        f"{name}: {verifies} verify_function calls per compile miss")
    assert trees <= BOUNDS[name][1], (
        f"{name}: {trees} DominatorTree constructions per compile miss")
