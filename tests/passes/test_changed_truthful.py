"""A pass's ``changed`` return value is load-bearing.

``PassManager`` re-verifies a function only after a pass that reported a
change, so a pass that rewrites IR and returns ``False`` would slip its
output past per-pass verification.  Two guards:

* every pass of ``standard_pipeline()`` and ``post_vectorize_cleanup`` is
  truthful over the whole benchsuite and 100 fuzzed kernels — a ``False``
  return leaves the printed function byte-identical (``licm`` used to
  drop ``loop_simplify``'s answer and failed this on 22 functions);
* a pass that lies anyway is caught: by the driver's verification of the
  finished module in default mode, and by name under ``REPRO_PARANOID=1``.
"""

import pytest

import repro.passes as passes
from repro import driver
from repro.benchsuite.fuzzgen import generate_kernel
from repro.benchsuite.ispc_suite import BENCHMARKS as FIG4
from repro.benchsuite.simdlib import KERNELS as FIG5
from repro.ir.printer import print_function
from repro.ir.verifier import VerificationError
from repro.passes.pass_manager import (
    PassManager,
    PassVerificationError,
    set_paranoid,
)

#: Everything ``standard_pipeline()`` and ``post_vectorize_cleanup`` run.
#: Both look the passes up on ``repro.passes`` when called, so wrapping
#: the package attributes instruments the real pipelines.
PASS_NAMES = ("mem2reg", "constant_fold", "simplify_cfg", "cse",
              "narrow_ints", "dce", "licm")

CORPORA = {
    "fig4": [spec.psim_src for spec in FIG4],
    "fig5": [spec.psim_src for spec in FIG5],
    "fuzz": [generate_kernel(seed).source for seed in range(100)],
}


def test_every_pipeline_pass_is_instrumented():
    assert {p.__name__ for p in passes.standard_pipeline().passes} <= set(PASS_NAMES)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_false_means_byte_identical(corpus, monkeypatch):
    applications = dict.fromkeys(PASS_NAMES, 0)
    unchanged = dict.fromkeys(PASS_NAMES, 0)
    liars = []

    def checked(pass_):
        def wrapper(function):
            before = print_function(function)
            changed = pass_(function)
            applications[pass_.__name__] += 1
            if not changed:
                unchanged[pass_.__name__] += 1
                if print_function(function) != before:
                    liars.append((pass_.__name__, function.name))
            return changed

        wrapper.__name__ = pass_.__name__
        return wrapper

    for name in PASS_NAMES:
        monkeypatch.setattr(passes, name, checked(getattr(passes, name)))
    driver.clear_compile_cache()
    for source in CORPORA[corpus]:
        driver.compile_parsimony(source, module_name=f"{corpus}.truth")
    driver.clear_compile_cache()

    assert not liars
    # The check is not vacuous: every pass ran, and most applications
    # changed nothing (what per-pass verification now skips).
    assert all(applications.values()), applications
    assert 2 * sum(unchanged.values()) > sum(applications.values()), unchanged


# ---------------------------------------------------------------------------
# a pass that lies anyway
# ---------------------------------------------------------------------------

SCALAR_SRC = """
void kernel(u32* a, u64 n) {
    for (u64 i = 0ul; i < n; i = i + 1ul) {
        a[i] = a[i] * 3u + 1u;
    }
}
"""


def lying_pass(function):
    """Drops the entry block's terminator and reports no change."""
    term = function.entry.terminator
    function.entry.instructions.remove(term)
    term.parent = None
    term.drop_operands()
    return False


@pytest.fixture
def pipeline_ending_in_a_lie(monkeypatch):
    honest = driver.standard_pipeline
    monkeypatch.setattr(
        driver, "standard_pipeline",
        lambda: PassManager([*honest().passes, lying_pass]))
    driver.clear_compile_cache()
    yield
    set_paranoid(None)
    driver.clear_compile_cache()


def test_lie_is_caught_by_the_finished_module_verify(pipeline_ending_in_a_lie):
    set_paranoid(False)
    with pytest.raises(VerificationError, match="lacks a terminator") as err:
        driver.compile_scalar(SCALAR_SRC)
    # Nothing re-verified after the pass (it said "unchanged"), so the
    # diagnostic comes from the driver and cannot name it.
    assert not isinstance(err.value, PassVerificationError)
    assert driver.compile_cache_stats()["entries"] == 0


def test_lie_is_named_under_paranoid(pipeline_ending_in_a_lie, monkeypatch):
    monkeypatch.setenv("REPRO_PARANOID", "1")
    with pytest.raises(PassVerificationError, match="changed=False") as err:
        driver.compile_scalar(SCALAR_SRC)
    assert err.value.diagnostic.pass_name == "lying_pass"
    assert err.value.diagnostic.function == "kernel"


def test_paranoid_accepts_truthful_unchanged_passes(monkeypatch):
    monkeypatch.setenv("REPRO_PARANOID", "1")
    driver.clear_compile_cache()
    driver.compile_parsimony(FIG4[0].psim_src, module_name="paranoid.truth")
    driver.clear_compile_cache()
