"""``repro.vectorizer`` — the Parsimony SPMD-to-SIMD vectorization pass.

This is the paper's primary contribution (§4.2): a standalone IR-to-IR
pass that rewrites SPMD-annotated functions into gang-wide vector code —
shape analysis with SMT-verified transformation rules, mask-based control
flow linearization, and shape-directed instruction transformation.

``vectorize_module`` is the entry point used by the compilation drivers
(``repro.driver``): it can be placed anywhere in the scalar optimization
pipeline, which is the integration property the paper argues for.

A function the vectorizer cannot handle degrades whole: it drops to the
sequential lane loop of :mod:`.scalarize`, which is exact by
construction.

What the pass records about a function — ``parsimony_fallback``,
``parsimony_warnings``, ``parsimony_telemetry`` — is stamped on its
``attrs``.  The driver's cleanup re-inlines the region functions and
deletes them, moving their attrs to one module-level record
(:func:`record_provenance`); :func:`parsimony_records` reads both, so a
compiled module still says whether it degraded, and why.
"""

from typing import Dict, List, Optional

from .. import faultinject, telemetry
from ..diagnostics import CompileError, ReproError
from ..ir.module import Function, Module
from ..ir.printer import print_function
from ..ir.verifier import verify_function
from ..passes import constant_fold, dce, loop_simplify, mem2reg, simplify_cfg
from ..passes.inline import inline_function_calls
from .scalarize import ScalarizeError, scalarize_spmd_function
from .shape import Shape
from .shapes import ShapeAnalysis
from .transform import VectorizeConfig, VectorizeError, Vectorizer

__all__ = [
    "Shape",
    "ShapeAnalysis",
    "VectorizeConfig",
    "VectorizeError",
    "Vectorizer",
    "parsimony_records",
    "record_provenance",
    "vectorize_function",
    "vectorize_module",
]

#: ``Module.attrs`` key of the provenance record: function name -> the
#: ``parsimony_*`` attrs of a function deleted after re-inlining.
PROVENANCE = "parsimony_provenance"


def _parsimony_attrs(function: Function) -> Dict[str, object]:
    return {k: v for k, v in function.attrs.items() if k.startswith("parsimony_")}


def record_provenance(module: Module, deleted: List[Function]) -> None:
    """Move the ``parsimony_*`` attrs of ``deleted`` — functions just
    removed from ``module`` — into the module's provenance record."""
    record = module.attrs.setdefault(PROVENANCE, {})
    for function in deleted:
        attrs = _parsimony_attrs(function)
        if attrs:
            record[function.name] = attrs


def parsimony_records(module: Module) -> Dict[str, Dict[str, object]]:
    """Function name -> the ``parsimony_*`` attrs the pass stamped on it,
    over the module's live functions and the provenance record of the
    ones cleanup deleted: the one place to ask whether (and why) a compile
    fell back or warned."""
    records = dict(module.attrs.get(PROVENANCE, {}))
    for function in module.functions.values():
        attrs = _parsimony_attrs(function)
        if attrs:
            records[function.name] = attrs
    return records


def _normalize_spmd_function(function: Function) -> None:
    """The usual -O normalization the pass relies on: promote locals to
    SSA, fold, canonicalize loops.  Position-independent — this pipeline
    would have run anyway."""
    inline_function_calls(function)
    mem2reg(function)
    constant_fold(function)
    dce(function)
    simplify_cfg(function)
    loop_simplify(function)
    verify_function(function)


def vectorize_function(
    module: Module, function: Function, config: Optional[VectorizeConfig] = None
) -> Function:
    """Vectorize one SPMD-annotated function and splice it into the module.

    The scalar original stays in the module, renamed ``<name>.scalarref``;
    every call site is rewired to the vector version, which takes over the
    original name.  Past ``repro.driver.post_vectorize_cleanup`` neither
    is kept: both are re-inlined or unreferenced, and deleted.
    """
    config = config or VectorizeConfig()
    name = function.name
    faultinject.maybe_fail("vectorize", name)
    _normalize_spmd_function(function)
    gang_size = function.spmd.gang_size
    analysis = ShapeAnalysis(
        function,
        gang_size,
        assume_nsw=config.assume_nsw,
        enabled=config.enable_shape_analysis,
    )
    vectorizer = Vectorizer(module, function, analysis, config)
    vectorized = vectorizer.vf
    try:
        vectorizer.run()
        constant_fold(vectorized)
        dce(vectorized)
        verify_function(vectorized)
    except Exception:
        # A half-built body holds uses of the module's constants and
        # externals; unlink it, or they would name code that never runs.
        vectorized.teardown()
        raise

    vectorized.attrs["parsimony_warnings"] = vectorizer.warnings
    counters = {
        "shapes": _shape_counts(analysis),
        "memory_forms": dict(vectorizer.memform_counts),
        "mask_ops": _mask_op_counts(vectorized),
    }
    vectorized.attrs["parsimony_telemetry"] = counters
    telemetry.record_vectorization(
        name,
        gang_size,
        counters["shapes"],
        counters["memory_forms"],
        counters["mask_ops"],
        vectorizer.warnings,
    )

    module.functions.pop(name)
    function.name = name + ".scalarref"
    module.functions[function.name] = function
    vectorized.name = name
    module.functions[name] = vectorized
    function.replace_all_uses_with(vectorized)  # rewire gang-loop callers
    return vectorized


def _shape_counts(analysis: ShapeAnalysis) -> Dict[str, int]:
    """Classify every analyzed value as uniform / indexed / varying (§4.2.1)."""
    counts = {"uniform": 0, "indexed": 0, "varying": 0}
    for shape in analysis.shapes.values():
        if shape.is_uniform:
            counts["uniform"] += 1
        elif shape.is_indexed:
            counts["indexed"] += 1
        else:
            counts["varying"] += 1
    return counts


def _mask_op_counts(function: Function) -> Dict[str, int]:
    """Mask operations in the emitted code: explicit mask tests plus
    mask-conditioned blends (vector-i1 selects from linearization)."""
    counts: Dict[str, int] = {}
    for instr in function.instructions():
        op = instr.opcode
        if op in ("mask_any", "mask_all", "mask_popcnt"):
            counts[op] = counts.get(op, 0) + 1
        elif op == "select":
            cond = instr.operands[0]
            if cond.type.is_vector:
                counts["blend_select"] = counts.get("blend_select", 0) + 1
        elif op in ("vload", "vstore", "gather", "scatter"):
            counts["masked_memory"] = counts.get("masked_memory", 0) + 1
    return counts


def vectorize_module(
    module: Module, config: Optional[VectorizeConfig] = None,
    strict: bool = False,
) -> List[Function]:
    """Run the Parsimony pass over every SPMD-annotated function.

    Graceful degradation (the pass "can be placed anywhere in the
    optimization pipeline", §4.2 — so it must never take the build down):
    when vectorizing a function fails, the whole function falls back to a
    correct sequential lane loop (:mod:`.scalarize`).  The degradation is
    recorded in :mod:`repro.telemetry` and the remaining functions still
    vectorize.  ``strict=True`` disables the fallback and re-raises the
    first failure (for tests and debugging).

    The only failure that still surfaces as a :class:`CompileError` is a
    function that can *neither* vectorize *nor* scalarize (a cross-lane
    horizontal intrinsic in a body the vectorizer rejected): there is no
    correct code to emit for it.
    """
    module.require_mutable("vectorize_module")
    results = []
    for function in list(module.functions.values()):
        if function.spmd is None or function.name.endswith(".scalarref"):
            continue
        try:
            results.append(vectorize_function(module, function, config))
        except ScalarizeError:
            raise
        except Exception as exc:
            if strict:
                raise
            _fall_back_to_scalar(module, function, exc)
    return results


def _fall_back_to_scalar(module: Module, function: Function,
                         exc: Exception) -> None:
    """Replace a failed vectorization with a scalarized lane loop.

    ``vectorize_function`` only normalizes its input (inlining, mem2reg,
    folding: semantics-preserving) before building the vector body in a
    function of its own, and splices only as its last step: the module
    still maps the name to the original, which the lane loop replaces in
    place."""
    name, gang_size = function.name, function.spmd.gang_size
    reason = _fallback_reason(exc)
    source = print_function(function)  # the kernel, as the pass saw it
    try:
        scalarize_spmd_function(function)
    except ScalarizeError as blocked:
        raise CompileError(
            f"@{name}: vectorization failed ({reason['message']}) and no "
            f"scalar fallback exists: {blocked.diagnostic.message}",
            stage="vectorizer",
            function=name,
            detail={"vectorize_error": reason, **blocked.diagnostic.detail},
        ) from exc

    function.attrs["parsimony_fallback"] = reason
    telemetry.record_fallback(module.name, name, gang_size, reason, source)


def _fallback_reason(exc: Exception) -> Dict[str, object]:
    """Structured record of why a function fell back to scalar code,
    including block/instruction provenance when the failure named one."""
    if isinstance(exc, ReproError):
        diag = exc.diagnostic
        stage = diag.stage or "vectorizer"
        message = diag.message.splitlines()[0] if diag.message else ""
        detail = dict(diag.detail)
        block = diag.block
        instruction = diag.instruction
    else:
        stage = "vectorizer"
        message = (str(exc) or type(exc).__name__).splitlines()[0]
        detail = {}
        block = ""
        instruction = ""
    return {
        "stage": stage,
        "error": type(exc).__name__,
        "message": message,
        "block": block,
        "instruction": instruction,
        "detail": detail,
    }
