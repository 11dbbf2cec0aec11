"""``repro.vectorizer`` — the Parsimony SPMD-to-SIMD vectorization pass.

This is the paper's primary contribution (§4.2): a standalone IR-to-IR
pass that rewrites SPMD-annotated functions into gang-wide vector code —
shape analysis with SMT-verified transformation rules, mask-based control
flow linearization, and shape-directed instruction transformation.

``vectorize_module`` is the entry point used by the compilation drivers
(``repro.driver``): it can be placed anywhere in the scalar optimization
pipeline, which is the integration property the paper argues for.

Degradation is two-tiered.  When vectorizing a function fails at a known
block, the *region-granular* fallback (:mod:`.regions`) outlines the
minimal single-entry region around the failure into a scalar helper and
retries, so the rest of the function still vectorizes; only when no such
region exists (or the failure carries no block provenance) does the
whole function drop to the sequential lane loop of :mod:`.scalarize`.
"""

from typing import Dict, List, Optional

from .. import faultinject, telemetry
from ..diagnostics import CompileError, ReproError
from ..ir.module import Function, Module
from ..ir.verifier import verify_function
from ..passes import constant_fold, dce, loop_simplify, mem2reg, simplify_cfg
from ..passes.clone import clone_function
from ..passes.inline import inline_function_calls
from .regions import RegionError, compute_fallback_region, outline_region
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
    "vectorize_function",
    "vectorize_module",
]

#: Cap on outlined regions per function before giving up on partial
#: fallback: each attempt re-runs normalization plus the vectorizer, and a
#: function defeating the pass this many times is better off whole-scalar.
_MAX_PARTIAL_REGIONS = 8


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


def _vectorize_normalized(module: Module, function: Function, config: VectorizeConfig):
    """Run shape analysis + the vectorizer on an already-normalized
    function; returns ``(vectorized, vectorizer, analysis)`` without
    splicing anything into the module."""
    analysis = ShapeAnalysis(
        function,
        function.spmd.gang_size,
        assume_nsw=config.assume_nsw,
        enabled=config.enable_shape_analysis,
    )
    vectorizer = Vectorizer(module, function, analysis, config)
    vectorized = vectorizer.run()
    constant_fold(vectorized)
    dce(vectorized)
    verify_function(vectorized)
    return vectorized, vectorizer, analysis


def _splice_and_record(
    module: Module,
    name: str,
    scalar_source: Function,
    vectorized: Function,
    vectorizer: Vectorizer,
    analysis: ShapeAnalysis,
) -> None:
    """Install ``vectorized`` under ``name``; keep ``scalar_source`` as
    ``<name>.scalarref`` for inspection; rewire all call sites."""
    registered = module.functions.pop(name)
    scalar_source.name = name + ".scalarref"
    module.functions[scalar_source.name] = scalar_source
    vectorized.name = name
    module.functions[name] = vectorized
    registered.replace_all_uses_with(vectorized)  # rewire gang-loop callers
    if registered is not scalar_source:
        _discard_clone(registered)
    vectorized.attrs["parsimony_warnings"] = vectorizer.warnings

    counters = {
        "shapes": _shape_counts(analysis),
        "memory_forms": dict(vectorizer.memform_counts),
        "mask_ops": _mask_op_counts(vectorized),
    }
    vectorized.attrs["parsimony_telemetry"] = counters
    telemetry.record_vectorization(
        name,
        scalar_source.spmd.gang_size,
        counters["shapes"],
        counters["memory_forms"],
        counters["mask_ops"],
        vectorizer.warnings,
    )


def vectorize_function(
    module: Module, function: Function, config: Optional[VectorizeConfig] = None
) -> Function:
    """Vectorize one SPMD-annotated function and splice it into the module.

    The scalar original is kept (renamed ``<name>.scalarref``) for
    inspection; every call site is rewired to the vector version, which
    takes over the original name.
    """
    config = config or VectorizeConfig()
    faultinject.maybe_fail("vectorize", function.name)
    _normalize_spmd_function(function)
    vectorized, vectorizer, analysis = _vectorize_normalized(module, function, config)
    _splice_and_record(
        module, function.name, function, vectorized, vectorizer, analysis
    )
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
    optimization pipeline", §4.2 — so it must never take the build down)
    is two-tiered.  When vectorizing a function fails:

    1. if the failure names a block, the minimal single-entry region
       around it is outlined into a scalar helper (:mod:`.regions`) and
       vectorization retries — supported blocks keep their vector forms
       and only the offending region runs one lane at a time;
    2. otherwise (or when no partial region exists), the whole function
       falls back to a correct sequential lane loop (:mod:`.scalarize`).

    Either way the degradation is recorded in :mod:`repro.telemetry` and
    the remaining functions still vectorize.  ``strict=True`` disables
    both fallbacks and re-raises the first failure (for tests and
    debugging).

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
        name = function.name
        # Pristine snapshot: vectorize_function mutates the input in place
        # (inlining, mem2reg, ...) before building the vector body, so the
        # fallback must restore from an untouched copy.
        pristine = clone_function(function, name + ".fallback")
        try:
            results.append(vectorize_function(module, function, config))
        except ScalarizeError:
            raise
        except Exception as exc:
            if strict:
                raise
            partial = _try_partial_fallback(
                module, name, function, pristine, exc, config
            )
            if partial is not None:
                results.append(partial)
            else:
                _fall_back_to_scalar(module, name, function, pristine, exc)
        else:
            _discard_clone(pristine)
    return results


def _discard_clone(clone: Function) -> None:
    """Unregister a never-used pristine clone's def-use edges (its
    instructions hold uses of constants/externals shared with the module)."""
    for block in list(clone.blocks):
        clone.remove_block(block)


def _failing_block(exc: Exception, function_name: str) -> Optional[str]:
    """The scalar block the vectorizer was emitting when ``exc`` was
    raised, or None when the failure carries no usable block provenance
    (pre-normalization faults, verifier rejections of the *output*
    function, shape-analysis inconsistencies)."""
    if not isinstance(exc, ReproError):
        return None
    diag = exc.diagnostic
    if diag.function != function_name or not diag.block:
        return None
    return diag.block


def _try_partial_fallback(
    module: Module,
    name: str,
    function: Function,
    pristine: Function,
    exc: Exception,
    config: Optional[VectorizeConfig],
) -> Optional[Function]:
    """Attempt region-granular degradation after ``vectorize_function``
    failed.  Returns the spliced vectorized function on success, or None —
    with the module restored to its pre-attempt state — when the caller
    should fall back whole-function."""
    config = config or VectorizeConfig()
    block = _failing_block(exc, name)
    if block is None:
        return None

    # Work on a fresh clone of the pristine body: ``function`` was already
    # mutated by the failed attempt.  Normalization is deterministic, so
    # the failing block name resolves against the re-normalized clone.
    working = clone_function(pristine, name + ".partial")
    helpers: List[Function] = []
    regions: List[Dict[str, object]] = []

    def give_up() -> None:
        for helper in helpers:
            module.functions.pop(helper.name, None)
            _discard_clone(helper)
        _discard_clone(working)
        return None

    try:
        _normalize_spmd_function(working)
    except Exception:
        return give_up()
    blocks_total = len(working.blocks)
    instrs_total = sum(len(b.instructions) for b in working.blocks)

    for _ in range(_MAX_PARTIAL_REGIONS):
        try:
            region = compute_fallback_region(working, block)
            outlined = outline_region(module, working, region, len(helpers))
        except Exception:
            return give_up()  # RegionError or an unexpected outliner failure
        helpers.append(outlined.function)
        regions.append(
            {
                "helper": outlined.function.name,
                "entry": outlined.entry,
                "blocks": outlined.blocks,
                "blocks_scalarized": outlined.blocks_scalarized,
                "instrs_scalarized": outlined.instrs_scalarized,
                "reason": _fallback_reason(exc),
            }
        )
        try:
            _normalize_spmd_function(working)
            vectorized, vectorizer, analysis = _vectorize_normalized(
                module, working, config
            )
        except Exception as retry_exc:
            exc = retry_exc
            block = _failing_block(exc, working.name)
            if block is None:
                return give_up()
            continue

        # Success: splice the mixed vector/scalar result into the module.
        gang_size = working.spmd.gang_size
        _splice_and_record(module, name, working, vectorized, vectorizer, analysis)
        _discard_clone(pristine)
        blocks_scalarized = sum(r["blocks_scalarized"] for r in regions)
        instrs_scalarized = sum(r["instrs_scalarized"] for r in regions)
        info = {
            "regions": regions,
            "blocks_total": blocks_total,
            "blocks_scalarized": blocks_scalarized,
            "instrs_total": instrs_total,
            "instrs_scalarized": instrs_scalarized,
            # Fractions are measured against the normalized pre-outline
            # body; later outlines count helper instructions (incl. seam
            # stubs), so clamp at 1.0.
            "block_fraction": min(1.0, blocks_scalarized / max(1, blocks_total)),
            "instr_fraction": min(1.0, instrs_scalarized / max(1, instrs_total)),
        }
        vectorized.attrs["parsimony_partial_fallback"] = info
        telemetry.record_partial_fallback(module.name, name, gang_size, info)
        return vectorized

    return give_up()


def _fall_back_to_scalar(
    module: Module, name: str, function: Function, pristine: Function,
    exc: Exception,
) -> None:
    """Replace a failed vectorization with a scalarized lane loop."""
    gang_size = pristine.spmd.gang_size
    reason = _fallback_reason(exc)

    # Undo whatever the failed attempt left in the module.  The splice in
    # vectorize_function happens only after verification, so normally the
    # module still maps ``name`` to the (mutated) original; handle the
    # post-splice window too for completeness.
    stale = set()
    for key in (name, name + ".scalarref"):
        left = module.functions.pop(key, None)
        if left is not None and left is not pristine:
            stale.add(left)
    stale.add(function)

    pristine.name = name
    module.add_function(pristine)
    for old in stale:
        old.replace_all_uses_with(pristine)  # rewire gang-loop call sites
        _discard_clone(old)

    try:
        scalarize_spmd_function(pristine)
    except ScalarizeError as blocked:
        raise CompileError(
            f"@{name}: vectorization failed ({reason['message']}) and no "
            f"scalar fallback exists: {blocked.diagnostic.message}",
            stage="vectorizer",
            function=name,
            detail={"vectorize_error": reason, **blocked.diagnostic.detail},
        ) from exc

    pristine.attrs["parsimony_fallback"] = reason
    telemetry.record_fallback(module.name, name, gang_size, reason)


def _fallback_reason(exc: Exception) -> Dict[str, object]:
    """Structured record of why a function (or region) fell back to scalar
    code, including block/instruction provenance when the failure named
    one."""
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
