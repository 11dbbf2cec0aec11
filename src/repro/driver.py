"""Compilation drivers: the five configurations the paper measures (§5).

* ``compile_scalar``    — "LLVM scalar": front-end + scalar -O pipeline,
  no vectorization of any kind (Figure 5's baseline denominator).
* ``compile_autovec``   — "LLVM auto-vectorization": scalar pipeline plus
  the classical loop auto-vectorizer (Figures 4 and 5 baseline).
* ``compile_parsimony`` — the Parsimony flow: scalar pipeline with the
  SPMD IR-to-IR vectorization pass (SLEEF math).
* ``compile_ispc``      — the ispc-style flow (see ``repro.ispc``).
* hand-written kernels are built directly against ``repro.simd``'s
  intrinsics API, needing no driver.

``execute`` runs a compiled function on a machine and returns its result
plus :class:`~repro.backend.machine.ExecStats` (the measurement harness).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from . import autotune, diskcache, faultinject
from .backend.batch import batch_module, batching_request
from .backend.codegen import clear_code_cache
from .backend.costmodel import CostModel
from .backend.machine import AVX512, ExecStats, Machine
from .frontend import compile_source
from .ir.module import Module
from .ir.verifier import verify_module
from .ispc import ispc_compile
from .passes import standard_pipeline
from .vectorizer import VectorizeConfig, vectorize_module
from .vm import Interpreter, Memory

__all__ = [
    "compile_scalar",
    "compile_autovec",
    "compile_parsimony",
    "compile_ispc",
    "execute",
    "clear_compile_cache",
    "compile_cache_stats",
    "set_compile_cache",
    "set_disk_cache",
    "disk_cache_stats",
]


# -- content-keyed compile cache ------------------------------------------------------
#
# The five paper configurations recompile identical kernels for every
# benchmark repetition; compilation is pure in (flow, source, machine,
# config), so results are memoized on that content key.  A hit hands out
# the cached module *itself*, in O(1): it was sealed by ``Module.freeze``
# at insertion, so a caller cannot poison later hits — an in-place pass
# fails at its first write (``FrozenModuleError``) instead of being
# absorbed by a private deep copy nobody asked for.  One contract for
# every ``compile_*`` result, cached or not: frozen; the rare caller that
# transforms IR takes ``clone_module(module)``.  What hangs off a function
# object downstream (codegen emissions) is therefore shared by every user
# of a kernel and dies with its cache entry.

_COMPILE_CACHE: "OrderedDict[tuple, Module]" = OrderedDict()
_COMPILE_CACHE_CAPACITY = 64
_COMPILE_CACHE_ENABLED = True
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def set_compile_cache(enabled: bool) -> None:
    """Globally enable/disable compile memoization (enabled by default)."""
    global _COMPILE_CACHE_ENABLED
    _COMPILE_CACHE_ENABLED = enabled
    if not enabled:
        _COMPILE_CACHE.clear()


def clear_compile_cache() -> None:
    """Drop all cached modules — and the code objects compiled from their
    generated sources — and zero the hit/miss counters."""
    _COMPILE_CACHE.clear()
    clear_code_cache()
    _COMPILE_CACHE_STATS["hits"] = 0
    _COMPILE_CACHE_STATS["misses"] = 0


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters plus current entry count (for telemetry)."""
    return {
        "hits": _COMPILE_CACHE_STATS["hits"],
        "misses": _COMPILE_CACHE_STATS["misses"],
        "entries": len(_COMPILE_CACHE),
    }


def set_disk_cache(enabled: Optional[bool]) -> None:
    """Enable/disable the persistent on-disk cache layer.

    ``None`` defers to the ``REPRO_DISK_CACHE`` environment variable (the
    default).  Entries live under ``$REPRO_CACHE_DIR`` (default
    ``~/.cache/repro``); see :mod:`repro.diskcache`.
    """
    diskcache.set_enabled(enabled)


def disk_cache_stats() -> Dict[str, int]:
    """Disk-layer hit/miss/write/error counters (kept separate from
    :func:`compile_cache_stats` so existing in-memory expectations hold)."""
    return diskcache.stats()


def _verified(module: Module) -> Module:
    """The one whole-module verification of a compile.  The pass manager
    re-verifies a function only after a pass that reported a change, and
    the stages that follow it (vector cleanup, gang batching) verify
    nothing; whatever they — or a pass whose ``False`` was a lie — left
    behind is checked here, once, before the module is sealed."""
    verify_module(module)
    return module


def _cached_compile(key: tuple, build: Callable[[], Module]) -> Module:
    # Armed fault plans make compilation impure: neither serve a module
    # compiled before the faults were armed, nor let a fault-degraded
    # module poison the cache for later clean compiles.
    if not _COMPILE_CACHE_ENABLED or faultinject.active():
        return _verified(build()).freeze()
    cached = _COMPILE_CACHE.get(key)
    if cached is None:
        _COMPILE_CACHE_STATS["misses"] += 1
        cached = diskcache.load(key)
        if cached is None:
            cached = _verified(build())
            diskcache.store(key, cached)
        _COMPILE_CACHE[key] = cached.freeze()
        if len(_COMPILE_CACHE) > _COMPILE_CACHE_CAPACITY:
            _COMPILE_CACHE.popitem(last=False)
    else:
        _COMPILE_CACHE_STATS["hits"] += 1
        _COMPILE_CACHE.move_to_end(key)
    return cached


def compile_scalar(source: str, module_name: str = "scalar") -> Module:
    """Front-end + scalar optimizations only (vectorization disabled)."""
    from .passes.inline import inline_module_calls

    def build() -> Module:
        module = compile_source(source, module_name)
        inline_module_calls(module)
        standard_pipeline().run(module)
        return module

    return _cached_compile(("scalar", source, module_name), build)


def compile_autovec(source: str, machine: Machine = AVX512,
                    module_name: str = "autovec", fast_math: bool = False) -> Module:
    """Scalar pipeline + classical loop auto-vectorization."""
    from .autovec import AutoVecConfig, auto_vectorize_module

    from .passes.inline import inline_module_calls

    def build() -> Module:
        module = compile_source(source, module_name)
        inline_module_calls(module)
        standard_pipeline().run(module)
        auto_vectorize_module(module, machine, AutoVecConfig(fast_math=fast_math))
        standard_pipeline().run(module)
        return module

    return _cached_compile(
        ("autovec", source, module_name, machine, fast_math), build
    )


#: Sentinel: ``compile_parsimony(batch_request=...)`` not passed — resolve
#: from the environment, then from the autotuner's pinned profile.
_BATCH_UNSET = object()


def compile_parsimony(source: str, config: Optional[VectorizeConfig] = None,
                      module_name: str = "parsimony",
                      strict: bool = False,
                      batch_request=_BATCH_UNSET) -> Module:
    """The Parsimony flow (§4): standard pipeline + the SPMD pass, then the
    back-end cleanup the paper relies on (re-inline the vectorized region
    into its gang loop, hoist per-gang-invariant setup).

    A function the vectorizer cannot handle degrades to a correct scalar
    lane loop (recorded in telemetry) instead of failing the compile;
    ``strict=True`` disables that fallback and re-raises the failure.

    ``batch_request`` pins the gang-batching configuration (``0`` = off,
    ``N`` = forced factor, ``None`` = cost-model auto).  When omitted it
    resolves from ``REPRO_BATCH``/``REPRO_NO_BATCH``; if those leave the
    choice on auto and the profile-guided tuner is enabled
    (``REPRO_AUTOTUNE=1``), a pinned measured winner for this kernel's
    content fingerprint — persisted across processes next to the disk
    cache — wins over the static cost model.
    """

    if batch_request is _BATCH_UNSET:
        batch_request = batching_request()
        if batch_request is None and autotune.enabled():
            pinned = autotune.pinned_request(
                autotune.fingerprint(source), autotune.engine_config()
            )
            if pinned is not None:
                batch_request = pinned

    config_key = None if config is None else dataclasses.astuple(config)
    return _cached_compile(
        ("parsimony", source, module_name, config_key, strict,
         ("batch", batch_request)),
        lambda: _build_parsimony(source, config, module_name, strict,
                                 batch_request),
    )


def _build_parsimony(source: str, config: Optional[VectorizeConfig],
                     module_name: str, strict: bool, batch_request) -> Module:
    """``compile_parsimony`` on a miss."""
    module = compile_source(source, module_name)
    standard_pipeline().run(module)
    vectorize_module(module, config, strict=strict)
    post_vectorize_cleanup(module)
    # Gang batching runs after the full pipeline, over final IR.  Skipped
    # under fault injection: fault plans are keyed to narrow external names
    # and one-shot plans must not be consumed by a replayed run.
    if batch_request != 0 and not faultinject.active():
        if batch_module(module, batch_request)["applied"]:
            # The trap-replay twin is this build with batching off.  Only
            # a launch that traps reads it, so the module carries the
            # recipe and ``unbatched_twin`` compiles it on the first trap.
            module.attrs["unbatched_recipe"] = functools.partial(
                _build_unbatched_twin, source, config, module_name, strict
            )
    return module


def _build_unbatched_twin(source: str, config: Optional[VectorizeConfig],
                          module_name: str, strict: bool) -> Module:
    return _verified(_build_parsimony(source, config, module_name, strict, 0))


def post_vectorize_cleanup(module: Module) -> None:
    """Re-inline vectorized SPMD functions into their gang loops (§4.1:
    "the vectorized function can later be re-inlined by the back-end") and
    run LICM + CSE so gang-invariant work leaves the per-gang loop."""
    from .passes import constant_fold, cse, dce, licm, narrow_ints, simplify_cfg
    from .passes.inline import inline_function_calls

    for function in list(module.functions.values()):
        if function.spmd is not None:
            continue
        inline_function_calls(
            function, should_inline=lambda callee: ".psim" in callee.name
        )
        constant_fold(function)
        simplify_cfg(function)
        # Vectorized selects/blends reintroduce widened trees; narrow again.
        narrow_ints(function)
        cse(function)
        licm(function)
        cse(function)
        dce(function)
        simplify_cfg(function)


def compile_ispc(source: str, machine: Machine = AVX512,
                 module_name: str = "ispc") -> Module:
    return _cached_compile(
        ("ispc", source, module_name, machine),
        lambda: ispc_compile(source, machine, module_name),
    )


def execute(
    module: Module,
    function: str,
    *args,
    machine: Machine = AVX512,
    memory: Optional[Memory] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[object, ExecStats, Interpreter]:
    """Run one function call and return (result, stats, interpreter)."""
    interp = Interpreter(module, machine=machine, memory=memory, cost_model=cost_model)
    result = interp.run(function, *args)
    return result, interp.stats, interp
