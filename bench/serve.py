"""The operations the benchmark times, and the probes a traced run adds.

Everything a request calls is public surface of the library:
``repro.compile_parsimony``, ``repro.Interpreter(module, codegen=True)``,
its ``memory``, ``run``, ``reset_stats``, ``stats`` and ``codegen_report``.
The probes of a traced run reach further (the functions the driver stages
a compile from); each is looked up when used, and a stage that is gone or
no longer takes these arguments ends the probe, never the request.
"""

from __future__ import annotations

from typing import Dict, List

from .oracle import bind_inputs, read_outputs
from .trace import Tracer


def serve_request(spec, workload, tr: Tracer):
    """One request: PsimC source in, output arrays out.

    Returns ``(module, interp, addrs, outputs)``; the first three are for
    the probes and the verifier, which run outside the ``request`` span.
    """
    import repro

    with tr.span("request"):
        with tr.span("compile"):
            module = repro.compile_parsimony(
                spec.psim_src, module_name=f"{spec.name}.parsimony")
        with tr.span("vm.construct"):
            interp = repro.Interpreter(module, codegen=True)
        with tr.span("vm.alloc"):
            addrs = bind_inputs(interp, workload)
        with tr.span("vm.first_run"):
            returned = interp.run("kernel", *addrs, *workload.scalars)
        with tr.span("vm.readback"):
            outputs = read_outputs(interp, workload, addrs, returned)
    return module, interp, addrs, outputs


def restore_inputs(interp, addrs, workload) -> None:
    for addr, array in zip(addrs, workload.arrays):
        interp.memory.write_array(addr, array)
    interp.reset_stats()


def serve_launch(interp, addrs, workload, tr: Tracer) -> List:
    """One launch on an interpreter that is already compiled and bound."""
    with tr.span("request"):
        with tr.span("vm.alloc"):
            restore_inputs(interp, addrs, workload)
        with tr.span("vm.exec"):
            returned = interp.run("kernel", *addrs, *workload.scalars)
        with tr.span("vm.readback"):
            outputs = read_outputs(interp, workload, addrs, returned)
    return outputs


def traced_request(spec, workload, tr: Tracer):
    """``serve_request`` and, after it, the probes that attribute it: a bare
    clone of the module it got, a steady re-run on the interpreter it built
    and, when it missed the compile cache, that compile staged by hand.

    The probes follow the request so that it meets the caches as an untraced
    one would; in a fresh process the staged compile therefore runs warm, and
    what a cold compile pays once (lazy imports, SMT rule checks) shows in
    ``compile.unattributed_ms``.
    """
    from repro.driver import compile_cache_stats

    misses = compile_cache_stats()["misses"]
    module, interp, addrs, outputs = serve_request(spec, workload, tr)
    missed = compile_cache_stats()["misses"] > misses
    compile_span = next(s for s in reversed(tr.spans) if s["name"] == "compile")
    compile_span["name"] = "compile.miss" if missed else "compile_cache.handout"
    counts = (interp.stats.cycles, interp.stats.instructions)
    with tr.span("probe"):
        try:
            from repro.passes.clone import clone_module
        except ImportError:
            clone_module = None
        if clone_module is not None:
            with tr.span("clone"):
                clone_module(module)
        restore_inputs(interp, addrs, workload)
        with tr.span("vm.exec"):
            interp.run("kernel", *addrs, *workload.scalars)
    if missed:
        probe_miss(spec, tr)
    return interp, addrs, outputs, counts


def ir_instrs(module) -> int:
    return sum(1 for function in module.functions.values()
               for _ in function.instructions())


def _frontend(module, spec):
    from repro.frontend import compile_source
    return compile_source(spec.psim_src, f"{spec.name}.parsimony"), {}


def _passes(module, spec):
    from repro.passes import standard_pipeline
    standard_pipeline().run(module)
    return module, {}


def _vectorizer(module, spec):
    from repro.vectorizer import vectorize_module
    vectorize_module(module, None, strict=False)
    fallbacks = sum(
        1 for function in module.functions.values()
        if "parsimony_fallback" in function.attrs
        or "parsimony_partial_fallback" in function.attrs)
    return module, {"fallbacks": fallbacks}


def _cleanup(module, spec):
    from repro.driver import post_vectorize_cleanup
    post_vectorize_cleanup(module)
    return module, {}


def _batch(module, spec):
    from repro.backend.batch import batch_module
    from repro.passes.clone import clone_module
    clone_module(module)  # the trap-replay twin the driver keeps
    report = batch_module(module, None)
    return module, {"applied": len(report["applied"]),
                    "rejected": len(report["rejected"])}


#: What ``compile_parsimony`` does on a miss, in order (span names are
#: ``trace.STAGES``).
_MISS_STAGES = (("frontend", _frontend), ("passes", _passes),
                ("vectorizer", _vectorizer), ("cleanup", _cleanup),
                ("batch", _batch))


def probe_miss(spec, tr: Tracer) -> None:
    """Stage a compile by hand, one span per layer; the result is dropped."""
    module = None
    with tr.span("probe.miss"):
        for name, stage in _MISS_STAGES:
            with tr.span(name) as span:
                try:
                    module, extra = stage(module, spec)
                except Exception as exc:  # a later refactor moved the stage
                    span["name"] = f"{name}.unmeasured"
                    span["error"] = repr(exc)
                    return
            span.update(extra)
            if name != "batch":
                span["ir_instrs"] = ir_instrs(module)


def codegen_counts(interp) -> Dict[str, int]:
    report = interp.codegen_report()
    return {"compiles": report["compiles"], "cache_hits": report["cache_hits"],
            "replays": report["replays"],
            "bailouts": sum(report["bailouts"].values())}
