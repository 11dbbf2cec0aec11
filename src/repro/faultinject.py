"""``repro.faultinject`` — deterministic fault injection for the pipeline.

Robustness claims need falsifiable tests: the graceful-degradation path in
``vectorize_module`` and the paranoid inter-pass verifier only earn trust
if a test can *force* the failures they guard against and then check the
outcome (scalar-identical results, accurate diagnostics).  This module
plants cheap hooks at the pipeline's failure points and fires them
deterministically according to an explicit plan — no randomness, no
environment variables, no monkeypatching.

Hook sites (the ``site`` of a :class:`FaultPlan`):

* ``"vectorize"`` — entry of ``vectorize_function`` (name = function name);
* ``"vectorize_block"`` — before each basic block is vectorized
  (name = ``"<function>:<block>"``); the failure carries block-level
  provenance, so ``vectorize_module`` attempts region-granular fallback
  instead of degrading the whole function;
* ``"mathlib"``   — inside every ``ml.*`` math-external implementation
  (name = the external's full name, e.g. ``"ml.exp.f32"`` or
  ``"ml.sleef.pow.f32x8"``); survives disk-cache rehydration;
* ``"costmodel"`` — entry of ``CostModel.cost`` (name = instruction opcode);
* ``"pass"``      — before each optimization pass runs
  (name = ``"<pass>:<function>"``);
* ``"verify"``    — entry of ``verify_function`` (name = function name);
* ``"smt"``       — entry of the SMT rule probe (name = rule name);
* ``"memory"``    — inside ``vm.Memory`` bounds checks (name = ``"check"``
  for scalar accesses, ``"lanes"`` for vector accesses);
* ``"corrupt"``   — after each pass, *silently corrupts the IR* instead of
  raising (drops the entry block's terminator), so tests can prove the
  paranoid verifier catches miscompiles and names the offending pass.

Worker sites (consumed by :mod:`repro.shard`'s supervisor, never raised
in-process — the supervisor polls :func:`should_fire` at each shard
dispatch and ships the directive to the worker with the job, so a plan's
state survives the worker it kills):

* ``"worker_crash"``   — the worker ``os._exit``\\ s after computing the
  shard but before shipping it (SIGKILL/OOM stand-in);
* ``"worker_hang"``    — the worker stalls until the supervisor's
  per-shard deadline kills it;
* ``"worker_corrupt"`` — the worker flips a byte in the shard's staged
  memory delta *after* checksumming, so the supervisor must catch the
  mismatch and discard the staging slice;
* ``"ipc_drop"``       — the worker computes the shard but never sends the
  result (a lost message).

For all four the qualified name is ``"<label>:<shard_index>"``.

Usage::

    with faultinject.inject(FaultPlan(site="vectorize", match="mandelbrot")):
        module = compile_parsimony(src)      # falls back to scalar
    # plans are popped and pipeline caches reset on exit

Injection state is process-global and re-entrant (plans nest and restore).
While any plan is active the driver's compile cache is bypassed, so
injected failures can never leak into — or be masked by — cached modules.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .diagnostics import CompileError, emit_warning

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "WORKER_SITES",
    "armed_sites",
    "inject",
    "active",
    "maybe_fail",
    "maybe_corrupt",
    "plans_from_env",
    "should_fire",
]

#: Sites decided supervisor-side and obeyed by shard workers; these are the
#: only sites that may stay armed while a launch runs sharded (any other
#: armed site would fire once per *worker* instead of once per run).
WORKER_SITES = frozenset(
    {"worker_crash", "worker_hang", "worker_corrupt", "ipc_drop"}
)


class InjectedFault(CompileError):
    """The error raised by a fired fault plan (unless the plan overrides it)."""

    default_stage = "faultinject"


@dataclass
class FaultPlan:
    """When and where to fire one deterministic fault.

    A plan matches a hook when ``site`` equals the hook's site and ``match``
    is a substring of the hook's qualified name (empty matches everything).
    The first ``after`` matches are skipped; after that the plan fires on
    every match, at most ``times`` times (``None`` = unlimited).  ``exc``
    optionally builds the exception to raise from the qualified name
    (default: :class:`InjectedFault`).
    """

    site: str
    match: str = ""
    after: int = 0
    times: Optional[int] = None
    exc: Optional[Callable[[str], BaseException]] = None
    # bookkeeping, readable by tests after the run
    hits: int = 0
    fired: int = 0


@dataclass
class _InjectionState:
    plans: List[FaultPlan]
    log: List[Dict[str, str]] = field(default_factory=list)


_state: Optional[_InjectionState] = None


def active() -> bool:
    """True when any fault plan is armed (drivers bypass caches then)."""
    return _state is not None and bool(_state.plans)


def armed_sites() -> List[str]:
    """The sites of every armed plan (empty when nothing is armed).

    :mod:`repro.shard` refuses to shard while any *non-worker* site is
    armed — a ``memory``/``mathlib``/``costmodel`` plan would otherwise
    fire independently in every worker process instead of exactly as many
    times as the in-process engine would fire it.
    """
    if _state is None:
        return []
    return [plan.site for plan in _state.plans]


def fired_log() -> List[Dict[str, str]]:
    """Every fault fired under the innermost active ``inject`` block."""
    return list(_state.log) if _state is not None else []


@contextmanager
def inject(*plans: FaultPlan) -> Iterator[_InjectionState]:
    """Arm ``plans`` for the dynamic extent of the block.

    On exit the previous injection state is restored and pipeline caches
    that could have been poisoned by injected failures (the SMT rule-status
    cache) are reset.
    """
    global _state
    previous = _state
    _state = _InjectionState(list(plans))
    try:
        yield _state
    finally:
        _state = previous
        from .vectorizer import smt

        smt.reset_rule_cache()


def _matching_plan(site: str, name: str) -> Optional[FaultPlan]:
    state = _state
    if state is None:
        return None
    for plan in state.plans:
        if plan.site != site:
            continue
        if plan.match and plan.match not in name:
            continue
        plan.hits += 1
        if plan.hits <= plan.after:
            continue
        if plan.times is not None and plan.fired >= plan.times:
            continue
        plan.fired += 1
        state.log.append({"site": site, "name": name})
        return plan
    return None


def maybe_fail(site: str, name: str = "") -> None:
    """Raise if an armed plan matches ``(site, name)``; no-op otherwise."""
    if _state is None:  # nothing armed: the hot path of every hooked site
        return
    plan = _matching_plan(site, name)
    if plan is None:
        return
    if plan.exc is not None:
        raise plan.exc(name)
    raise InjectedFault(
        f"injected fault at {site}:{name or '<any>'}",
        detail={"site": site, "name": name},
    )


def should_fire(site: str, name: str = "") -> bool:
    """Consume one firing of a matching plan without raising.

    The shard supervisor polls this at each dispatch (worker sites are
    *decisions*, not exceptions): a ``True`` return has consumed one of the
    plan's ``times`` and logged the firing, exactly like
    :func:`maybe_fail`, so a bounded plan lets the retry of the shard it
    killed succeed.
    """
    return _matching_plan(site, name) is not None


def plans_from_env(raw: Optional[str] = None) -> List[FaultPlan]:
    """Parse ``REPRO_FAULT_PLAN`` into :class:`FaultPlan`\\ s (for CI).

    Grammar: plans separated by ``;``, each ``site[:match[:after[:times]]]``
    — e.g. ``worker_crash::0:1;worker_hang:stencil:0:1`` arms one crash on
    the first dispatch of any shard plus one hang on a stencil shard.
    Malformed entries emit a structured :class:`ReproWarning` and are
    skipped; they never take the run down.
    """
    if raw is None:
        raw = os.environ.get("REPRO_FAULT_PLAN", "")
    plans: List[FaultPlan] = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        site = parts[0].strip()
        try:
            if not site:
                raise ValueError("empty site")
            match = parts[1] if len(parts) > 1 else ""
            after = int(parts[2]) if len(parts) > 2 and parts[2] else 0
            times = int(parts[3]) if len(parts) > 3 and parts[3] else None
            if after < 0 or (times is not None and times < 0):
                raise ValueError("negative after/times")
        except ValueError:
            emit_warning(
                f"unparsable REPRO_FAULT_PLAN entry {chunk!r} "
                "(expected site[:match[:after[:times]]]); skipping it",
                stage="faultinject",
                detail={"variable": "REPRO_FAULT_PLAN", "value": chunk},
            )
            continue
        plans.append(FaultPlan(site=site, match=match, after=after, times=times))
    return plans


def maybe_corrupt(name: str, function) -> bool:
    """Fire a ``"corrupt"`` plan by damaging ``function``'s IR in place.

    Drops the terminator of the function's entry block — the kind of damage
    a buggy pass could cause — and returns True.  Nothing is raised; the
    point is to prove that inter-pass verification catches the corruption
    and attributes it to the right pass.
    """
    plan = _matching_plan("corrupt", name)
    if plan is None:
        return False
    entry = function.entry
    term = entry.terminator
    if term is not None:
        # Not ``erase()``: a terminator can have uses bookkeeping via its
        # block operands only, which drop_operands cleans up.
        entry.instructions.remove(term)
        term.parent = None
        term.drop_operands()
    return True
