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
  (name = ``"<function>:<block>"``); the only way to fail mid-emission,
  with a half-built vector function in hand, which ``vectorize_module``
  must discard before degrading the whole function (the failure's
  record names the block);
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

No site sits in codegen: ``Interpreter.run`` never arms generated code
while a plan is active (a replay would fire a one-shot plan twice), and a
codegen failure needs no forcing — valid source reaches it (a function
above ``MAX_CODEGEN_INSTRS``, or nested deeper than ``compile()`` takes),
and the launch replays whole on the reference engine.

Usage::

    with faultinject.inject(FaultPlan(site="vectorize", match="mandelbrot")):
        module = compile_parsimony(src)      # falls back to scalar
    # plans are popped and pipeline caches reset on exit

Injection state is process-global and re-entrant (plans nest and restore).
While any plan is active the driver's compile cache is bypassed, so
injected failures can never leak into — or be masked by — cached modules.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .diagnostics import CompileError

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "inject",
    "active",
    "maybe_fail",
    "maybe_corrupt",
]


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
