"""Bounded model checking of shape-transformation rules.

The paper verifies its conditional shape transformations with z3 in an
offline phase, then checks only the (cheap) preconditions online during
compilation (§4.2.2).  With no SMT solver available offline here, we
substitute *exhaustive bounded model checking over small bit-vectors*:
every rule identity is checked for **all** valuations at a reduced width
(plus randomized sampling at full width), which is sound for the
bit-vector fragment these rules live in at the checked widths, and gives
the same workflow: a rule must pass ``verify_rule`` before the analysis
may apply it, and the analysis still evaluates each rule's precondition
against the tracked facts before every application.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..diagnostics import CompileError

__all__ = [
    "RuleSpec",
    "verify_rule",
    "CounterExample",
    "SMTError",
    "SMTTimeout",
    "SMTUnavailable",
    "rule_usable",
    "reset_rule_cache",
]


class SMTError(CompileError):
    """The rule-verification layer failed (distinct from a counterexample)."""

    default_stage = "smt"


class SMTTimeout(SMTError):
    """Rule verification exceeded its time budget."""


class SMTUnavailable(SMTError):
    """No verification backend / no such rule is available."""


@dataclass
class CounterExample(Exception):
    """A valuation under which a rule's identity fails."""

    rule: str
    assignment: dict

    def __str__(self) -> str:  # pragma: no cover
        return f"rule {self.rule!r} fails for {self.assignment}"


@dataclass
class RuleSpec:
    """A conditional rewrite over bit-vectors.

    ``variables`` names the free bit-vector variables; ``parameters`` names
    compile-time parameters with explicit candidate values (e.g. shift
    amounts, mask widths).  ``precondition``, ``lhs`` and ``rhs`` all
    receive ``(env, bits)`` where ``env`` maps names to ints; the identity
    is ``precondition ⟹ lhs ≡ rhs (mod 2^bits)``.
    """

    name: str
    variables: Sequence[str]
    lhs: Callable
    rhs: Callable
    precondition: Callable = lambda env, bits: True
    parameters: Callable = lambda bits: [{}]  # yields param dicts


def verify_rule(rule: RuleSpec, bits: int = 6, samples_at: int = 64, samples: int = 4000,
                seed: int = 0, deadline: Optional[float] = None) -> None:
    """Exhaustively check ``rule`` at ``bits`` width, then randomly sample at
    ``samples_at`` width.  Raises :class:`CounterExample` on failure and
    :class:`SMTTimeout` when ``deadline`` (a ``time.monotonic`` instant)
    passes before the check completes."""
    mask = (1 << bits) - 1
    space = range(1 << bits)
    checked = 0
    for params in rule.parameters(bits):
        for values in itertools.product(space, repeat=len(rule.variables)):
            env = dict(zip(rule.variables, values))
            env.update(params)
            _check_one(rule, env, bits, mask)
            checked = _poll_deadline(rule, checked, deadline)

    rng = random.Random(seed)
    mask64 = (1 << samples_at) - 1
    for params in rule.parameters(samples_at):
        for _ in range(samples):
            env = {v: rng.getrandbits(samples_at) for v in rule.variables}
            env.update(params)
            _check_one(rule, env, samples_at, mask64)
            checked = _poll_deadline(rule, checked, deadline)


def _poll_deadline(rule: RuleSpec, checked: int, deadline: Optional[float]) -> int:
    checked += 1
    if deadline is not None and checked % 256 == 0 and time.monotonic() > deadline:
        raise SMTTimeout(
            f"verification of rule {rule.name!r} exceeded its time budget",
            detail={"rule": rule.name},
        )
    return checked


def _check_one(rule: RuleSpec, env: dict, bits: int, mask: int) -> None:
    if not rule.precondition(env, bits):
        return
    lhs = rule.lhs(env, bits) & mask
    rhs = rule.rhs(env, bits) & mask
    if lhs != rhs:
        raise CounterExample(rule.name, dict(env))


# -- online usability gate ----------------------------------------------------------
#
# The shape analysis consults ``rule_usable`` before applying any
# *conditional* transformation rule.  The paper's workflow assumes an
# offline z3 phase that can time out or be absent; the guard maps every
# such failure to "the rule is not usable", so the analysis conservatively
# classifies the value as varying instead of raising.  Verdicts are cached
# per process; fault injection (site ``"smt"``) can force a timeout or an
# unavailable backend, and ``inject()`` resets this cache on exit so
# poisoned verdicts cannot outlive the injection block.

_RULE_STATUS: Dict[str, bool] = {}

#: Quick-probe budget: exhaustive at 4 bits plus a few full-width samples.
#: Measured, a probe takes 2-130 ms depending on the rule's variable and
#: parameter count (``add_indexed`` is the slowest), once per process and
#: rule.  ``xor_low_mask`` (about 23 ms) is the only rule any of the 79
#: benchsuite kernels probes, and no fig4 kernel probes any.  The
#: wall-clock ceiling exists for pathological rules and injected timeouts.
_PROBE_BUDGET_SECONDS = 0.25


def reset_rule_cache() -> None:
    """Drop all cached rule verdicts (tests, fault-injection cleanup)."""
    _RULE_STATUS.clear()


def rule_usable(name: str, budget_seconds: float = _PROBE_BUDGET_SECONDS) -> bool:
    """May the shape analysis apply conditional rule ``name``?

    False when the rule is unknown, its verification times out or is
    unavailable, or a counterexample shows up at probe widths — in every
    case the caller degrades to ``varying`` rather than raising.
    """
    cached = _RULE_STATUS.get(name)
    if cached is not None:
        return cached
    try:
        from .. import faultinject

        faultinject.maybe_fail("smt", name)
        from . import rules as _rules

        rule = _rules.RULES.get(name)
        if rule is None:
            raise SMTUnavailable(
                f"no verified rule named {name!r}", detail={"rule": name}
            )
        verify_rule(
            rule, bits=4, samples_at=64, samples=128,
            deadline=time.monotonic() + budget_seconds,
        )
        usable = True
    except (SMTTimeout, SMTUnavailable, CounterExample):
        usable = False
    _RULE_STATUS[name] = usable
    return usable
