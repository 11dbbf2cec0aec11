"""Pass manager.

A deliberately plain pipeline runner: each pass is a callable
``(Function) -> bool`` (returning whether it changed anything), run over
every function in a module, optionally verifying after each pass.

A key claim of the paper is that the Parsimony vectorizer is a standalone
IR-to-IR pass that "can be placed anywhere in the optimization pipeline"
(§4.2) — the integration tests exercise exactly that by permuting this
pipeline around the vectorizer.

Verification levels:

* ``verify_each`` (default on) — verify the function a pass just ran on
  **when the pass reported a change** (or an injected ``corrupt`` fault
  fired): three quarters of pass applications change nothing, and IR
  that did not change was verified when it last did.  Failures are
  wrapped in :class:`PassVerificationError`, which names the offending
  pass and function in its diagnostic.  What this level trusts — a
  pass's ``False`` — the driver backstops by verifying every finished
  module once, and paranoid mode checks directly.
* *paranoid* — verify the **whole module** after every pass invocation,
  catching a pass that corrupts a function other than the one it was
  handed, and check that a pass returning ``False`` left the printed
  function byte-identical (so the condition ``verify_each`` skips on is
  itself verified).  Enable per-manager (``PassManager(...,
  paranoid=True)``), process-wide (:func:`set_paranoid`), or via the
  ``REPRO_PARANOID`` environment variable (any value but ``0``; this is
  what the CI paranoid job sets).  The environment default never
  *weakens* an explicit ``verify_each=False`` — managers that opted out
  of verification keep their opt-out unless paranoia is requested
  explicitly.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional

from .. import faultinject, telemetry
from ..envflags import env_flag
from ..ir.module import Function, Module
from ..ir.printer import print_function
from ..ir.verifier import VerificationError, verify_function, verify_module

__all__ = [
    "FunctionPass",
    "PassManager",
    "PassVerificationError",
    "paranoid_enabled",
    "set_paranoid",
]

FunctionPass = Callable[[Function], bool]


class PassVerificationError(VerificationError):
    """IR verification failed right after a named pass ran."""


_paranoid_override: Optional[bool] = None


def set_paranoid(enabled: Optional[bool]) -> None:
    """Process-wide paranoid default: True/False force it, None defers to
    the ``REPRO_PARANOID`` environment variable."""
    global _paranoid_override
    _paranoid_override = enabled


def paranoid_enabled() -> bool:
    """The process-wide paranoid default (override, else environment)."""
    if _paranoid_override is not None:
        return _paranoid_override
    return env_flag("REPRO_PARANOID")


def _pass_name(pass_: FunctionPass) -> str:
    return getattr(pass_, "__name__", None) or type(pass_).__name__


def _instr_count(function: Function) -> int:
    return sum(len(block.instructions) for block in function.blocks)


class PassManager:
    """Runs function passes over a module in order.

    When a :mod:`repro.telemetry` session is active, every pass invocation
    is timed and its IR-size delta recorded; with no session the
    instrumentation costs one module-global check per pass.
    """

    def __init__(self, passes: Optional[Iterable] = None, verify_each: bool = True,
                 paranoid: Optional[bool] = None):
        self.passes: List = list(passes or [])
        self.verify_each = verify_each
        #: None defers to the process-wide default at run time.
        self.paranoid = paranoid

    def add(self, pass_: FunctionPass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def _paranoid(self) -> bool:
        if self.paranoid is not None:
            return self.paranoid
        # The env default only upgrades managers that already verify.
        return self.verify_each and paranoid_enabled()

    def _apply(self, pass_: FunctionPass, function: Function,
               paranoid: bool) -> bool:
        """Run one pass; true when ``function`` must be verified again —
        the pass reported a change, or an injected fault corrupted it."""
        name = _pass_name(pass_)
        faultinject.maybe_fail("pass", f"{name}:{function.name}")
        before_ir = print_function(function) if paranoid else None
        if telemetry.current() is None:
            changed = pass_(function)
        else:
            before = _instr_count(function)
            t0 = time.perf_counter()
            changed = pass_(function)
            seconds = time.perf_counter() - t0
            telemetry.record_pass(
                name, function.name, seconds, before, _instr_count(function)
            )
        if paranoid and not changed and print_function(function) != before_ir:
            raise PassVerificationError(
                f"pass '{name}' returned changed=False but rewrote "
                f"@{function.name}",
                pass_name=name,
                function=function.name,
            )
        corrupted = faultinject.maybe_corrupt(f"{name}:{function.name}", function)
        return bool(changed) or corrupted

    def _verify_after(self, pass_: FunctionPass, function: Function,
                      module: Optional[Module] = None) -> None:
        try:
            if module is not None:
                verify_module(module)
            else:
                verify_function(function)
        except PassVerificationError:
            raise
        except VerificationError as exc:
            summary = exc.diagnostic.message.splitlines()[0]
            raise PassVerificationError(
                f"IR verification failed after pass '{_pass_name(pass_)}' "
                f"ran on @{function.name}: {summary}",
                pass_name=_pass_name(pass_),
                function=exc.diagnostic.function or function.name,
                block=exc.diagnostic.block,
                instruction=exc.diagnostic.instruction,
                detail={"verifier_message": exc.diagnostic.message},
            ) from exc

    def run(self, module: Module) -> bool:
        module.require_mutable("running a pass pipeline")
        changed = False
        paranoid = self._paranoid()
        for pass_ in self.passes:
            for function in list(module.functions.values()):
                if not function.blocks:
                    continue
                dirty = self._apply(pass_, function, paranoid)
                changed |= dirty
                if paranoid:
                    self._verify_after(pass_, function, module)
                elif dirty and self.verify_each:
                    self._verify_after(pass_, function)
        return changed
