"""``repro.diagnostics`` — structured errors for the whole pipeline.

Every error the compiler or VM raises on purpose carries a
:class:`Diagnostic`: a severity, the pipeline *stage* that produced it
(``frontend`` / ``passes`` / ``vectorizer`` / ``verifier`` / ``smt`` /
``vm``), and — where known — the pass, function, block, and instruction
it refers to.  This is what lets the driver degrade gracefully (the
Parsimony pass must never take the build down, §4.2) and report *where*
and *why* precisely instead of surfacing a bare assertion.

Two exception roots span the pipeline:

* :class:`CompileError` — anything raised while producing IR (front-end,
  passes, vectorizer, verifier, SMT layer);
* :class:`ExecutionError` — anything raised while running IR (VM traps,
  memory faults).

Concrete errors (``VerificationError``, ``VectorizeError``, ``SemaError``,
``MemoryError_``, ...) keep their historical names and builtin bases
(``SyntaxError``, ``TypeError``) but are rebased onto these roots, so
``except CompileError`` catches every deliberate compile-time failure
while old call sites and tests keep working unchanged.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "ReproError",
    "ReproWarning",
    "CompileError",
    "ExecutionError",
    "FrozenModuleError",
    "attach_location",
    "emit_warning",
]


class Severity(enum.Enum):
    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"
    FATAL = "fatal"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


@dataclass
class Diagnostic:
    """One structured finding: what went wrong, where in the pipeline."""

    message: str
    severity: Severity = Severity.ERROR
    #: pipeline stage: frontend | passes | vectorizer | verifier | smt | vm |
    #: scalarize | faultinject (empty when the raiser didn't say).
    stage: str = ""
    pass_name: str = ""
    function: str = ""
    block: str = ""
    instruction: str = ""
    #: free-form structured payload (rule names, fault sites, ...).
    detail: Dict[str, object] = field(default_factory=dict)

    def location(self) -> str:
        """Human-readable provenance suffix, empty when nothing is known."""
        parts = []
        if self.stage:
            parts.append(f"stage={self.stage}")
        if self.pass_name:
            parts.append(f"pass={self.pass_name}")
        if self.function:
            parts.append(f"function=@{self.function}")
        if self.block:
            parts.append(f"block={self.block}")
        if self.instruction:
            parts.append(f"instr=%{self.instruction}")
        return ", ".join(parts)

    def format(self) -> str:
        loc = self.location()
        if not loc:
            return self.message
        # The location rides after the message (and after any IR dump the
        # message embeds) so regex matching on the message keeps working.
        return f"{self.message}\n  [{loc}]"

    def as_dict(self) -> Dict[str, object]:
        return {
            "severity": self.severity.value,
            "message": self.message,
            "stage": self.stage,
            "pass_name": self.pass_name,
            "function": self.function,
            "block": self.block,
            "instruction": self.instruction,
            "detail": dict(self.detail),
        }


class ReproError(Exception):
    """Root of every deliberate repro error; carries a :class:`Diagnostic`.

    Subclasses may mix in builtin exception bases (``SyntaxError``,
    ``TypeError``) *after* this class so the structured ``__init__`` runs
    while ``isinstance`` checks against the builtins keep holding.
    """

    #: default ``Diagnostic.stage`` for instances of the subclass.
    default_stage = ""

    def __init__(
        self,
        message: object = "",
        *,
        severity: Severity = Severity.ERROR,
        stage: Optional[str] = None,
        pass_name: str = "",
        function: str = "",
        block: str = "",
        instruction: str = "",
        detail: Optional[Dict[str, object]] = None,
        diagnostic: Optional[Diagnostic] = None,
    ):
        if diagnostic is None:
            diagnostic = Diagnostic(
                message=str(message),
                severity=severity,
                stage=self.default_stage if stage is None else stage,
                pass_name=pass_name,
                function=function,
                block=block,
                instruction=instruction,
                detail=dict(detail or {}),
            )
        self.diagnostic = diagnostic
        super().__init__(diagnostic.format())

    def __reduce__(self):
        """Pickle by reconstructing from the structured :class:`Diagnostic`.

        The default ``BaseException`` reduce re-runs ``__init__`` with the
        *formatted* message, which demotes the structured provenance
        (stage/pass/function/detail) to free text and silently drops the
        ``__cause__``/``__context__`` chain.  An embedding caller that
        ships errors between processes (``multiprocessing``, a worker
        pool) must get them back whole, so the round-trip is lossless.
        """
        attrs = {k: v for k, v in self.__dict__.items() if k != "diagnostic"}
        return (
            _restore_error,
            (type(self), self.diagnostic, attrs, self.__cause__,
             self.__context__, self.__suppress_context__),
        )


def _restore_error(cls, diagnostic, attrs, cause, context, suppress_context):
    """Unpickle hook for :class:`ReproError` (see ``__reduce__``).

    Bypasses the subclass ``__init__`` (builtin mixins like ``SyntaxError``
    have incompatible signatures) and rebuilds the instance field by field.
    """
    exc = cls.__new__(cls)
    BaseException.__init__(exc, diagnostic.format())
    exc.diagnostic = diagnostic
    if attrs:
        exc.__dict__.update(attrs)
    exc.__cause__ = cause
    exc.__context__ = context
    exc.__suppress_context__ = suppress_context
    return exc


def attach_location(
    exc: BaseException,
    *,
    function: str = "",
    block: str = "",
    instruction: str = "",
) -> None:
    """Fill *empty* location fields of a :class:`ReproError` in flight.

    Emitters close to the IR (the vectorizer's per-block loop) call this in
    ``except`` clauses so that errors raised by deeper layers — which know
    *why* but not *where* — gain function/block/instruction provenance
    without losing their original message.  Fields already set by the
    raiser win; non-``ReproError`` exceptions are left untouched.  The
    rendered ``str(exc)`` is not rebuilt (it was fixed at raise time); the
    structured :class:`Diagnostic` is what downstream consumers — the
    region-fallback planner, telemetry — read.
    """
    if not isinstance(exc, ReproError):
        return
    diag = exc.diagnostic
    if function and not diag.function:
        diag.function = function
    if block and not diag.block:
        diag.block = block
    if instruction and not diag.instruction:
        diag.instruction = instruction


class ReproWarning(UserWarning):
    """A non-fatal finding carrying the same structured :class:`Diagnostic`
    as :class:`ReproError` — used for recoverable misconfigurations (an
    unparsable environment knob, say) that must be *visible* without
    failing the compile."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.format())


def emit_warning(
    message: str,
    *,
    stage: str = "",
    pass_name: str = "",
    function: str = "",
    detail: Optional[Dict[str, object]] = None,
    stacklevel: int = 3,
) -> Diagnostic:
    """Emit a structured :class:`ReproWarning` through :mod:`warnings`.

    Returns the :class:`Diagnostic` so call sites can also log or attach
    it.  ``stacklevel`` defaults to the *caller's caller* — the config
    reader's own caller is usually the interesting frame.
    """
    diag = Diagnostic(
        message=message,
        severity=Severity.WARNING,
        stage=stage,
        pass_name=pass_name,
        function=function,
        detail=dict(detail or {}),
    )
    warnings.warn(ReproWarning(diag), stacklevel=stacklevel)
    return diag


class CompileError(ReproError):
    """An error while *producing* IR (front-end through back-end cleanup)."""


class ExecutionError(ReproError):
    """An error while *running* IR (VM traps, memory faults)."""

    default_stage = "vm"


class FrozenModuleError(ReproError):
    """A mutation reached a frozen module.

    Every ``repro.driver.compile_*`` result is one shared, sealed
    hand-out (see ``Module.freeze``); ``what`` names the refused write
    and the message names the way out, ``clone_module``.
    """

    def __init__(self, what: str, **kwargs):
        super().__init__(
            f"{what}: the module is frozen (compiled modules are shared, "
            "immutable hand-outs); call repro.passes.clone_module(module) "
            "for a mutable copy",
            **kwargs,
        )
