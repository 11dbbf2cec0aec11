"""The one parser for boolean environment knobs.

``REPRO_AUTOTUNE``, ``REPRO_DISK_CACHE``, ``REPRO_NO_BATCH`` and
``REPRO_PARANOID`` are on/off switches.  Ad-hoc parsing gets them wrong
in both directions: ``value in ("1", "true")`` silently ignores
``REPRO_NO_BATCH=yes``, and ``value not in ("", "0")`` turns
``REPRO_PARANOID=false`` *on*.  An unparsable value is a
misconfiguration, not a silent request for the default: it keeps the
default but emits a structured :class:`~repro.diagnostics.ReproWarning`
saying so, matching the ``REPRO_BATCH``/``REPRO_SHARDS`` precedent.
"""

from __future__ import annotations

import os

from .diagnostics import emit_warning

__all__ = ["env_flag"]

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off", ""))


def env_flag(name: str, default: bool = False) -> bool:
    """Parse boolean env var ``name``; warn (and keep ``default``) on garbage.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` (case-insensitive);
    unset or empty means ``default``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    emit_warning(
        f"unparsable {name}={raw!r} (expected 1/0/true/false/yes/no/on/off);"
        f" keeping the default",
        stage="driver",
        pass_name="envflags",
        detail={"variable": name, "value": raw, "default": default},
    )
    return default
