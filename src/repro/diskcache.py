"""Persistent on-disk compile cache (the layer under ``repro.driver``).

Compilation is pure in (flow, source, machine, config), so the in-memory
content-keyed cache in :mod:`repro.driver` can be extended to disk:
benchmark *reruns* then skip compilation entirely.  The layer is opt-in
(``REPRO_DISK_CACHE=1`` or :func:`set_enabled`), keyed by a SHA-256 digest
of the in-memory cache key plus a cache-version stamp plus a toolchain
fingerprint (size+mtime of every ``repro`` source file), and stored as one
pickle file per entry under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``).

Robustness contract:

* **corruption-tolerant loads** — any failure to read, unpickle, or
  version-match an entry is swallowed, the bad file is dropped, and the
  caller recompiles; the disk layer can never fail a compile;
* **atomic writes** — entries are written to a temp file and
  ``os.replace``'d into place, so a crashed writer leaves no torn entry;
* **stale-by-construction invalidation** — editing any compiler source
  changes the toolchain fingerprint, which changes every digest, so old
  entries are simply never hit again (and a version bump in
  :data:`CACHE_VERSION` does the same explicitly).

``ml.*`` math externals hold closure impls that cannot be pickled; they
are serialized as persistent ids (their name) and rebuilt on load by
:func:`repro.runtime.mathlib.rehydrate_external`.  ``psim.*`` externals
pickle directly (module-level impl, literal cost).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .envflags import env_flag
from .ir.module import ExternalFunction, Module

__all__ = [
    "CACHE_VERSION",
    "cache_dir",
    "enabled",
    "set_enabled",
    "dumps_module",
    "loads_module",
    "load",
    "store",
    "load_code",
    "store_code",
    "code_stats",
    "clear",
    "stats",
    "reset_stats",
]

#: Bump on any incompatible change to the IR pickle layout or cache format.
#: v2: gang-batched modules — ``Module.attrs`` carries the unbatched
#: fallback twin (until v5) and instructions carry batch-charge prototypes.
#: v3: whole-kernel codegen — generated-source code objects share the
#: cache directory (``.code`` entries), keyed per interpreter bytecode
#: magic; module digests move with them.
#: v4: batch-specialized emission — generated sources inline batch
#: factors, localized accounting, and folded superinstruction forms, so
#: v3 code objects describe a different accounting protocol and must not
#: rehydrate.
#: v5: lazy trap-replay twin — a batched module's ``attrs`` carries the
#: recipe for its unbatched twin instead of the pickled twin; a v4 entry
#: read as v5 would be a batched module with no way to its twin.
#: v6: two lane targets — a straight-line gang loop batches to 512 lanes,
#: so the same key compiles to a different module (and its generated
#: source folds constants at emit time); v5 entries must not answer.
CACHE_VERSION = 6

_PID_PREFIX = "repro-ext:"

# Deep parsimony def-use graphs exceed the default recursion limit when
# pickled; raised temporarily around dump/load.
_PICKLE_RECURSION_LIMIT = 100_000

_STATS = {"hits": 0, "misses": 0, "writes": 0, "errors": 0}
_ENABLED: Optional[bool] = None  # None → consult REPRO_DISK_CACHE


def enabled() -> bool:
    """Whether the disk layer is active."""
    if _ENABLED is not None:
        return _ENABLED
    return env_flag("REPRO_DISK_CACHE")


def set_enabled(value: Optional[bool]) -> None:
    """Force the disk layer on/off; ``None`` defers to ``REPRO_DISK_CACHE``."""
    global _ENABLED
    _ENABLED = value


def cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def stats() -> Dict[str, int]:
    """Hit/miss/write/error counters (for telemetry and tests)."""
    return dict(_STATS)


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def clear() -> None:
    """Drop every on-disk entry (best effort)."""
    try:
        for pattern in ("*.pkl", "*.code"):
            for path in cache_dir().glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
    except OSError:
        pass


# -- keying --------------------------------------------------------------------

_FINGERPRINT: Optional[str] = None


def _toolchain_fingerprint() -> str:
    """Digest of every compiler source file's (path, size, mtime)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        h = hashlib.sha256()
        root = Path(__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            try:
                st = path.stat()
            except OSError:
                continue
            rel = path.relative_to(root)
            h.update(f"{rel}:{st.st_size}:{st.st_mtime_ns}\n".encode())
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


def _digest(key: tuple) -> str:
    text = f"v{CACHE_VERSION}|{_toolchain_fingerprint()}|{key!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def _entry_path(key: tuple) -> Path:
    return cache_dir() / f"{_digest(key)}.pkl"


# -- module (de)serialization --------------------------------------------------


class _ModulePickler(pickle.Pickler):
    def persistent_id(self, obj):
        if isinstance(obj, ExternalFunction) and obj.name.startswith("ml."):
            return _PID_PREFIX + obj.name
        return None


class _ModuleUnpickler(pickle.Unpickler):
    """Rebuilds ``ml.*`` externals by name, once each (identity preserved)."""

    def __init__(self, file):
        super().__init__(file)
        self._rehydrated: Dict[str, ExternalFunction] = {}

    def persistent_load(self, pid):
        if not isinstance(pid, str) or not pid.startswith(_PID_PREFIX):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        name = pid[len(_PID_PREFIX):]
        ext = self._rehydrated.get(name)
        if ext is None:
            from .runtime.mathlib import rehydrate_external

            ext = self._rehydrated[name] = rehydrate_external(name)
        return ext


def _dumps(module: Module) -> bytes:
    buf = io.BytesIO()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _PICKLE_RECURSION_LIMIT))
    try:
        _ModulePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(
            (CACHE_VERSION, module)
        )
    finally:
        sys.setrecursionlimit(old)
    return buf.getvalue()


def _loads(data: bytes) -> Module:
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _PICKLE_RECURSION_LIMIT))
    try:
        version, module = _ModuleUnpickler(io.BytesIO(data)).load()
    finally:
        sys.setrecursionlimit(old)
    if version != CACHE_VERSION or not isinstance(module, Module):
        raise pickle.UnpicklingError("stale or foreign cache entry")
    return module


def dumps_module(module: Module) -> bytes:
    """Serialize one module with the cache's pickler (version-stamped,
    ``ml.*`` externals by persistent id).  The byte string round-trips
    through :func:`loads_module` in another process — this is how
    :mod:`repro.shard` ships an explicit module to a worker that cannot
    inherit it, and how cross-process tests move modules around without
    going through a cache directory."""
    return _dumps(module)


def loads_module(data: bytes) -> Module:
    """Inverse of :func:`dumps_module`; raises ``pickle.UnpicklingError``
    on a stale or foreign payload."""
    return _loads(data)


# -- the cache API used by repro.driver ----------------------------------------


def load(key: tuple) -> Optional[Module]:
    """Best-effort load; missing, corrupt, or stale entries return None."""
    if not enabled():
        return None
    path = _entry_path(key)
    try:
        data = path.read_bytes()
    except OSError:
        _STATS["misses"] += 1
        return None
    try:
        module = _loads(data)
    except Exception:
        # Corruption-tolerant: drop the bad entry, fall back to recompile.
        _STATS["errors"] += 1
        _STATS["misses"] += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _STATS["hits"] += 1
    return module


def store(key: tuple, module: Module) -> None:
    """Best-effort atomic write; failures are counted, never raised."""
    if not enabled():
        return
    tmp = None
    try:
        data = _dumps(module)
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, _entry_path(key))
        tmp = None
        _STATS["writes"] += 1
    except Exception:
        _STATS["errors"] += 1
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# -- generated-code entries (whole-kernel codegen) ------------------------------
#
# ``repro.backend.codegen`` emits deterministic Python source per
# (function shape, cost bindings), so identical sources across processes
# share one ``compile()``.  Code objects are marshal-serialized with the
# interpreter's bytecode magic prefixed — a different CPython silently
# misses instead of unmarshalling garbage.  Counters are kept separate
# from the module-entry ``_STATS`` so existing telemetry and tests keep
# their meaning.

_CODE_STATS = {"hits": 0, "misses": 0, "writes": 0, "errors": 0}


def code_stats() -> Dict[str, int]:
    """Hit/miss/write/error counters for generated-code entries."""
    return dict(_CODE_STATS)


def _code_path(source: str) -> Path:
    import importlib.util

    text = f"v{CACHE_VERSION}|code|{importlib.util.MAGIC_NUMBER!r}|{source}"
    return cache_dir() / f"{hashlib.sha256(text.encode()).hexdigest()}.code"


def load_code(source: str):
    """Best-effort load of a compiled code object for a generated source."""
    if not enabled():
        return None
    import marshal
    import importlib.util

    path = _code_path(source)
    try:
        data = path.read_bytes()
    except OSError:
        _CODE_STATS["misses"] += 1
        return None
    magic = importlib.util.MAGIC_NUMBER
    try:
        if data[: len(magic)] != magic:
            raise ValueError("bytecode magic mismatch")
        code = marshal.loads(data[len(magic):])
        if not hasattr(code, "co_code"):
            raise ValueError("not a code object")
    except Exception:
        _CODE_STATS["errors"] += 1
        _CODE_STATS["misses"] += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _CODE_STATS["hits"] += 1
    return code


def store_code(source: str, code) -> None:
    """Best-effort atomic write of a compiled code object."""
    if not enabled():
        return
    import marshal
    import importlib.util

    tmp = None
    try:
        data = importlib.util.MAGIC_NUMBER + marshal.dumps(code)
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, _code_path(source))
        tmp = None
        _CODE_STATS["writes"] += 1
    except Exception:
        _CODE_STATS["errors"] += 1
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
