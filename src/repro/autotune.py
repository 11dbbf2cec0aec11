"""``repro.autotune`` — profile-guided batch-factor selection.

The static cost model behind :func:`repro.backend.costmodel.suggest_batch_factor`
picks a batch factor from the gang size and one bit of loop shape — a
straight-line gang loop aims for 512 lanes, one with a loop in its body
for 256 — and nothing else; `BENCH_5.json` showed what that leaves out:
gang batching *lost* wall-clock on stencil (0.85×) and barely paid on
binomial (1.13×) while winning 4–5.5× elsewhere.  This module replaces
the guess with measured data, goSLP-style: decisions come from profiles,
not from a heuristic that cannot see the workload, and a pin always
overrides the static rule.

How it works
------------

* **Keying.**  Samples are stored per ``(kernel content fingerprint,
  engine config, batch factor B)``.  The fingerprint is a SHA-256 of the
  kernel source; the engine config names the machine model
  (``avx512``).  Factor ``1`` means "batching off / not applied".

* **First run: measure.**  When a kernel has no pinned choice, the runner
  compiles and times a small candidate set — unbatched (request ``0``),
  ``B=2``, and the cost model's suggestion (request ``None``) — deduped by
  the *effective* factor each request produces, then **pins** the winner.
  Winner selection has hysteresis (:data:`PIN_MARGIN`): the smallest
  factor within the margin of the fastest sample wins, so a batched
  configuration is pinned only when it *clearly* beats unbatched —
  wall-clock sampling noise must not pin a config that merely tied.
  Real batching wins are multiples (4–6× on mandelbrot/aobench), far
  above the margin; losses and ties land on the safe unbatched side.
  Candidates are timed on the default engine (whole-kernel codegen):
  the engine is not a tuned axis — ``BENCH_10.json`` has codegen ahead
  of the batched decoded engine on every fig4 kernel (min 1.75×).

* **Steady state: pinned.**  Later runs (and later *processes* — the store
  lives on disk next to :mod:`repro.diskcache`'s entries) compile straight
  to the pinned configuration; every run contributes one more wall-clock
  sample.

* **Deopt.**  If the pinned configuration regresses — the best of the last
  :data:`DEOPT_WINDOW` samples exceeds :data:`DEOPT_RATIO` × the pinned
  baseline — the pin is dropped and the next run re-measures.  Requiring a
  full window of slow samples keeps one-off noise (a cold decode, a busy
  machine) from un-pinning a good choice; a genuinely regressed choice is
  re-measured within a few runs.

* **Persistence contract** (mirrors :mod:`repro.diskcache`): one JSON file
  per (fingerprint, engine) under ``cache_dir()/autotune``, atomic
  ``os.replace`` writes, version-keyed (:data:`AUTOTUNE_VERSION`) with
  stale/corrupt entries silently discarded, and best-effort multi-process
  behavior — concurrent writers re-read before writing, so the store
  converges; a lost sample is never a correctness problem because every
  candidate configuration is bit-identical by the batching contract.

Decisions surface as ``vm.autotune.{measure,pin,deopt}`` telemetry
counters plus a per-run ``autotune`` record in ``record_vm_run`` — see
:mod:`repro.telemetry`.  Opt in with ``REPRO_AUTOTUNE=1`` (or
:func:`set_enabled`); an explicit ``REPRO_BATCH``/``REPRO_NO_BATCH``
override always wins over the tuner.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # POSIX only; the store degrades to best-effort without it.
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from . import telemetry
from .diskcache import cache_dir
from .envflags import env_flag

__all__ = [
    "AUTOTUNE_VERSION",
    "CANDIDATE_REQUESTS",
    "DEOPT_RATIO",
    "DEOPT_WINDOW",
    "PIN_MARGIN",
    "enabled",
    "set_enabled",
    "engine_config",
    "fingerprint",
    "store_dir",
    "clear",
    "stats",
    "reset_stats",
    "choose_factor",
    "decision",
    "pinned_request",
    "record_measurement",
    "pin",
    "observe",
    "measure_reps",
]

#: Bump on any incompatible change to the entry schema; mismatched entries
#: are discarded on load, like :data:`repro.diskcache.CACHE_VERSION`.
#: v3: the engine is no longer a tuned axis — samples are keyed
#: ``"<factor>"`` only and pins carry no ``codegen`` field, so v2 pins
#: (which may name the decoded engine) are dropped, not misread.
AUTOTUNE_VERSION = 3

#: Batch *requests* measured on a kernel's first run: unbatched, the
#: smallest useful factor, and whatever the static cost model suggests
#: (``None`` = auto).  Requests are deduped by effective factor after
#: compilation, so a kernel whose suggestion is 2 measures two configs.
CANDIDATE_REQUESTS: Tuple[Optional[int], ...] = (0, 2, None)

#: Hysteresis for winner selection: the smallest factor whose measured
#: wall is within this multiple of the fastest sample is pinned.  Guards
#: against sampling noise pinning a batched config that merely tied
#: unbatched (the genuine wins this layer chases are ≥2×).
PIN_MARGIN = 1.25

#: A pinned choice deopts when the *best* of the last ``DEOPT_WINDOW``
#: samples is slower than ``DEOPT_RATIO`` × the pinned baseline.
DEOPT_RATIO = 1.5
DEOPT_WINDOW = 3

#: Wall-clock samples kept per (entry, factor).
MAX_SAMPLES = 32

_STATS = {"decisions": 0, "measurements": 0, "pins": 0, "deopts": 0, "errors": 0}
_ENABLED: Optional[bool] = None  # None → consult REPRO_AUTOTUNE

#: path -> (mtime_ns, entry) — keeps repeated pin lookups (one per
#: ``compile_parsimony`` call) off the disk in the common case.
_ENTRY_CACHE: Dict[Path, Tuple[int, dict]] = {}


def enabled() -> bool:
    """Whether profile-guided selection is active."""
    if _ENABLED is not None:
        return _ENABLED
    return env_flag("REPRO_AUTOTUNE")


def set_enabled(value: Optional[bool]) -> None:
    """Force the tuner on/off; ``None`` defers to ``REPRO_AUTOTUNE``."""
    global _ENABLED
    _ENABLED = value


def measure_reps() -> int:
    """Timing repetitions per candidate on a measurement run (min wins).
    Three by default: the first pays the one-time decode and emission,
    and min-of-the-rest resists one slow machine phase landing on one
    candidate's turn."""
    try:
        return max(1, int(os.environ.get("REPRO_AUTOTUNE_REPS", "3")))
    except ValueError:
        return 3


def choose_factor(measured: Dict[int, float]) -> int:
    """The factor to pin given candidate wall-clock samples.

    The smallest factor within :data:`PIN_MARGIN` of the fastest sample:
    batching must beat unbatched *decisively* to be pinned, so noise can't
    pin a config that merely tied (and loses steady-state)."""
    best_wall = min(measured.values())
    for factor in sorted(measured):
        if measured[factor] <= PIN_MARGIN * best_wall:
            return factor
    raise AssertionError("unreachable: best sample is within its own margin")


def engine_config(machine=None) -> str:
    """Name the engine configuration samples are keyed under.

    Wall-clock depends on the machine model, so pins must not leak
    across machines.
    """
    return machine.name if machine is not None else "avx512"


def fingerprint(source: str) -> str:
    """Content fingerprint of a kernel: SHA-256 of its PsimC source."""
    return hashlib.sha256(source.encode()).hexdigest()


def store_dir() -> Path:
    return cache_dir() / "autotune"


def stats() -> Dict[str, int]:
    return dict(_STATS)


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def clear() -> None:
    """Drop every persisted profile (best effort)."""
    _ENTRY_CACHE.clear()
    try:
        for pattern in ("*.json", "*.lock"):
            for path in store_dir().glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
    except OSError:
        pass


# -- the on-disk entry ----------------------------------------------------------


def _entry_path(fp: str, engine: str) -> Path:
    slug = engine.replace("/", "-")
    return store_dir() / f"{fp[:40]}-{slug}.json"


@contextmanager
def _entry_lock(fp: str, engine: str):
    """Exclusive advisory lock serializing read-modify-write of one entry.

    Every mutation (:func:`record_measurement`, :func:`pin`,
    :func:`observe`) is a load-mutate-store; without the lock two processes
    interleave and the second store silently drops the first one's samples
    (the classic lost update).  The lock lives in a sidecar ``.lock`` file
    so the entry itself can keep being replaced atomically.  Best-effort:
    any OS refusal (read-only dir, missing ``fcntl``) degrades to the old
    unlocked behavior rather than failing the run.
    """
    fd = None
    try:
        if fcntl is not None:
            try:
                directory = store_dir()
                directory.mkdir(parents=True, exist_ok=True)
                lock_path = _entry_path(fp, engine).with_suffix(".lock")
                fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR, 0o644)
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                if fd is not None:
                    os.close(fd)
                fd = None
        yield
    finally:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)


def _fresh_entry(fp: str, engine: str) -> dict:
    return {
        "version": AUTOTUNE_VERSION,
        "fingerprint": fp,
        "engine": engine,
        "samples": {},   # str(factor) -> [wall, ...]
        "pinned": None,  # {"factor", "request", "wall", "reason"}
        "recent": [],    # pinned-factor samples since the pin (deopt window)
        "deopts": 0,
    }


def _load_entry(fp: str, engine: str) -> dict:
    """Corruption-tolerant load; stale/foreign/damaged entries are dropped."""
    path = _entry_path(fp, engine)
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        return _fresh_entry(fp, engine)
    cached = _ENTRY_CACHE.get(path)
    if cached is not None and cached[0] == mtime:
        return json.loads(json.dumps(cached[1]))  # defensive copy
    try:
        entry = json.loads(path.read_text())
        if (entry.get("version") != AUTOTUNE_VERSION
                or entry.get("fingerprint") != fp):
            raise ValueError("stale or foreign autotune entry")
    except Exception:
        _STATS["errors"] += 1
        try:
            path.unlink()
        except OSError:
            pass
        return _fresh_entry(fp, engine)
    _ENTRY_CACHE[path] = (mtime, json.loads(json.dumps(entry)))
    return entry


def _store_entry(entry: dict) -> None:
    """Best-effort atomic write; failures are counted, never raised."""
    path = _entry_path(entry["fingerprint"], entry["engine"])
    tmp = None
    try:
        directory = store_dir()
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(entry, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        tmp = None
        # Invalidate rather than repopulate: stat() after the replace can
        # observe *another* process's even-newer write, and caching this
        # entry under that mtime would mask it forever (cache poisoning).
        _ENTRY_CACHE.pop(path, None)
    except Exception:
        _STATS["errors"] += 1
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _request_for(factor: int) -> int:
    """Fallback batch request for an effective factor (0 = off), used only
    for pre-``request``-field entries.  A pin normally stores the *request*
    the winning candidate compiled from: a forced factor applies to every
    gang loop, while the auto request (``None``) picks per-loop factors, so
    only the original request reproduces the measured module exactly."""
    return 0 if factor <= 1 else int(factor)


def _pinned_request_of(pinned: dict) -> Optional[int]:
    if "request" in pinned:
        req = pinned["request"]
        return None if req is None else int(req)
    return _request_for(pinned["factor"])


# -- the decision protocol ------------------------------------------------------


def decision(fp: str, engine: str) -> dict:
    """What the next run of this kernel should do.

    ``{"state": "pinned", "request": r, "factor": f, "reason": ...}``
    when a measured winner exists; ``{"state": "measure",
    "requests": (...), "reason": ...}`` when candidates must be
    (re-)measured.
    """
    _STATS["decisions"] += 1
    entry = _load_entry(fp, engine)
    pinned = entry.get("pinned")
    if pinned:
        reason = pinned.get("reason", "measured winner")
        if entry.get("deopts"):
            reason += f" ({entry['deopts']} deopt(s) so far)"
        return {
            "state": "pinned",
            "request": _pinned_request_of(pinned),
            "factor": pinned["factor"],
            "reason": reason,
        }
    reason = ("re-measuring after deopt" if entry.get("deopts")
              else "no profile yet: measuring candidates")
    return {"state": "measure", "requests": CANDIDATE_REQUESTS, "reason": reason}


def pinned_request(fp: str, engine: str) -> Optional[int]:
    """The pinned batch request for a kernel, or ``None`` when unpinned.

    This is the compile-time hook :func:`repro.driver.compile_parsimony`
    consults, so *any* caller — not just the benchmark runner — compiles to
    the measured configuration once a pin exists.  ``None`` also stands for
    a pin whose winning request *was* the cost-model auto mode — for the
    caller the two collapse to the same thing (compile on auto).
    """
    entry = _load_entry(fp, engine)
    pinned = entry.get("pinned")
    if not pinned:
        return None
    return _pinned_request_of(pinned)


def record_measurement(fp: str, engine: str, factor: int,
                       wall: float) -> None:
    """One candidate's wall-clock sample from a measurement sweep."""
    _STATS["measurements"] += 1
    with _entry_lock(fp, engine):
        entry = _load_entry(fp, engine)
        samples = entry["samples"].setdefault(str(int(factor)), [])
        samples.append(wall)
        del samples[:-MAX_SAMPLES]
        _store_entry(entry)
    telemetry.record_autotune(
        "measure",
        {"fingerprint": fp, "engine": engine, "factor": factor, "wall": wall},
    )


_REQUEST_UNSET = object()


def pin(fp: str, engine: str, factor: int, wall: float,
        measured: Dict[int, float], request=_REQUEST_UNSET) -> str:
    """Pin the measured winner; returns the human-readable reason.

    ``request`` is the batch request the winning candidate *compiled
    from* (``None`` = cost-model auto); replaying it is what reproduces
    the measured module bit-for-bit, since a forced factor and the auto
    mode can batch a multi-loop kernel differently.  When omitted it is
    derived from ``factor`` (exact only for single-gang-loop kernels).
    """
    if request is _REQUEST_UNSET:
        request = _request_for(factor)
    _STATS["pins"] += 1
    labeled = {str(int(k)): w for k, w in measured.items()}
    ranked = ", ".join(
        f"B={k}:{w * 1e3:.2f}ms" for k, w in sorted(labeled.items())
    )
    chosen = str(int(factor))
    fastest = min(labeled, key=labeled.get) if labeled else chosen
    if chosen == fastest:
        reason = f"measured fastest of {{{ranked}}}"
    else:
        reason = (f"measured within margin of fastest B={fastest}; "
                  f"preferring simpler B={chosen} of {{{ranked}}}")
    with _entry_lock(fp, engine):
        entry = _load_entry(fp, engine)
        entry["pinned"] = {"factor": int(factor), "request": request,
                           "wall": wall, "reason": reason}
        entry["recent"] = []
        _store_entry(entry)
    telemetry.record_autotune(
        "pin",
        {"fingerprint": fp, "engine": engine, "factor": factor,
         "request": request, "wall": wall, "measured": labeled},
    )
    return reason


def observe(fp: str, engine: str, factor: int,
            wall: float) -> Optional[str]:
    """Record a steady-state sample; returns ``"deopt"`` when the pinned
    choice just regressed past the threshold (the pin is dropped and the
    next :func:`decision` re-measures)."""
    event = None
    with _entry_lock(fp, engine):
        entry = _load_entry(fp, engine)
        samples = entry["samples"].setdefault(str(int(factor)), [])
        samples.append(wall)
        del samples[:-MAX_SAMPLES]
        pinned = entry.get("pinned")
        if pinned and int(pinned["factor"]) == int(factor):
            if wall < pinned["wall"]:
                # New best: ratchet the baseline down and forgive the window.
                pinned["wall"] = wall
                entry["recent"] = []
            else:
                recent = entry.setdefault("recent", [])
                recent.append(wall)
                del recent[:-DEOPT_WINDOW]
                if (len(recent) >= DEOPT_WINDOW
                        and min(recent) > DEOPT_RATIO * pinned["wall"]):
                    _STATS["deopts"] += 1
                    entry["deopts"] = int(entry.get("deopts", 0)) + 1
                    entry["pinned"] = None
                    entry["recent"] = []
                    event = "deopt"
                    telemetry.record_autotune(
                        "deopt",
                        {"fingerprint": fp, "engine": engine, "factor": factor,
                         "wall": wall, "baseline": pinned["wall"]},
                    )
        _store_entry(entry)
    return event
