"""Worker-side telemetry capture for the sharded blocking executor.

The sharded executor (:mod:`repro.exec.executor`) forks worker
processes, and anything a worker records into the ambient profiler
stack (:mod:`repro.obs.profiling`) dies with the child.  This module
closes that gap without breaking the determinism contract:

* :func:`worker_slot` maps a shard index to a *logical* worker slot
  derived from the configured ``n_workers`` — never from an OS pid or
  from the pool's actual size — so replay, the in-process fallback and
  cached-shard resume all attribute a shard to the same worker.
* :func:`capture_worker_sections` activates a fresh
  :class:`~repro.obs.profiling.Profiler` around a shard's work and
  hands back the recorded wall-clock sections as a plain dict.  The
  fresh profiler matters twice over: a forked child inherits the
  parent's activation stack (recording into a doomed copy), and the
  parent's in-process fallback must not double-count shard work into
  the run-level sections.
* :func:`merge_worker_sections` folds a shard's captured sections into
  the parent's *active* profiler under ``worker{slot}.{name}`` keys.
  The executor calls it in deterministic shard order, so the merged
  ``profile.json`` layout is stable even though the seconds are
  wall-clock noise.

Wall-clock sections flow only to ``profile.json``; the deterministic
shard facts (pairs scanned, survivors) travel separately in the shard
result payload and feed ``metrics.json``/``spans.jsonl`` through
:class:`~repro.obs.telemetry.RunTelemetry`, which is what keeps those
files byte-identical across replay and kill/resume.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any

from .profiling import Profiler, activate, active_profiler, deactivate

__all__ = [
    "worker_slot",
    "capture_worker_sections",
    "merge_worker_sections",
    "encode_sections",
    "decode_sections",
]


def worker_slot(shard_index: int, n_workers: int) -> int:
    """The deterministic logical worker slot for ``shard_index``.

    Purely a function of the *configured* worker count, so the pooled
    path, the fork-unavailable in-process fallback, and a cached-shard
    replay all agree on the attribution.
    """
    return int(shard_index) % max(1, int(n_workers))


@contextmanager
def capture_worker_sections():
    """Record :func:`~repro.obs.profiling.profile_section` calls locally.

    Activates a fresh profiler for the duration of the block (shadowing
    whatever the process inherited on its activation stack) and yields
    a dict that, on exit, holds the captured sections in the same
    ``{name: {"calls": int, "seconds": float}}`` shape as
    :attr:`Profiler.sections`.
    """
    profiler = Profiler()
    captured: dict[str, dict[str, float]] = {}
    activate(profiler)
    try:
        yield captured
    finally:
        deactivate(profiler)
        captured.update(profiler.sections)


def merge_worker_sections(slot: int, sections: dict[str, dict[str, float]],
                          profiler: Profiler | None = None) -> None:
    """Fold a worker's captured sections into the parent profiler.

    Sections land under ``worker{slot}.{name}`` so a multi-core run's
    ``profile.json`` shows where each logical worker spent its wall
    time.  With no explicit ``profiler`` the ambient active one is
    used; with none active this is a no-op (profiling disabled).
    """
    if profiler is None:
        profiler = active_profiler()
        if profiler is None:
            return
    for name in sorted(sections):
        entry = sections[name]
        merged = profiler.sections.setdefault(
            f"worker{int(slot)}.{name}", {"calls": 0, "seconds": 0.0})
        merged["calls"] += int(entry.get("calls", 0))
        merged["seconds"] += float(entry.get("seconds", 0.0))


def encode_sections(sections: dict[str, dict[str, float]]) -> str:
    """Canonical JSON string for persisting sections in a shard ``.npz``."""
    return json.dumps({"sections": sections or {}}, sort_keys=True)


def decode_sections(blob: Any) -> dict[str, dict[str, float]]:
    """Inverse of :func:`encode_sections`.

    A blob that does not parse yields no sections: they are advisory
    wall-clock telemetry, never part of a deterministic artifact.
    """
    try:
        document = json.loads(str(blob))
    except (TypeError, ValueError):
        return {}
    sections = document.get("sections", {})
    if not isinstance(sections, dict):
        return {}
    return {
        str(name): {"calls": int(entry.get("calls", 0)),
                    "seconds": float(entry.get("seconds", 0.0))}
        for name, entry in sections.items()
        if isinstance(entry, dict)
    }
