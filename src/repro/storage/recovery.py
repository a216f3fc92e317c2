"""Read-side recovery: verify, quarantine, sweep, repair.

The write side (:mod:`repro.storage.writer`) guarantees each artifact
is either its old or its new complete content; this module is what a
*resuming* run uses to cope with everything the guarantee does not
cover — bit rot at rest, a stale manifest entry from a mid-batch
crash, ``.tmp`` droppings from a dead predecessor, and a torn tail on
the append-only JSONL files (:func:`repair_trace` cuts it off before a
resume appends; :func:`read_jsonl` skips it for every reader).

The policy, applied by :func:`repro.engine.checkpoint.load_checkpoint`:

* an artifact whose manifest sha256 matches is trusted outright;
* one with **no** manifest entry (pre-durability run directory, or a
  crash landed between the artifact replace and the manifest flush) is
  accepted if it parses and passes its format check — the manifest is
  metadata, never the artifact of record;
* one whose entry **mismatches** is corrupt: it is moved under
  ``<run_dir>/quarantine/`` (never silently deleted — the bytes are
  evidence) and the loader falls back to the next-newest checkpoint
  generation.  The engine's kill/resume sweeps prove a resume from
  *any* checkpoint is bit-identical, so falling back is always safe;
* when nothing verifies, the caller raises a typed
  :class:`~repro.exceptions.DataError` naming the file and both
  checksums — never a raw JSON or numpy traceback.

Every recovery action is collected on a :class:`RecoveryLog`; the
pipeline replays the log onto the event bus once the bus exists (the
checkpoint is loaded *before* the engine is constructed, so there is
nothing to emit to at detection time).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..exceptions import DataError
from .writer import TMP_SUFFIX, file_sha256, load_manifest

__all__ = [
    "QUARANTINE_DIR",
    "RecoveryLog",
    "cleanup_stale_tmp",
    "quarantine_artifact",
    "read_jsonl",
    "repair_trace",
    "verify_artifact",
]

QUARANTINE_DIR = "quarantine"
"""Corrupt artifacts are moved (not deleted) under this run-dir child."""


class RecoveryLog:
    """Recovery actions observed before the event bus exists.

    ``load_checkpoint`` runs during resume, *before* the pipeline has
    built its :class:`~repro.engine.events.EventBus` — so recovery
    detections cannot be emitted at the moment they happen.  The log
    buffers them as ``(event_name, payload)`` records; the pipeline
    calls :meth:`replay` right after the bus's sequence counter has
    been restored, so recovery events land in the resumed trace in
    order.  On non-corrupt resumes the log stays empty and the trace is
    byte-identical to an uninterrupted run's.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, dict[str, Any]]] = []

    def emit(self, event_name: str, **payload: Any) -> None:
        """Buffer one recovery event for later (re-)emission."""
        self.records.append((event_name, dict(payload)))

    def replay(self, bus: Any) -> None:
        """Emit every buffered record onto ``bus``, oldest first."""
        for name, payload in self.records:
            bus.emit(name, **payload)
        self.records.clear()


def verify_artifact(root: str | Path, path: str | Path,
                    manifest: dict[str, Any] | None = None,
                    ) -> tuple[bool | None, str, str | None]:
    """Check one artifact's bytes against the run manifest.

    Returns ``(verdict, actual_sha, expected_sha)`` where ``verdict``
    is True (entry matches), False (entry mismatches — the file is
    corrupt, missing (``actual_sha`` is then empty) or the manifest is
    stale) or None (no entry — verification unavailable, the caller
    falls back to content-level checks).
    ``manifest`` lets callers checking many artifacts load the ledger
    once.
    """
    root = Path(root)
    path = Path(path)
    if manifest is None:
        manifest = load_manifest(root)
    if manifest is None:
        return None, "", None
    try:
        key = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        key = path.name
    entry = manifest.get(key)
    if not isinstance(entry, dict) or "sha256" not in entry:
        return None, "", None
    expected = str(entry["sha256"])
    if not path.is_file():
        return False, "", expected
    actual = file_sha256(path)
    return actual == expected, actual, expected


def quarantine_artifact(run_dir: str | Path, path: str | Path) -> Path:
    """Move a corrupt artifact under ``<run_dir>/quarantine/``.

    Naming is deterministic (no wall clock, per the determinism
    contract): the original filename, with an integer suffix appended
    if a previous quarantine already claimed it.  Returns the new
    location.
    """
    run_dir = Path(run_dir)
    path = Path(path)
    pen = run_dir / QUARANTINE_DIR
    pen.mkdir(parents=True, exist_ok=True)
    target = pen / path.name
    counter = 1
    while target.exists():
        target = pen / f"{path.name}.{counter}"
        counter += 1
    os.replace(path, target)
    return target


def cleanup_stale_tmp(run_dir: str | Path) -> list[Path]:
    """Remove ``*.tmp`` leftovers a crashed predecessor abandoned.

    An in-flight write that died between the tmp write and the replace
    leaves its tmp file behind; the artifact itself is intact (old
    content), so the leftovers are pure litter.  Swept recursively at
    resume.  Returns the removed paths, sorted for determinism.
    """
    run_dir = Path(run_dir)
    removed: list[Path] = []
    if not run_dir.is_dir():
        return removed
    for path in sorted(run_dir.rglob(f"*{TMP_SUFFIX}")):
        if path.is_file():
            path.unlink()
            removed.append(path)
    return removed


def repair_trace(path: str | Path) -> int:
    """Truncate a torn final line off an append-only JSONL trace.

    :class:`~repro.engine.events.JsonlTraceSink` writes one line per
    event and flushes; a crash mid-append can persist a prefix of the
    final line.  Every complete line ends in a newline, so a file whose
    last byte is not ``\\n`` carries a torn tail: cut it back to the
    last newline (or to empty).  Resume appends new events after the
    repair point — without this, fresh JSON would be concatenated onto
    the torn fragment and corrupt the line *beyond* repair.

    Returns the number of bytes truncated (0 for a clean trace).
    """
    path = Path(path)
    if not path.is_file():
        return 0
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return 0
    keep = data.rfind(b"\n") + 1
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return len(data) - keep


def read_jsonl(path: str | Path, kind: str) -> list[dict[str, Any]]:
    """Parse an append-only JSONL file, dropping a torn final line.

    A crash mid-append can persist a prefix of the final line, so only
    that line may be invalid JSON.  Invalid JSON anywhere earlier is
    corruption: a :class:`~repro.exceptions.DataError` naming the
    ``kind`` of file (``"trace"``, ``"spans"``) and the line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    records: list[dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn tail: a crash cut the final append short
            raise DataError(
                f"{path}: invalid JSON on {kind} line {index + 1} "
                f"(not a torn tail — line {len(lines)} follows it)"
            ) from None
    return records
