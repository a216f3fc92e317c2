"""Read-side recovery: verify, quarantine, sweep, repair.

The write side (:mod:`repro.storage.writer`) guarantees each artifact
is either its old or its new complete content; this module is what a
*resuming* run uses to cope with everything the guarantee does not
cover — bit rot at rest, a stale manifest entry from a mid-batch
crash, ``.tmp`` droppings from a dead predecessor, and a torn tail on
the append-only files (:func:`repair_trace` cuts it off before a
resume appends; :func:`read_jsonl` skips it for every reader;
:func:`read_records` stops before it in a framed record log).

The policy:

* an artifact whose manifest sha256 matches is trusted outright;
* one with **no** manifest entry (pre-durability run directory, or a
  crash landed between the artifact write and the manifest flush) is
  accepted if it parses and passes its format check — the manifest is
  metadata, never the artifact of record;
* one whose entry **mismatches** is corrupt: it is moved under
  ``<run_dir>/quarantine/`` (never silently deleted — the bytes are
  evidence);
* a framed record log (the checkpoint log) carries a sha256 per
  record, so it needs no manifest: the records that verify, in order,
  are its good prefix, and a torn or corrupt tail is moved under
  ``quarantine/`` and cut off (:func:`quarantine_tail`) — the loader
  resumes from the newest good record.  The engine's kill/resume
  sweeps prove a resume from *any* checkpoint is bit-identical, so
  falling back is always safe;
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
from .writer import (
    RECORD_BODY,
    RECORD_HEAD,
    TMP_SUFFIX,
    file_sha256,
    load_manifest,
    sha256_hex,
)

__all__ = [
    "QUARANTINE_DIR",
    "RecoveryLog",
    "cleanup_stale_tmp",
    "quarantine_artifact",
    "quarantine_tail",
    "read_jsonl",
    "read_records",
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
    falls back to content-level checks).  An entry marked ``prefix``
    (an append-only log, :meth:`~repro.storage.writer.ArtifactWriter.
    record_file`) vouches for the file's first ``bytes`` bytes only, so
    records appended since the entry was made do not fail it.
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
    actual = file_sha256(path, limit=(int(entry["bytes"])
                                      if entry.get("prefix") else None))
    return actual == expected, actual, expected


def quarantine_artifact(run_dir: str | Path, path: str | Path) -> Path:
    """Move a corrupt artifact under ``<run_dir>/quarantine/``.

    Naming is deterministic (no wall clock, per the determinism
    contract): the original filename, with an integer suffix appended
    if a previous quarantine already claimed it.  Returns the new
    location.
    """
    path = Path(path)
    target = _pen_slot(run_dir, path.name)
    os.replace(path, target)
    return target


def quarantine_tail(run_dir: str | Path, path: str | Path,
                    keep: int) -> Path:
    """Move the bytes of an append-only file past offset ``keep`` under
    ``<run_dir>/quarantine/``, and cut the file back to ``keep`` bytes.

    The append-only sibling of :func:`quarantine_artifact`: the good
    prefix stays where appends continue, the torn or corrupt tail is
    kept as evidence under the file's own name (same collision
    suffixes).  Returns the tail's new location.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        handle.seek(keep)
        tail = handle.read()
    target = _pen_slot(run_dir, path.name)
    target.write_bytes(tail)
    _truncate(path, keep)
    return target


def _pen_slot(run_dir: str | Path, name: str) -> Path:
    """A free quarantine path for ``name``: the name itself, or with an
    integer suffix if a previous quarantine already claimed it."""
    pen = Path(run_dir) / QUARANTINE_DIR
    pen.mkdir(parents=True, exist_ok=True)
    target = pen / name
    counter = 1
    while target.exists():
        target = pen / f"{name}.{counter}"
        counter += 1
    return target


def _truncate(path: Path, keep: int) -> None:
    """Cut ``path`` back to its first ``keep`` bytes."""
    with open(path, "r+b") as handle:
        handle.truncate(keep)


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
    _truncate(path, keep)
    return len(data) - keep


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """The records of a framed log that verify, and where they end.

    Reads a log of :func:`repro.storage.writer.frame_record` lines and
    returns ``(records, good_bytes)``: the decoded bodies of the lines
    that verify, oldest first, and the byte length of that good
    prefix.  Reading stops at the first line that is torn (no final
    newline — a crash mid-append), unframed, or whose body fails its
    sha256 (rot); each record may depend on those before it, so
    nothing past a bad line is trusted.  A line whose digest matches
    but whose body is not a JSON object is a writer bug, not rot, and
    raises :class:`~repro.exceptions.DataError`.  A missing file reads
    as an empty log.
    """
    path = Path(path)
    if not path.is_file():
        return [], 0
    data = path.read_bytes()
    digest_at = len(RECORD_HEAD)
    body_at = digest_at + 64 + len(RECORD_BODY)
    records: list[dict[str, Any]] = []
    offset = 0
    while (end := data.find(b"\n", offset)) >= 0:
        line = data[offset:end]
        body = line[body_at:-1]
        if not (line.startswith(RECORD_HEAD)
                and line[body_at - len(RECORD_BODY):body_at] == RECORD_BODY
                and line.endswith(b"}") and len(line) > body_at
                and sha256_hex(body).encode("ascii")
                == line[digest_at:digest_at + 64]):
            break
        try:
            record = json.loads(body)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            raise DataError(
                f"{path}: the record at byte {offset} matches its sha256 "
                f"but is not a JSON object — written bad, not rotted")
        records.append(record)
        offset = end + 1
    return records, offset


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
