"""Durable artifact writes: one fsync discipline for the whole tree.

Every run-directory artifact used to be persisted by a hand-rolled
``tmp + os.replace`` block — six copies, none of which called
``fsync``, so a crash at the wrong moment could surface a rename whose
*data* never reached the disk, and nothing recorded what the bytes were
supposed to be.  This module centralizes the discipline:

1. write the full payload to ``<name>.tmp`` in the target directory;
2. ``fsync`` the tmp file (the data is durable before it is visible);
3. ``os.replace`` the tmp over the target (atomic on POSIX);
4. ``fsync`` the parent directory (the *rename* is durable too).

:class:`ArtifactWriter` layers bookkeeping on top: a per-run
``MANIFEST.json`` mapping each artifact's run-relative path to its
sha256, byte count and a monotonically increasing *generation*, so
readers (:mod:`repro.storage.recovery`) can tell a bit-rotted file from
the bytes the writer actually produced.  The manifest itself is written
with the same discipline, always *after* the artifacts it describes —
a crash between the two leaves a stale manifest, which the read side
resolves by falling back to the newest artifact that still verifies.

Append-only logs (the engine's checkpoint log) take the second
primitive, :func:`append_bytes`: write the bytes at the end of the
file, then ``fsync`` it once (and the directory too when the append
created the file).  There is no tmp file and no replace — a crash
mid-append leaves a torn tail, which the read side cuts off
(:func:`repro.storage.recovery.read_records`).  :func:`frame_record`
gives each appended record its own sha256, so a reader can verify
every record without the manifest.

Fault injection (:mod:`repro.storage.faults`) hooks three points of
both primitives — while the bytes are written, before they are
committed (the replace, or the append's fsync) and after: an activated
injector can tear the write at byte *k*, raise ``ENOSPC`` mid-write,
or crash the process between any two steps — which is how the
crash-consistency harness proves the discipline holds.

``durable=False`` downgrades a write to a *volatile snapshot*: the tmp
stage and atomic replace are kept (a concurrent reader still never
sees a torn file) but both fsyncs are skipped, so a power loss may
surface the previous complete version instead of the new one.  Reserve
it for advisory artifacts that are regenerated from durable state —
the live telemetry exports, the wall-clock profile — never for
anything resume reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "MANIFEST_FILE",
    "ArtifactWriter",
    "append_bytes",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
    "atomic_write_text",
    "file_sha256",
    "frame_record",
    "fsync_enabled",
    "load_manifest",
    "set_fsync",
    "sha256_hex",
]

MANIFEST_FILE = "MANIFEST.json"
"""Per-run artifact ledger (sha256 + generation per artifact)."""

MANIFEST_FORMAT = "corleone-manifest"
MANIFEST_VERSION = 1

TMP_SUFFIX = ".tmp"
"""Suffix of in-flight write files (stale ones are crash leftovers)."""

_HASH_CHUNK = 1 << 20

_FSYNC = os.environ.get("CORLEONE_STORAGE_FSYNC", "1") != "0"
"""Module-wide fsync switch.  Disabled only by the durability-overhead
benchmark (``collect_results.py --storage``), which measures exactly
what the discipline costs; production and tests keep it on."""


def set_fsync(enabled: bool) -> None:
    """Toggle the fsync discipline (benchmark baseline only)."""
    global _FSYNC
    _FSYNC = bool(enabled)


def fsync_enabled() -> bool:
    """Whether writes currently fsync file and directory."""
    return _FSYNC


def sha256_hex(data: bytes) -> str:
    """The sha256 hex digest of an in-memory payload."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str | Path, limit: int | None = None) -> str:
    """The sha256 hex digest of a file (of its first ``limit`` bytes,
    when given), read in bounded chunks."""
    digest = hashlib.sha256()
    remaining = math.inf if limit is None else limit
    with open(path, "rb") as handle:
        while remaining > 0 and (
                chunk := handle.read(min(_HASH_CHUNK, remaining))):
            digest.update(chunk)
            remaining -= len(chunk)
    return digest.hexdigest()


def _fsync_file(handle: Any) -> None:
    """Flush and fsync one open file handle (if the discipline is on)."""
    handle.flush()
    if _FSYNC:
        os.fsync(handle.fileno())


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-completed rename is durable."""
    if not _FSYNC:
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _active_injector():
    """The currently activated fault injector, if any (lazy import)."""
    from .faults import active_injector

    return active_injector()


def atomic_write_bytes(path: str | Path, data: bytes,
                       durable: bool = True) -> str:
    """Durably replace ``path`` with ``data``; return the sha256.

    Implements the full discipline (tmp write, file fsync, atomic
    replace, directory fsync).  A crash at any point leaves either the
    old complete file or the new complete file at ``path`` — never a
    torn mix — plus at worst a stale ``.tmp`` neighbour for
    :func:`repro.storage.recovery.cleanup_stale_tmp` to sweep.
    ``durable=False`` skips both fsyncs (see the module docstring) —
    replace-atomicity survives, power-loss durability does not.
    """

    def write(handle: Any) -> None:
        handle.write(data)

    return _atomic_write(Path(path), write, precomputed=sha256_hex(data),
                         durable=durable)


def atomic_write_text(path: str | Path, text: str,
                      durable: bool = True) -> str:
    """Durably replace ``path`` with UTF-8 ``text``; return the sha256."""
    return atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


def atomic_write_json(path: str | Path, document: Any,
                      indent: int | None = None,
                      sort_keys: bool = False,
                      durable: bool = True) -> str:
    """Durably replace ``path`` with a JSON document; return the sha256."""
    return atomic_write_text(
        path, json.dumps(document, indent=indent, sort_keys=sort_keys),
        durable=durable)


def atomic_write_npz(path: str | Path, arrays: dict[str, Any]) -> str:
    """Durably replace ``path`` with an uncompressed ``.npz`` archive.

    The archive bytes are produced by numpy directly into the tmp file
    (zip writing seeks, so the digest is computed by re-reading the
    just-written tmp — still page-cache-hot).  Returns the sha256 of
    the final bytes.  Arrays are stored raw: deflating a feature matrix
    costs more time than the bytes it saves are worth to a run
    directory.
    """
    import numpy as np

    def write(handle: Any) -> None:
        np.savez(handle, **arrays)

    return _atomic_write(Path(path), write, precomputed=None)


def _atomic_write(path: Path, write: Callable[[Any], None],
                  precomputed: str | None, durable: bool = True) -> str:
    """The shared discipline behind every ``atomic_write_*`` function.

    ``write`` fills the open tmp handle; ``precomputed`` carries the
    payload digest when the caller already holds the exact bytes (JSON
    and text), otherwise the tmp file is hashed after writing (npz).
    The activated fault injector (if any) is consulted at each step —
    see the module docstring for the step numbering.  ``durable=False``
    drops steps 2 and 4 (the fsyncs) but keeps every injector hook, so
    the crash-consistency harness exercises volatile writes too.
    """
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    injector = _active_injector()
    with _create(tmp) as handle:
        write(handle)
        if injector is not None:
            injector.during_write(path, handle, 0)
        if durable:
            _fsync_file(handle)
        else:
            handle.flush()
    digest = precomputed if precomputed is not None else file_sha256(tmp)
    if injector is not None:
        injector.before_commit(path)
    os.replace(tmp, path)
    if injector is not None:
        injector.after_commit(path)
    if durable:
        _fsync_dir(path.parent)
    return digest


def _create(path: Path) -> Any:
    """Open ``path`` for writing, creating missing parent directories
    (only when the open fails: most writes land in a directory that
    exists, and checking first costs a syscall every time)."""
    try:
        return open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb")


def append_bytes(path: str | Path, data: bytes) -> int:
    """Durably append ``data`` to ``path``; return the offset it starts at.

    One write at the end of the file and one ``fsync`` of it — plus
    one of the parent directory when this append created the file, so
    the new name is durable too.  A crash mid-append can leave a prefix
    of ``data`` at the end of the file; readers of an append-only file
    must cut such a torn tail off (the checkpoint log's records are
    framed by :func:`frame_record` for exactly that).  The injector
    hooks sit where :func:`_atomic_write` has them: after the bytes hit
    the handle, and before and after the commit (here, the fsync).
    """
    path = Path(path)
    created = not path.exists()
    injector = _active_injector()
    with open(path, "ab") as handle:
        start = handle.tell()
        handle.write(data)
        if injector is not None:
            injector.during_write(path, handle, start)
            injector.before_commit(path)
        _fsync_file(handle)
    if injector is not None:
        injector.after_commit(path)
    if created:
        _fsync_dir(path.parent)
    return start


RECORD_HEAD = b'{"sha256":"'
"""How every framed record line starts (see :func:`frame_record`)."""

RECORD_BODY = b'","record":'
"""What separates a framed record's digest from its body."""


def frame_record(body: bytes) -> bytes:
    """One self-checksummed line for an append-only record log.

    The line is itself a JSON object, ``{"sha256": <hex>, "record":
    <body>}``, so the log stays readable with any JSONL tool, while the
    digest covers the exact ``body`` bytes at a fixed offset — a reader
    verifies it by slicing, without re-serializing
    (:func:`repro.storage.recovery.read_records`).  ``body`` must be
    one line of JSON (``json.dumps`` without ``indent`` is).
    """
    return (RECORD_HEAD + sha256_hex(body).encode("ascii") + RECORD_BODY
            + body + b"}\n")


def load_manifest(root: str | Path) -> dict[str, Any] | None:
    """The parsed artifact ledger of ``root``, or None.

    Tolerant by design: a missing manifest (pre-durability run
    directories, hand-built test fixtures) and an unreadable one both
    return None — verification is then simply unavailable and readers
    fall back to content-level checks.  The manifest is metadata about
    artifacts, never the artifact of record itself.
    """
    path = Path(root) / MANIFEST_FILE
    if not path.is_file():
        return None
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if document.get("format") != MANIFEST_FORMAT:
        return None
    artifacts = document.get("artifacts")
    return artifacts if isinstance(artifacts, dict) else None


class ArtifactWriter:
    """Durable writes under one root directory, with a manifest.

    All paths are recorded in the manifest relative to ``root`` (POSIX
    form), so a run directory can be archived or moved wholesale.  The
    manifest is rewritten (durably) after every write; wrap a burst of
    writes in :meth:`batch` to defer that to one rewrite — a crash
    mid-batch leaves the manifest stale, which the recovery reader
    treats as "fall back to the newest artifact that verifies".

    Each durable component keeps its own root and ledger: the engine's
    checkpointer writes ``<run_dir>/MANIFEST.json``, and the sharded
    blocking executor's :class:`~repro.exec.sharding.ShardStore` keeps
    its own under ``<run_dir>/shards``.  Every manifest flush still
    re-reads the ledger from disk and merges only its own dirty
    entries, so a second writer on the same root (a resumed process,
    say) never clobbers records it did not stage.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._dirty: dict[str, dict[str, Any] | None] = {}
        """Staged manifest entries by key; None stages a removal."""
        self._batch_depth = 0

    # -- path bookkeeping ----------------------------------------------

    def _resolve(self, relpath: str | Path) -> tuple[Path, str]:
        """(absolute path, manifest key) for one artifact path."""
        path = Path(relpath)
        if not path.is_absolute():
            path = self.root / path
        try:
            key = path.resolve().relative_to(
                self.root.resolve()).as_posix()
        except ValueError:
            key = path.name
        return path, key

    # -- writes ---------------------------------------------------------

    def atomic_write_bytes(self, relpath: str | Path,
                           data: bytes) -> Path:
        """Durably write raw bytes and record them in the manifest."""
        path, key = self._resolve(relpath)
        digest = atomic_write_bytes(path, data)
        self._record(key, digest, len(data))
        return path

    def atomic_write_text(self, relpath: str | Path, text: str) -> Path:
        """Durably write UTF-8 text and record it in the manifest."""
        return self.atomic_write_bytes(relpath, text.encode("utf-8"))

    def atomic_write_json(self, relpath: str | Path, document: Any,
                          indent: int | None = None,
                          sort_keys: bool = False) -> Path:
        """Durably write a JSON document and record it in the manifest."""
        return self.atomic_write_text(
            relpath,
            json.dumps(document, indent=indent, sort_keys=sort_keys))

    def atomic_write_npz(self, relpath: str | Path,
                         arrays: dict[str, Any]) -> Path:
        """Durably write an ``.npz`` archive and record it."""
        path, key = self._resolve(relpath)
        digest = atomic_write_npz(path, arrays)
        self._record(key, digest, path.stat().st_size)
        return path

    def record_file(self, relpath: str | Path,
                    prefix: bool = False) -> str:
        """Manifest an artifact that was written *outside* the writer.

        The escape hatch for bytes that cannot flow through a tmp file:
        append-only logs.  The caller must have made the bytes durable
        first (:func:`append_bytes` fsyncs); this hashes the on-disk
        bytes and records them.  ``prefix=True`` marks an
        append-only file: the entry then vouches for its first
        ``bytes`` bytes only, and later appends do not make it stale
        (:func:`repro.storage.recovery.verify_artifact`).  Returns the
        sha256.
        """
        path, key = self._resolve(relpath)
        digest = file_sha256(path)
        self._record(key, digest, path.stat().st_size, prefix=prefix)
        return digest

    # -- manifest -------------------------------------------------------

    def _record(self, key: str, digest: str, nbytes: int,
                prefix: bool = False) -> None:
        """Stage one manifest entry; flush unless inside a batch."""
        if key in self._dirty:
            previous = self._dirty[key]
        else:
            previous = (load_manifest(self.root) or {}).get(key)
        generation = (int(previous.get("generation", 0)) + 1
                      if isinstance(previous, dict) else 1)
        self._dirty[key] = {
            "sha256": digest,
            "bytes": int(nbytes),
            "generation": generation,
        }
        if prefix:
            self._dirty[key]["prefix"] = True
        if self._batch_depth == 0:
            self.flush_manifest()

    def entry(self, relpath: str | Path) -> dict[str, Any] | None:
        """The staged-or-persisted manifest entry for one artifact."""
        _, key = self._resolve(relpath)
        if key in self._dirty:
            value = self._dirty[key]
        else:
            value = (load_manifest(self.root) or {}).get(key)
        return dict(value) if isinstance(value, dict) else None

    def forget(self, relpath: str | Path) -> None:
        """Drop an artifact's manifest entry (a deleted shard file).

        Staged like a write: inside a :meth:`batch` the removal lands
        with the batch's one manifest flush, so a caller deleting the
        file afterwards never leaves an entry for a missing file.
        """
        _, key = self._resolve(relpath)
        self._dirty[key] = None
        if self._batch_depth == 0:
            self.flush_manifest()

    def flush_manifest(self) -> None:
        """Merge staged entries and removals into the on-disk ledger,
        durably; a flush that changes nothing writes nothing."""
        if not self._dirty:
            return
        ledger = load_manifest(self.root) or {}
        changed = False
        for key, value in self._dirty.items():
            if value is not None:
                ledger[key] = value
                changed = True
            elif ledger.pop(key, None) is not None:
                changed = True
        if changed:
            self._write_ledger(ledger)
        self._dirty.clear()

    def _write_ledger(self, ledger: dict[str, Any]) -> None:
        """One durable rewrite of ``MANIFEST.json``."""
        document = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "artifacts": {key: ledger[key] for key in sorted(ledger)},
        }
        atomic_write_json(self.root / MANIFEST_FILE, document,
                          indent=2, sort_keys=True)

    @contextmanager
    def batch(self):
        """Defer manifest flushes to one rewrite at block exit.

        A run's end records several artifacts (the checkpoint log's
        verified prefix and the final telemetry exports); batching
        turns their ledger rewrites into one.  A crash inside the batch
        loses only manifest *entries* — the artifacts themselves are
        already durable, and recovery falls back past unverifiable
        ones.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self.flush_manifest()
