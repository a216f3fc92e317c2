"""Durable artifact storage: atomic writes, manifests, fault recovery.

The storage layer owns every byte the run directory holds.  Three
modules:

* :mod:`~repro.storage.writer` — the one sanctioned way to write a
  run-directory artifact: tmp file, fsync, atomic replace, directory
  fsync — or, for an append-only log, one append and one fsync of
  self-checksummed records — and a per-run ``MANIFEST.json`` ledger of
  sha256 + generation per artifact (corlint CL016 pins every write
  site to it);
* :mod:`~repro.storage.recovery` — the read-side policy: checksum
  verification, quarantine of corrupt artifacts and of a record log's
  bad tail, stale-``.tmp`` sweeping and torn-trace repair, with a
  :class:`RecoveryLog` carrying detections to the event bus;
* :mod:`~repro.storage.faults` — deterministic filesystem fault
  injection (torn writes, ``ENOSPC``, crashes straddling the replace,
  bit rot, stale tmp litter) powering the crash-consistency harness.

See ``docs/robustness.md`` ("Storage durability") for the failure
model and recovery semantics.
"""

from .faults import (
    STORAGE_FAULT_KINDS,
    SimulatedCrashError,
    StorageFaultInjector,
    storage_fault_seed,
)
from .recovery import (
    QUARANTINE_DIR,
    RecoveryLog,
    cleanup_stale_tmp,
    quarantine_artifact,
    quarantine_tail,
    read_records,
    repair_trace,
    verify_artifact,
)
from .writer import (
    MANIFEST_FILE,
    ArtifactWriter,
    append_bytes,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    atomic_write_text,
    file_sha256,
    frame_record,
    fsync_enabled,
    load_manifest,
    set_fsync,
    sha256_hex,
)

__all__ = [
    "MANIFEST_FILE",
    "QUARANTINE_DIR",
    "STORAGE_FAULT_KINDS",
    "ArtifactWriter",
    "RecoveryLog",
    "SimulatedCrashError",
    "StorageFaultInjector",
    "append_bytes",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
    "atomic_write_text",
    "cleanup_stale_tmp",
    "file_sha256",
    "frame_record",
    "fsync_enabled",
    "load_manifest",
    "quarantine_artifact",
    "quarantine_tail",
    "read_records",
    "repair_trace",
    "set_fsync",
    "sha256_hex",
    "storage_fault_seed",
    "verify_artifact",
]
