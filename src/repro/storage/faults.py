"""Deterministic filesystem fault injection for the storage layer.

The disk-side sibling of :mod:`repro.crowd.faults`: where that module
makes the *crowd* misbehave on a replayable schedule, this one makes
the *filesystem* misbehave — torn writes, a full disk, a process crash
straddling the atomic-replace sequence, bit rot on a file at rest, and
stale ``.tmp`` leftovers.  The same determinism contract applies: every
fault kind draws from its own named, seed-derived RNG stream
(:func:`storage_fault_seed`), so a given seed reproduces the exact
same torn-byte offsets and bit positions, and the crash-consistency
harness (``tests/test_storage_chaos.py``) can assert bit-identical
recovery.

An injector interposes on the three hook points both write primitives
share — :func:`repro.storage.writer._atomic_write` (tmp file, replace)
and :func:`repro.storage.writer.append_bytes` (append, fsync) — via a
module activation stack (the :data:`repro.obs.profiling._ACTIVE`
pattern): production code never imports this module's machinery, it
just hits the hook points, which are no-ops unless a test armed an
injector.  The fault taxonomy, and where each fault lands in the write
sequence:

================  ====================================================
kind              effect
================  ====================================================
torn_write        the bytes being written are cut at a drawn offset,
                  then the process "crashes" (:class:`SimulatedCrashError`)
                  — an atomic write's target keeps its old complete
                  content; an append leaves a torn tail
enospc            the write raises ``OSError(ENOSPC)`` — it fails
                  cleanly, the caller sees a real disk error
crash_before      crash before the commit: after the tmp is complete
                  and fsynced but before ``os.replace`` (old target +
                  stale ``.tmp``), or after an append but before its
                  fsync
crash_after       crash after the commit: after ``os.replace`` but
                  before the directory fsync (new target already
                  visible), or after an append's fsync
bitflip           one deterministic bit of a *finished* artifact is
                  inverted in place (bit rot at rest; applied by the
                  harness between kill and resume)
stale_tmp         junk ``*.tmp`` files scattered into a directory, as
                  a crashed predecessor would leave behind
================  ====================================================

The two crash kinds simulate a ``kill -9`` by raising
:class:`SimulatedCrashError` in-process; cleanup ``finally`` blocks do
run (unlike a real kill), which is the same compromise the engine's
existing kill/resume sweeps make — byte-identity of the *resumed* run
is what the harness asserts, and that is unaffected.
"""

from __future__ import annotations

import errno
import os
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from .writer import TMP_SUFFIX

__all__ = [
    "STORAGE_FAULT_KINDS",
    "SimulatedCrashError",
    "StorageFaultInjector",
    "activate",
    "active_injector",
    "deactivate",
    "storage_fault_seed",
]

FAULT_TORN_WRITE = "torn_write"
FAULT_ENOSPC = "enospc"
FAULT_CRASH_BEFORE = "crash_before"
FAULT_CRASH_AFTER = "crash_after"
FAULT_BITFLIP = "bitflip"
FAULT_STALE_TMP = "stale_tmp"

STORAGE_FAULT_KINDS = (
    FAULT_TORN_WRITE,
    FAULT_ENOSPC,
    FAULT_CRASH_BEFORE,
    FAULT_CRASH_AFTER,
    FAULT_BITFLIP,
    FAULT_STALE_TMP,
)
"""Every storage fault kind, each with its own RNG stream."""

_ACTIVE: list["StorageFaultInjector"] = []
"""The activation stack; the writer's hook points consult the top."""


class SimulatedCrashError(BaseException):
    """The process "died" mid-write (injected, test harness only).

    Derives from :class:`BaseException` — not ``Exception`` — so no
    production ``except Exception`` handler can accidentally swallow a
    simulated crash and carry on as if the write had succeeded; only
    the harness that armed the injector catches it.
    """

    def __init__(self, kind: str, path: Path) -> None:
        super().__init__(f"simulated crash ({kind}) while writing {path}")
        self.kind = kind
        self.path = Path(path)


def storage_fault_seed(root: int | np.random.SeedSequence,
                       kind: str) -> np.random.SeedSequence:
    """The named seed sequence for one storage-fault kind's stream.

    Mirrors :func:`repro.crowd.faults.fault_stream_seed` (and through
    it :meth:`repro.engine.context.RunContext.rng`): a deterministic
    function of the root seed and the stream *name* only, so arming one
    fault kind never shifts another kind's draws.
    """
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    key = zlib.crc32(f"storage.{kind}".encode("utf-8"))
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=(*root.spawn_key, key),
    )


def activate(injector: "StorageFaultInjector") -> None:
    """Make ``injector`` the target of the writer's hook points."""
    _ACTIVE.append(injector)


def deactivate(injector: "StorageFaultInjector") -> None:
    """Remove ``injector`` from the activation stack (no-op if absent)."""
    if injector in _ACTIVE:
        _ACTIVE.remove(injector)


def active_injector() -> "StorageFaultInjector | None":
    """The injector the writer should consult, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


class StorageFaultInjector:
    """Arms one storage fault against one write site, deterministically.

    The harness arms a (kind, filename-substring, occurrence) triple
    with :meth:`arm`; when the matching write reaches the fault's hook
    point, the injector fires once and disarms.  Use as a context
    manager to scope activation::

        injector = StorageFaultInjector(seed=7)
        injector.arm("torn_write", "checkpoint.jsonl", skip=2)
        with injector:
            ...   # the third checkpoint record is torn

    Counts are kept per kind (`counts`) so the harness and the
    benchmark sweep can report how many faults actually fired.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0) -> None:
        self._rngs = {
            kind: np.random.default_rng(storage_fault_seed(seed, kind))
            for kind in STORAGE_FAULT_KINDS
        }
        self.counts: dict[str, int] = dict.fromkeys(STORAGE_FAULT_KINDS, 0)
        """Faults fired so far, by kind."""
        self._armed_kind: str | None = None
        self._armed_match: str = ""
        self._armed_skip = 0
        self.fired: SimulatedCrashError | None = None
        """The crash this injector raised, if any (harness telemetry)."""

    def __enter__(self) -> "StorageFaultInjector":
        activate(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        deactivate(self)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self, kind: str, match: str, skip: int = 0) -> None:
        """Schedule one fault of ``kind`` against the next write whose
        target filename contains ``match``, after skipping ``skip``
        earlier matches.  Only one fault is armed at a time; it disarms
        when it fires."""
        if kind not in STORAGE_FAULT_KINDS:
            raise ValueError(f"unknown storage fault kind: {kind!r}")
        self._armed_kind = kind
        self._armed_match = match
        self._armed_skip = int(skip)

    @property
    def armed(self) -> bool:
        """Whether a fault is scheduled and has not fired yet."""
        return self._armed_kind is not None

    def _take(self, kind: str, path: Path) -> bool:
        """True if the armed fault is ``kind`` and matches this write
        (consuming one skip otherwise)."""
        if self._armed_kind != kind or self._armed_match not in path.name:
            return False
        if self._armed_skip > 0:
            # Count down on *any* hook of the matching write, keyed to
            # the kind's own hook point so one write decrements once.
            self._armed_skip -= 1
            return False
        self._armed_kind = None
        self.counts[kind] += 1
        return True

    def _crash(self, kind: str, path: Path) -> None:
        """Raise (and remember) one simulated crash."""
        self.fired = SimulatedCrashError(kind, path)
        raise self.fired

    # ------------------------------------------------------------------
    # Hook points (called by both repro.storage.writer primitives)
    # ------------------------------------------------------------------

    def during_write(self, path: Path, handle: Any, start: int) -> None:
        """Hook after the bytes hit the handle, before they are synced.

        ``start`` is where this write's bytes begin in the file (0 for
        an atomic write's tmp file, the old end of file for an append),
        so a tear never reaches into bytes an earlier write committed.
        """
        if self._take(FAULT_TORN_WRITE, path):
            handle.flush()
            size = os.fstat(handle.fileno()).st_size
            # Tear strictly inside the new bytes: at least one byte is
            # lost, at least zero survive.
            cut = (int(self._rngs[FAULT_TORN_WRITE].integers(start, size))
                   if size > start else start)
            os.ftruncate(handle.fileno(), cut)
            self._crash(FAULT_TORN_WRITE, path)
        if self._take(FAULT_ENOSPC, path):
            # The disk took none of the new bytes: an append fails
            # cleanly, leaving the file as its last commit left it.
            handle.flush()
            os.ftruncate(handle.fileno(), start)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(handle.name))

    def before_commit(self, path: Path) -> None:
        """Hook before the write commits (the replace, or the fsync)."""
        if self._take(FAULT_CRASH_BEFORE, path):
            self._crash(FAULT_CRASH_BEFORE, path)

    def after_commit(self, path: Path) -> None:
        """Hook after the write committed, before the directory fsync."""
        if self._take(FAULT_CRASH_AFTER, path):
            self._crash(FAULT_CRASH_AFTER, path)

    # ------------------------------------------------------------------
    # At-rest faults (applied by the harness, not via write hooks)
    # ------------------------------------------------------------------

    def flip_bit(self, path: str | Path, start: int = 0,
                 stop: int | None = None) -> int:
        """Invert one deterministic bit of ``path`` in place.

        Simulates bit rot on a finished artifact: the byte offset (in
        ``[start, stop)``, the whole file by default — narrow it to hit
        one record of a log) and the bit index come from the ``bitflip``
        stream.  Returns the byte offset flipped.  The write is
        deliberately *not* atomic — rot does not announce itself.
        """
        path = Path(path)
        data = bytearray(path.read_bytes())
        stop = len(data) if stop is None else min(stop, len(data))
        if stop <= start:
            return start
        rng = self._rngs[FAULT_BITFLIP]
        offset = int(rng.integers(start, stop))
        bit = int(rng.integers(0, 8))
        data[offset] ^= 1 << bit
        path.write_bytes(bytes(data))
        self.counts[FAULT_BITFLIP] += 1
        return offset

    def scatter_stale_tmp(self, directory: str | Path,
                          count: int = 2) -> list[Path]:
        """Drop ``count`` junk ``*.tmp`` files into ``directory``.

        Reproduces what a crashed predecessor leaves behind; resume is
        expected to sweep them (`repro.storage.recovery.cleanup_stale_tmp`).
        Contents and names are drawn from the ``stale_tmp`` stream.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rng = self._rngs[FAULT_STALE_TMP]
        paths = []
        for _ in range(count):
            token = int(rng.integers(0, 1 << 30))
            junk = rng.integers(0, 256,
                                size=int(rng.integers(1, 64)),
                                dtype=np.uint8).tobytes()
            path = directory / f"stale-{token:08x}.json{TMP_SUFFIX}"
            path.write_bytes(junk)
            paths.append(path)
            self.counts[FAULT_STALE_TMP] += 1
        return paths
