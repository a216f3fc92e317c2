"""The durable-storage subsystem: writer, manifest, recovery, faults.

Unit coverage for :mod:`repro.storage` — the atomic-write discipline,
the per-run ``MANIFEST.json`` ledger, checkpoint generations with
last-good fallback, quarantine/sweep/repair recovery, and the
deterministic storage fault injector — plus hypothesis property tests
proving the torn-write contract: a checkpoint document truncated at
*any* byte offset resumes from the last good generation, and a torn
``.npz`` always surfaces as a typed :class:`~repro.exceptions.DataError`
rather than a raw zipfile/numpy traceback.
"""

from __future__ import annotations

import errno
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import persistence
from repro.exceptions import DataError
from repro.exec.sharding import ShardStore
from repro.engine.checkpoint import (
    CHECKPOINT_FILE,
    GENERATIONS_DIR,
    load_checkpoint,
)
from repro.storage import (
    MANIFEST_FILE,
    QUARANTINE_DIR,
    STORAGE_FAULT_KINDS,
    ArtifactWriter,
    RecoveryLog,
    SimulatedCrashError,
    StorageFaultInjector,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    atomic_write_text,
    cleanup_stale_tmp,
    file_sha256,
    fsync_enabled,
    load_manifest,
    quarantine_artifact,
    repair_trace,
    set_fsync,
    sha256_hex,
    storage_fault_seed,
    verify_artifact,
)


class TestAtomicWrites:
    """The free atomic_write_* functions."""

    def test_bytes_roundtrip_and_digest(self, tmp_path):
        path = tmp_path / "artifact.bin"
        digest = atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert digest == sha256_hex(b"payload") == file_sha256(path)

    def test_replaces_existing_content_atomically(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert not list(tmp_path.glob("*.tmp"))

    def test_json_and_npz_roundtrip(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        atomic_write_json(doc_path, {"b": 2, "a": 1}, sort_keys=True)
        assert json.loads(doc_path.read_text()) == {"a": 1, "b": 2}

        npz_path = tmp_path / "arrays.npz"
        digest = atomic_write_npz(npz_path, {"x": np.arange(5)})
        assert digest == file_sha256(npz_path)
        with np.load(npz_path) as data:
            assert data["x"].tolist() == [0, 1, 2, 3, 4]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "doc.json"
        atomic_write_json(path, {"ok": True})
        assert json.loads(path.read_text()) == {"ok": True}

    def test_fsync_toggle(self):
        assert fsync_enabled()
        try:
            set_fsync(False)
            assert not fsync_enabled()
        finally:
            set_fsync(True)
        assert fsync_enabled()

    def test_volatile_write_skips_fsync_but_stays_atomic(
            self, tmp_path, monkeypatch):
        """durable=False: no fsync, same replace discipline and digest."""
        import os as _os

        calls = []
        real_fsync = _os.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: calls.append(fd) or real_fsync(fd))

        path = tmp_path / "snapshot.json"
        atomic_write_text(path, "old")
        assert calls  # the durable default fsyncs
        calls.clear()
        digest = atomic_write_json(path, {"live": True}, durable=False)
        assert not calls  # volatile snapshots never fsync
        assert json.loads(path.read_text()) == {"live": True}
        assert digest == file_sha256(path)
        assert not list(tmp_path.glob("*.tmp"))


class TestArtifactWriter:
    """The manifest-keeping writer."""

    def test_writes_are_recorded_with_sha_bytes_generation(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.atomic_write_text("a.txt", "alpha")
        manifest = load_manifest(tmp_path)
        entry = manifest["a.txt"]
        assert entry["sha256"] == sha256_hex(b"alpha")
        assert entry["bytes"] == 5
        assert entry["generation"] == 1

    def test_generation_increments_per_rewrite(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        for n in range(3):
            writer.atomic_write_text("a.txt", f"v{n}")
        assert load_manifest(tmp_path)["a.txt"]["generation"] == 3

    def test_batch_defers_manifest_flush(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        with writer.batch():
            writer.atomic_write_text("a.txt", "alpha")
            assert load_manifest(tmp_path) is None
        assert load_manifest(tmp_path)["a.txt"]["bytes"] == 5

    def test_shared_root_writers_merge_not_clobber(self, tmp_path):
        first = ArtifactWriter(tmp_path)
        second = ArtifactWriter(tmp_path)
        first.atomic_write_text("a.txt", "alpha")
        second.atomic_write_text("b.txt", "beta")
        manifest = load_manifest(tmp_path)
        assert set(manifest) == {"a.txt", "b.txt"}

    def test_record_file_manifests_external_bytes(self, tmp_path):
        (tmp_path / "spill.npy").write_bytes(b"external")
        writer = ArtifactWriter(tmp_path)
        digest = writer.record_file("spill.npy")
        assert digest == sha256_hex(b"external")
        assert load_manifest(tmp_path)["spill.npy"]["bytes"] == 8

    def test_forget_drops_entry(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.atomic_write_text("a.txt", "alpha")
        writer.atomic_write_text("b.txt", "beta")
        writer.forget("a.txt")
        assert set(load_manifest(tmp_path)) == {"b.txt"}
        assert writer.entry("a.txt") is None

    def test_entry_reads_staged_then_persisted(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        with writer.batch():
            writer.atomic_write_text("a.txt", "alpha")
            assert writer.entry("a.txt")["generation"] == 1
        assert writer.entry("a.txt")["generation"] == 1


class TestLoadManifestTolerance:
    """The ledger is metadata — unreadable means unavailable, not fatal."""

    def test_missing_is_none(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_junk_is_none(self, tmp_path):
        (tmp_path / MANIFEST_FILE).write_text("{not json")
        assert load_manifest(tmp_path) is None

    def test_wrong_format_is_none(self, tmp_path):
        (tmp_path / MANIFEST_FILE).write_text(
            json.dumps({"format": "something-else", "artifacts": {}}))
        assert load_manifest(tmp_path) is None


class TestVerifyArtifact:
    def test_match_mismatch_and_absent(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        path = writer.atomic_write_text("a.txt", "alpha")
        verdict, actual, expected = verify_artifact(tmp_path, path)
        assert verdict is True and actual == expected

        path.write_text("tampered")
        verdict, actual, expected = verify_artifact(tmp_path, path)
        assert verdict is False
        assert actual == sha256_hex(b"tampered")
        assert expected == sha256_hex(b"alpha")

        unknown = tmp_path / "unknown.txt"
        unknown.write_text("x")
        verdict, _, expected = verify_artifact(tmp_path, unknown)
        assert verdict is None and expected is None

    def test_no_manifest_means_unavailable(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("alpha")
        verdict, actual, expected = verify_artifact(tmp_path, path)
        assert (verdict, actual, expected) == (None, "", None)


class TestQuarantine:
    def test_moves_bytes_aside_never_deletes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"evidence")
        target = quarantine_artifact(tmp_path, path)
        assert not path.exists()
        assert target == tmp_path / QUARANTINE_DIR / "bad.json"
        assert target.read_bytes() == b"evidence"

    def test_deterministic_integer_suffix_on_collision(self, tmp_path):
        for n in range(3):
            path = tmp_path / "bad.json"
            path.write_bytes(f"v{n}".encode())
            target = quarantine_artifact(tmp_path, path)
            expected = "bad.json" if n == 0 else f"bad.json.{n}"
            assert target.name == expected


class TestCleanupStaleTmp:
    def test_sweeps_recursively_and_sorted(self, tmp_path):
        (tmp_path / "a.json.tmp").write_bytes(b"x")
        sub = tmp_path / "generations"
        sub.mkdir()
        (sub / "b.json.tmp").write_bytes(b"y")
        (tmp_path / "keep.json").write_text("{}")
        removed = cleanup_stale_tmp(tmp_path)
        assert removed == sorted(removed)
        assert {p.name for p in removed} == {"a.json.tmp", "b.json.tmp"}
        assert (tmp_path / "keep.json").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_missing_directory_is_noop(self, tmp_path):
        assert cleanup_stale_tmp(tmp_path / "absent") == []


class TestRepairTrace:
    def test_clean_trace_untouched(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"sequence": 0}\n{"sequence": 1}\n')
        assert repair_trace(path) == 0
        assert path.read_bytes().endswith(b'{"sequence": 1}\n')

    def test_torn_tail_truncated_to_last_newline(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"sequence": 0}\n{"seque')
        assert repair_trace(path) == len(b'{"seque')
        assert path.read_bytes() == b'{"sequence": 0}\n'

    def test_fully_torn_single_line_becomes_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"torn')
        assert repair_trace(path) == 6
        assert path.read_bytes() == b""

    def test_missing_file_is_noop(self, tmp_path):
        assert repair_trace(tmp_path / "absent.jsonl") == 0


class TestRecoveryLog:
    def test_buffers_then_replays_in_order(self):
        class Bus:
            def __init__(self):
                self.seen = []

            def emit(self, name, **payload):
                self.seen.append((name, payload))

        log = RecoveryLog()
        log.emit("artifact_corrupt", artifact="a")
        log.emit("checkpoint_fallback", artifact="b")
        bus = Bus()
        log.replay(bus)
        assert [name for name, _ in bus.seen] == [
            "artifact_corrupt", "checkpoint_fallback"]
        assert not log.records
        log.replay(bus)  # idempotent once drained
        assert len(bus.seen) == 2


class TestFaultInjector:
    """Determinism and per-kind behaviour of the storage injector."""

    def test_streams_are_seed_deterministic_and_kind_independent(self):
        seed_a = storage_fault_seed(7, "torn_write")
        seed_b = storage_fault_seed(7, "torn_write")
        assert seed_a.entropy == seed_b.entropy
        assert seed_a.spawn_key == seed_b.spawn_key
        assert (storage_fault_seed(7, "bitflip").spawn_key
                != seed_a.spawn_key)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StorageFaultInjector(0).arm("meteor", "x")

    def test_torn_write_crashes_and_keeps_old_target(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old complete content")
        injector = StorageFaultInjector(seed=3)
        injector.arm("torn_write", "doc.json")
        with injector, pytest.raises(SimulatedCrashError) as excinfo:
            atomic_write_text(path, "new content that will tear")
        assert excinfo.value.kind == "torn_write"
        assert path.read_text() == "old complete content"
        tmp = path.with_name(path.name + ".tmp")
        assert tmp.exists()  # the torn leftover, for the sweep
        assert len(tmp.read_bytes()) < len(b"new content that will tear")
        assert not injector.armed and injector.counts["torn_write"] == 1

    def test_torn_offsets_replay_with_same_seed(self, tmp_path):
        def torn_size(root: Path) -> int:
            path = root / "doc.json"
            injector = StorageFaultInjector(seed=11)
            injector.arm("torn_write", "doc.json")
            with injector, pytest.raises(SimulatedCrashError):
                atomic_write_text(path, "x" * 100)
            return len((root / "doc.json.tmp").read_bytes())

        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        assert torn_size(first) == torn_size(second)

    def test_enospc_raises_real_oserror(self, tmp_path):
        path = tmp_path / "doc.json"
        injector = StorageFaultInjector(seed=3)
        injector.arm("enospc", "doc.json")
        with injector, pytest.raises(OSError) as excinfo:
            atomic_write_text(path, "content")
        assert excinfo.value.errno == errno.ENOSPC
        assert not path.exists()

    def test_crash_before_replace_keeps_old_plus_stale_tmp(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old")
        injector = StorageFaultInjector(seed=3)
        injector.arm("crash_before", "doc.json")
        with injector, pytest.raises(SimulatedCrashError):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert (path.with_name("doc.json.tmp")).read_text() == "new"

    def test_crash_after_replace_shows_new_content(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old")
        injector = StorageFaultInjector(seed=3)
        injector.arm("crash_after", "doc.json")
        with injector, pytest.raises(SimulatedCrashError):
            atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert not path.with_name("doc.json.tmp").exists()

    def test_skip_counts_down_matching_writes(self, tmp_path):
        path = tmp_path / "doc.json"
        injector = StorageFaultInjector(seed=3)
        injector.arm("crash_after", "doc.json", skip=2)
        with injector:
            atomic_write_text(path, "one")
            atomic_write_text(path, "two")
            with pytest.raises(SimulatedCrashError):
                atomic_write_text(path, "three")
        assert path.read_text() == "three"

    def test_non_matching_writes_pass_through(self, tmp_path):
        injector = StorageFaultInjector(seed=3)
        injector.arm("crash_before", "checkpoint.json")
        with injector:
            atomic_write_text(tmp_path / "other.json", "fine")
        assert injector.armed  # still waiting for its target

    def test_flip_bit_changes_exactly_one_bit_deterministically(
            self, tmp_path):
        path = tmp_path / "artifact.bin"
        payload = bytes(range(64))
        path.write_bytes(payload)
        offset = StorageFaultInjector(seed=5).flip_bit(path)
        flipped = path.read_bytes()
        assert len(flipped) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, flipped))
                 if a != b]
        assert diffs == [offset]
        assert bin(payload[offset] ^ flipped[offset]).count("1") == 1

        other = tmp_path / "replay.bin"
        other.write_bytes(payload)
        assert StorageFaultInjector(seed=5).flip_bit(other) == offset

    def test_scatter_stale_tmp_drops_junk(self, tmp_path):
        paths = StorageFaultInjector(seed=5).scatter_stale_tmp(
            tmp_path, count=3)
        assert len(paths) == 3
        assert all(p.name.endswith(".tmp") for p in paths)
        assert cleanup_stale_tmp(tmp_path) == sorted(paths)

    def test_simulated_crash_is_not_an_exception_subclass(self):
        # No production ``except Exception`` may swallow a crash.
        assert issubclass(SimulatedCrashError, BaseException)
        assert not issubclass(SimulatedCrashError, Exception)

    def test_kind_registry_is_closed(self):
        assert set(STORAGE_FAULT_KINDS) == {
            "torn_write", "enospc", "crash_before", "crash_after",
            "bitflip", "stale_tmp"}


def _checkpoint_doc(index: int, payload) -> dict:
    """A minimal parseable checkpoint document for fallback tests."""
    return {
        "format": "corleone-checkpoint",
        "version": persistence.FORMAT_VERSION,
        "index": index,
        "payload": payload,
    }


def _write_generations(run_dir: Path, documents: list[dict]) -> None:
    """Write a checkpoint chain the way the checkpointer lays it out."""
    writer = ArtifactWriter(run_dir)
    for document in documents:
        body = json.dumps(document)
        name = f"{GENERATIONS_DIR}/checkpoint-{document['index']:06d}.json"
        writer.atomic_write_text(name, body)
        writer.atomic_write_text(CHECKPOINT_FILE, body)


class TestGenerationFallback:
    """load_checkpoint's last-good recovery chain."""

    def test_intact_primary_wins(self, tmp_path):
        _write_generations(tmp_path, [_checkpoint_doc(0, "a"),
                                      _checkpoint_doc(1, "b")])
        document = load_checkpoint(tmp_path)
        assert document["index"] == 1 and document["payload"] == "b"

    def test_corrupt_primary_falls_back_with_zero_rollback(self, tmp_path):
        _write_generations(tmp_path, [_checkpoint_doc(0, "a"),
                                      _checkpoint_doc(1, "b")])
        (tmp_path / CHECKPOINT_FILE).write_text("garbage")
        recovery = RecoveryLog()
        document = load_checkpoint(tmp_path, recovery=recovery)
        # The newest generation duplicates the primary: no ground lost.
        assert document["index"] == 1 and document["payload"] == "b"
        names = [name for name, _ in recovery.records]
        assert names == ["artifact_corrupt", "artifact_quarantined",
                         "checkpoint_fallback"]
        assert (tmp_path / QUARANTINE_DIR / CHECKPOINT_FILE).exists()

    def test_double_corruption_rolls_back_one_generation(self, tmp_path):
        _write_generations(tmp_path, [_checkpoint_doc(0, "a"),
                                      _checkpoint_doc(1, "b")])
        (tmp_path / CHECKPOINT_FILE).write_text("garbage")
        newest = tmp_path / GENERATIONS_DIR / "checkpoint-000001.json"
        newest.write_text("also garbage")
        recovery = RecoveryLog()
        document = load_checkpoint(tmp_path, recovery=recovery)
        assert document["index"] == 0 and document["payload"] == "a"
        fallback = [payload for name, payload in recovery.records
                    if name == "checkpoint_fallback"]
        assert fallback == [{"artifact":
                             f"{GENERATIONS_DIR}/checkpoint-000000.json",
                             "index": 0}]

    def test_everything_corrupt_returns_none(self, tmp_path):
        _write_generations(tmp_path, [_checkpoint_doc(0, "a")])
        (tmp_path / CHECKPOINT_FILE).write_text("garbage")
        (tmp_path / GENERATIONS_DIR
         / "checkpoint-000000.json").write_text("garbage")
        recovery = RecoveryLog()
        assert load_checkpoint(tmp_path, recovery=recovery) is None
        assert len(recovery.records) == 4  # 2 x (corrupt + quarantined)

    def test_verified_but_unparseable_is_a_writer_bug(self, tmp_path):
        # Manifest says these exact bytes are what the writer produced,
        # yet they do not parse: that must surface, not be masked.
        writer = ArtifactWriter(tmp_path)
        writer.atomic_write_text(CHECKPOINT_FILE, "not json at all")
        with pytest.raises(DataError):
            load_checkpoint(tmp_path)

    def test_unmanifested_directory_still_loads(self, tmp_path):
        # Pre-durability run dirs have no MANIFEST.json; parse checks
        # carry the load.
        doc = _checkpoint_doc(4, "legacy")
        (tmp_path / CHECKPOINT_FILE).write_text(json.dumps(doc))
        assert load_checkpoint(tmp_path)["index"] == 4


_JSON_PAYLOADS = st.dictionaries(
    st.text(st.characters(codec="ascii", categories=("L", "N")),
            min_size=1, max_size=8),
    st.integers(-1000, 1000) | st.text(max_size=12),
    max_size=4,
)


class TestTornWriteProperties:
    """Truncation at every byte offset: last-good or typed error."""

    @settings(max_examples=4, deadline=None)
    @given(payload_a=_JSON_PAYLOADS, payload_b=_JSON_PAYLOADS)
    def test_json_checkpoint_truncated_anywhere_resumes_last_good(
            self, payload_a, payload_b):
        with tempfile.TemporaryDirectory() as root:
            run_dir = Path(root)
            _write_generations(run_dir, [_checkpoint_doc(0, payload_a),
                                         _checkpoint_doc(1, payload_b)])
            primary = run_dir / CHECKPOINT_FILE
            full = primary.read_bytes()
            for offset in range(len(full) + 1):
                primary.write_bytes(full[:offset])
                document = load_checkpoint(run_dir)
                # Either the truncation kept the full file (offset ==
                # len) or the loader fell back — in both cases the
                # newest generation's state is recovered, bit for bit.
                assert document is not None
                assert document["index"] == 1
                assert document["payload"] == payload_b

    @settings(max_examples=4, deadline=None)
    @given(values=st.lists(st.integers(-10**6, 10**6),
                           min_size=1, max_size=8))
    def test_npz_truncated_anywhere_is_a_typed_error(self, values):
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(Path(root) / "shards", fingerprint="f")
            store.prepare(n_shards=1)
            survivors = [(f"a{v}", f"b{v}") for v in values]
            store.write(0, survivors, pairs_scanned=len(values),
                        cells_computed=len(values))
            path = store.shard_path(0)
            full = path.read_bytes()
            loaded, scanned, _, _ = store.load(0)
            assert loaded == survivors and scanned == len(values)
            for offset in range(len(full)):
                path.write_bytes(full[:offset])
                with pytest.raises(DataError) as excinfo:
                    store.load(0)
                assert str(path) in str(excinfo.value)
