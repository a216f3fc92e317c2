"""Durable run directories: checkpoint, kill, resume, recover.

A run directory has a fixed layout:

* ``run.json`` — the run's immutable inputs, written once: config,
  tables, seed labels, mode, budget plan and the root seed sequence;
* ``shards/`` — a blocked run's survivors, one file per shard of A x B
  (:class:`repro.exec.sharding.ShardStore`, with its own manifest).
  The vectorized umbrella set is never written: a resumed run applies
  the logged rules again, loading the shard files that verify, and
  re-vectorizes the survivors (:func:`repro.engine.stages.
  rebuild_candidates`);
* ``checkpoint.jsonl`` — the checkpoint log.  Every checkpoint (each
  stage boundary and each matcher iteration) appends one record and
  fsyncs it once (:func:`repro.storage.writer.append_bytes`); each
  record carries its own sha256 (:func:`repro.storage.writer.
  frame_record`).  A record holds only what changed since the previous
  one — new forests, new or relabelled label-cache rows, new labelled
  rows, new or changed iteration-record fields — plus the small
  mutable state written whole every time: the run state's scalars,
  the cost and phase-budget ledgers, the platform's answer-stream
  state, every RNG stream's bit-generator state and the telemetry
  state.  :func:`load_checkpoint` folds the records that verify into
  one checkpoint document; a torn or corrupt tail is moved under
  ``quarantine/`` and cut off, and the run resumes from the newest good
  record.  Each record is a generation of the checkpoint, so the log is
  the generation chain, in one file;
* ``MANIFEST.json`` — the storage layer's artifact ledger: sha256,
  size and generation counter per artifact.  It records the log's
  verified prefix (a ``prefix`` entry) at stage boundaries and at run
  end, after the bytes it describes;
* ``trace.jsonl`` — the structured event trace (append-only; a resumed
  run appends its tail again, so duplicate sequence numbers mark where
  a crash was resumed from).  :mod:`repro.obs.progress` folds the live
  progress view from it, the log and ``run.json``; no file holds it;
* ``metrics.json`` / ``spans.jsonl`` — the telemetry layer's metric
  snapshot and span tree (``docs/observability.md``), *rewritten* from
  checkpointed telemetry state at every stage boundary and at run end,
  so a resumed run's final files are byte-identical to the
  uninterrupted run's;
* ``profile.json`` — wall-clock hot-path profile, written once at run
  end, deliberately non-deterministic and deliberately absent from the
  manifest;
* ``quarantine/`` — artifacts and log tails that failed their
  checksum, moved aside (never deleted) by the recovery path.

Everything is plain JSON (shard files aside) — no pickling, so run
directories are inspectable and portable.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import persistence
from ..core.budgeting import BudgetPlan
from ..core.results import certified_evaluations
from ..crowd.base import stack_state
from ..data.pairs import Pair
from ..exceptions import DataError
from ..storage.recovery import (
    quarantine_tail,
    read_records,
    verify_artifact,
)
from ..storage.writer import (
    RECORD_HEAD,
    ArtifactWriter,
    append_bytes,
    frame_record,
    sha256_hex,
)
from .events import (
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_CHECKPOINT_FALLBACK,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..forest.forest import RandomForest
    from ..storage.recovery import RecoveryLog
    from .context import RunContext
    from .state import RunState

RUN_FILE = "run.json"
CHECKPOINT_LOG = "checkpoint.jsonl"
TRACE_FILE = "trace.jsonl"

_MATCHER_TAILS = {field: ("matcher_forests" if field == "forests" else field)
                  for field in persistence.MATCHER_TRAIN_STATE_SEQUENCES}
"""A matcher train state's append-only fields -> their log tail name."""

_UNSET = object()
"""What a log writer has persisted of a field it never wrote."""


class _RecordEncoder:
    """Turns one writer's successive checkpoints into log records.

    It remembers what this writer has persisted, so each record
    carries only what changed since the previous one.  Append-only
    sequences are logged as *tails* under the record's ``tails`` key —
    ``{"from": n, "items": [...]}``, the items after the first ``n``
    (0 when the sequence was replaced, e.g. by a new matcher training):

    * ``forests``: every forest, numbered in the order it is first
      written; a matcher train state's forest list (``matcher_forests``)
      and an iteration record's chosen forest name those numbers;
    * ``cache``: label-cache rows, from the service's write journal
      (:meth:`~repro.crowd.service.LabelingService.cache_changes`);
    * the matcher train state's ``labeled_rows``, ``monitor_rows`` and
      ``confidences``, and the tracer's completed ``spans``.

    An iteration record's fields are written when they are set or
    replaced (the estimate stage sets ``estimate``, the locate stage
    ``locator``), and the blocker result when it changes.  Everything
    else — the run state's scalars, the ledgers, the platform and RNG
    states, the metric registry, the open spans — is small and written
    whole.

    A fresh encoder has persisted nothing, so a writer's first record
    restates the whole state and every tail starts from 0 — which is
    what a resumed run's first record must do, since its objects are
    new.  The fold (:func:`fold_records`) needs no other marker.
    """

    def __init__(self) -> None:
        self._forest_numbers: weakref.WeakKeyDictionary[
            "RandomForest", int] = weakref.WeakKeyDictionary()
        """Forest -> its number, while the run still holds the forest
        (one it dropped is never mentioned again)."""
        self._forests_written = 0
        self._new_forests: list["RandomForest"] = []
        """Forests numbered since the last record: its forest tail."""
        self._cache_writes = 0
        """The service's journal position the last record reached."""
        self._cache_rows = 0
        """Cache rows this writer's records hold so far."""
        self._tails: dict[str, tuple[Any, int]] = {}
        """Tail name -> (the sequence object, items persisted)."""
        self._fields: list[dict[str, Any]] = []
        """Per iteration record: field -> the object last persisted."""
        self._blocker: Any = _UNSET

    def _forest_number(self, forest: "RandomForest") -> int:
        number = self._forest_numbers.get(forest)
        if number is None:
            number = self._forests_written
            self._forests_written += 1
            self._forest_numbers[forest] = number
            self._new_forests.append(forest)
        return number

    def _persisted(self, name: str, source: Any) -> int:
        """How many leading items of the append-only sequence ``source``
        this writer's records hold (0 if ``source`` replaced the one
        they hold); the next record holds them all."""
        persisted, count = self._tails.get(name, (None, 0))
        if persisted is not source or len(source) < count:
            count = 0
        self._tails[name] = (source, len(source))
        return count

    def _iterations(self, records: list[Any]) -> dict[str, Any]:
        """The iteration-record fields set or replaced since the last
        record (each record's ``matcher`` names its forest's number)."""
        changed = []
        del self._fields[len(records):]
        for position, record in enumerate(records):
            if position == len(self._fields):
                self._fields.append({})
            fields = self._fields[position]
            if fields.get("record") is not record:
                fields.clear()
                fields["record"] = record
            names = [name for name in persistence.ITERATION_RECORD_FIELDS
                     if fields.get(name, _UNSET) is not getattr(record,
                                                                name)]
            if names:
                changed.append([position, persistence.iteration_record_to_dict(
                    record, self._forest_number, names,
                    certified_evaluations(records[:position]))])
                fields.update((name, getattr(record, name))
                              for name in names)
        return {"count": len(records), "changed": changed}

    def encode(self, state: "RunState", ctx: "RunContext",
               index: int) -> dict[str, Any]:
        """The log record of checkpoint ``index``."""
        forests_before = self._forests_written
        tails: dict[str, Any] = {}
        record: dict[str, Any] = {
            "format": "corleone-checkpoint",
            "version": persistence.FORMAT_VERSION,
            "index": index,
            "sequence": ctx.bus.events_emitted,
            "state": state.scalars_to_dict(),
        }
        if state.blocker is not self._blocker:
            record["blocker"] = (
                None if state.blocker is None
                else persistence.blocker_result_to_dict(state.blocker))
            self._blocker = state.blocker
        record["iterations"] = self._iterations(state.iterations)
        matcher_state = state.matcher_state
        record["matcher_state"] = None
        if matcher_state is not None:
            skip = {field: self._persisted(name,
                                           getattr(matcher_state, field))
                    for field, name in _MATCHER_TAILS.items()}
            document = persistence.matcher_train_state_to_dict(
                matcher_state, self._forest_number, skip)
            for field, name in _MATCHER_TAILS.items():
                tails[name] = {"from": skip[field],
                               "items": document.pop(field)}
            record["matcher_state"] = document
        tails["forests"] = {
            "from": forests_before,
            "items": [persistence.forest_to_dict(forest)
                      for forest in self._new_forests],
        }
        self._new_forests.clear()
        if ctx.service.cache_writes < self._cache_writes:
            # The cache was replaced (restored): restate all of it.
            self._cache_writes = self._cache_rows = 0
        rows = ctx.service.cache_changes(self._cache_writes)
        tails["cache"] = {"from": self._cache_rows, "items": rows}
        self._cache_writes = ctx.service.cache_writes
        self._cache_rows += len(rows)
        telemetry = None
        if ctx.telemetry is not None:
            telemetry = ctx.telemetry.state_dict()
            count = self._persisted("spans", ctx.telemetry.tracer.completed)
            tails["spans"] = {
                "from": count,
                "items": telemetry["spans"].pop("completed")[count:]}
        record.update(
            tracker=ctx.tracker.state_dict(),
            manager=(ctx.manager.state_dict()
                     if ctx.manager is not None else None),
            platform=stack_state(ctx.platform),
            rng=ctx.rng_states(),
            telemetry=telemetry,
            tails=tails,
        )
        return record


def fold_records(records: list[dict[str, Any]]) -> dict[str, Any] | None:
    """The checkpoint document a log's records add up to (None: none).

    Later records replace earlier values key by key, except the deltas
    :class:`_RecordEncoder` writes: each ``tails`` entry extends its
    sequence, and iteration-record fields update their record.  The
    result has the layout readers expect — ``index``, ``sequence``,
    ``state`` (:meth:`RunState.to_dict`, with forest numbers resolved
    to forest documents), ``service_cache`` (:meth:`~repro.crowd.
    service.LabelingService.cache_state` rows; a relabelled pair's
    later row updates its earlier one), ``tracker``, ``manager``,
    ``platform``, ``rng`` and ``telemetry``.  Raises
    :class:`~repro.exceptions.DataError` for records that do not fold.
    """
    if not records:
        return None
    document: dict[str, Any] = {}
    tails: dict[str, list[Any]] = {}
    iterations: list[dict[str, Any]] = []
    try:
        for record in records:
            for key, value in record.items():
                if key == "tails":
                    for name, tail in value.items():
                        _extend(tails.setdefault(name, []), tail)
                elif key == "iterations":
                    del iterations[value["count"]:]
                    for position, fields in value["changed"]:
                        if position == len(iterations):
                            iterations.append({})
                        iterations[position].update(fields)
                else:
                    document[key] = value
        if "state" in document:
            _assemble(document, tails, iterations)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise DataError(f"checkpoint records do not fold: {error!r}") \
            from None
    return document


def _extend(items: list[Any], tail: dict[str, Any]) -> None:
    """Apply one logged tail: keep the first ``from`` items, append."""
    start = tail["from"]
    if not 0 <= start <= len(items):
        raise ValueError(f"a tail starts at item {start} of {len(items)}")
    del items[start:]
    items.extend(tail["items"])


def _assemble(document: dict[str, Any], tails: dict[str, list[Any]],
              iterations: list[dict[str, Any]]) -> None:
    """Put the folded tails and iteration records back where
    :meth:`RunState.to_dict` and the service, tracer state have them."""
    forests = tails.get("forests", [])
    state = dict(document["state"])
    state["blocker"] = document.pop("blocker", None)
    state["iterations"] = [
        dict(fields, matcher=dict(
            fields["matcher"], forest=forests[fields["matcher"]["forest"]]))
        for fields in iterations
    ]
    matcher = document.pop("matcher_state", None)
    if matcher is not None:
        matcher = dict(matcher, **{
            field: list(tails[name]) for field, name in _MATCHER_TAILS.items()
        })
        matcher["forests"] = [forests[number]
                              for number in matcher["forests"]]
    state["matcher_state"] = matcher
    document["state"] = state
    document["service_cache"] = list(tails.get("cache", []))
    telemetry = document.get("telemetry")
    if telemetry is not None:
        document["telemetry"] = dict(telemetry, spans=dict(
            telemetry["spans"], completed=list(tails["spans"])))


class Checkpointer:
    """Writes a run's durable artifacts into one directory."""

    def __init__(self, run_dir: str | Path) -> None:
        # Absolute once, here: artifact paths are built as run_dir / NAME
        # and the writer joins a relative path onto its root again.
        self.run_dir = Path(run_dir).absolute()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.writer = ArtifactWriter(self.run_dir)
        # Appends continue the log's good prefix: a bad tail must be cut
        # off first, and load_checkpoint does that.
        existing = load_checkpoint(self.run_dir)
        self._next_index = (existing["index"] + 1
                            if existing is not None else 0)
        self._encoder = _RecordEncoder()
        self._log_bytes = 0
        """The log size the manifest last recorded (this instance)."""

    def write_inputs(self, state: "RunState", ctx: "RunContext",
                     budget_plan: BudgetPlan | None = None) -> None:
        """Persist the run's immutable inputs (no-op if already there)."""
        path = self.run_dir / RUN_FILE
        if path.exists():
            return
        root = ctx.root_seed
        entropy = root.entropy
        if not isinstance(entropy, int):
            entropy = [int(word) for word in np.atleast_1d(entropy)]
        document = {
            "format": "corleone-run",
            "version": persistence.FORMAT_VERSION,
            "mode": state.mode,
            "config": persistence.config_to_dict(ctx.config),
            "budget_plan": (
                None if budget_plan is None
                else persistence.budget_plan_to_dict(budget_plan)
            ),
            "seed_labels": [
                [pair.a_id, pair.b_id, bool(label)]
                for pair, label in state.seed_labels.items()
            ],
            "root_seed": {
                "entropy": entropy,
                "spawn_key": [int(key) for key in root.spawn_key],
            },
            "table_a": persistence.table_to_dict(state.table_a),
            "table_b": persistence.table_to_dict(state.table_b),
        }
        self.writer.atomic_write_json(RUN_FILE, document)

    def write(self, state: "RunState", ctx: "RunContext") -> int:
        """Durably persist one checkpoint; return its index.

        A checkpoint appends one record to ``checkpoint.jsonl`` and
        fsyncs it — that is all a matcher-iteration checkpoint writes
        (one taken mid-stage, the only kind with a ``matcher_state``;
        it is None at stage boundaries).  A stage boundary also records
        the log's new verified prefix in ``MANIFEST.json`` (after the
        record it describes) and rewrites the telemetry exports.  Those
        mid-run exports are volatile snapshots (atomic replace, no
        fsync, unmanifested — regenerable from the record's
        ``telemetry`` state); the pipeline's run-end export rewrites
        them durably and records their final checksums, along with the
        log's, so the run's last checkpoint (no next stage) leaves both
        to it.

        The telemetry artifact-write counters increment *before* the
        record is serialized (the same pre-write rule as
        :meth:`~repro.obs.telemetry.RunTelemetry.record_checkpoint`),
        so a kill at this exact checkpoint resumes with the counts the
        uninterrupted run carries.  The ``artifact_written`` event is
        emitted after the cycle completes and is deliberately ignored
        by the telemetry's bus sink for the same reason.
        """
        index = self._next_index
        stage_boundary = (state.matcher_state is None
                          and state.next_stage is not None)
        if ctx.telemetry is not None:
            # Pre-serialize, so the counts ride inside the record below.
            kinds = ["checkpoint"]
            if stage_boundary:
                kinds += ["metrics", "spans", "manifest"]
            for kind in kinds:
                ctx.telemetry.record_artifact_write(kind)
        body = json.dumps(self._encoder.encode(state, ctx, index),
                          separators=(",", ":"))
        line = frame_record(body.encode("utf-8"))
        append_bytes(self.run_dir / CHECKPOINT_LOG, line)
        self._next_index += 1
        if stage_boundary:
            self.record_log()
            if ctx.telemetry is not None:
                # Rewritten (not appended) from the just-persisted
                # state: a later resume regenerates the same files
                # byte for byte.  No writer: mid-run exports are
                # volatile live snapshots, not manifested artifacts.
                ctx.telemetry.export(self.run_dir)
        ctx.bus.emit(EVENT_ARTIFACT_WRITTEN, artifact=CHECKPOINT_LOG,
                     sha256=_record_sha(line), index=index)
        return index

    def record_log(self) -> None:
        """Record the log's verified prefix — all of it: every append
        was fsynced — in the manifest, if it grew since this writer
        last did (staged in the caller's batch, if any)."""
        path = self.run_dir / CHECKPOINT_LOG
        size = path.stat().st_size if path.is_file() else 0
        if size != self._log_bytes:
            self.writer.record_file(CHECKPOINT_LOG, prefix=True)
            self._log_bytes = size


def _record_sha(line: bytes) -> str:
    """The sha256 a framed record line carries."""
    start = len(RECORD_HEAD)
    return line[start:start + 64].decode("ascii")


def read_checkpoint(run_dir: str | Path) -> dict[str, Any] | None:
    """The checkpoint document of a run directory's log, read-only.

    Folds the records that verify (:func:`fold_records`) and leaves a
    bad tail where it is — for readers such as ``obs report`` that must
    not change the directory they inspect.  None when the run has no
    good record.
    """
    records, _ = read_records(Path(run_dir) / CHECKPOINT_LOG)
    return fold_records(records)


def count_checkpoints(run_dir: str | Path) -> int:
    """How many records a run directory's log holds: its newlines, as
    a torn append has none.  Nothing is decoded or verified, so a live
    monitor can count on every poll (:mod:`repro.obs.progress`)."""
    try:
        return (Path(run_dir) / CHECKPOINT_LOG).read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def load_checkpoint(run_dir: str | Path,
                    recovery: "RecoveryLog | None" = None,
                    ) -> dict[str, Any] | None:
    """The checkpoint the log's good records add up to, or None.

    The log's records are read up to the first one that is torn or
    fails its own sha256 (:func:`repro.storage.recovery.read_records`).
    Everything from there on — a record cut short by a crash, a record
    with rotted bits, and every record after it, since each may depend
    on those before — is moved under ``quarantine/`` and cut off the
    log, so the resumed run appends after the newest good record.  A
    record whose digest matches but whose body does not parse is a
    writer bug and raises.

    Recovery actions are recorded on ``recovery`` (when given) as
    ``artifact_corrupt`` / ``artifact_quarantined`` events, plus
    ``checkpoint_fallback`` with the index resumed from when the cut
    dropped a complete record (a tail without a newline is an append
    the crash interrupted: nothing that was written whole is lost).
    The resuming pipeline replays them onto its bus.  With no good
    record, returns None: the caller restarts deterministically from
    ``run.json``, which the seeded-replay contract makes equivalent.
    """
    run_dir = Path(run_dir)
    path = run_dir / CHECKPOINT_LOG
    records, good = read_records(path)
    if path.is_file() and path.stat().st_size > good:
        _quarantine_tail(run_dir, path, good, records, recovery)
    try:
        return fold_records(records)
    except DataError as error:
        raise DataError(f"{path}: {error}") from None


def _quarantine_tail(run_dir: Path, path: Path, good: int,
                     records: list[dict[str, Any]],
                     recovery: "RecoveryLog | None") -> None:
    """Move the log's bad tail aside and record the actions."""
    with open(path, "rb") as handle:
        handle.seek(good)
        tail = handle.read()
    target = quarantine_tail(run_dir, path, good)
    if recovery is None:
        return
    claimed = b""
    if tail.startswith(RECORD_HEAD):
        claimed = tail[len(RECORD_HEAD):len(RECORD_HEAD) + 64]
    recovery.emit(
        EVENT_ARTIFACT_CORRUPT,
        artifact=CHECKPOINT_LOG,
        actual_sha256=sha256_hex(tail),
        expected_sha256=claimed.decode("ascii", "replace"),
    )
    recovery.emit(
        EVENT_ARTIFACT_QUARANTINED,
        artifact=CHECKPOINT_LOG,
        quarantined_to=target.relative_to(run_dir).as_posix(),
    )
    if records and b"\n" in tail:
        recovery.emit(EVENT_CHECKPOINT_FALLBACK, artifact=CHECKPOINT_LOG,
                      index=int(records[-1].get("index", -1)))


def load_run_inputs(run_dir: str | Path) -> dict[str, Any]:
    """The parsed run inputs: config, tables, seeds, plan, root seed.

    Returns a dict with keys ``mode``, ``config``, ``budget_plan``,
    ``seed_labels``, ``root_seed`` (a reconstructed
    :class:`numpy.random.SeedSequence`), ``table_a`` and ``table_b``.

    ``run.json`` is written once and has no generation chain to fall
    back through, so a checksum mismatch against the run manifest is
    unrecoverable: it raises a typed :class:`~repro.exceptions.
    DataError` naming the file and both checksums.
    """
    run_dir = Path(run_dir)
    path = run_dir / RUN_FILE
    if not path.is_file():
        raise DataError(f"{run_dir}: not a run directory (no {RUN_FILE})")
    verdict, actual, expected = verify_artifact(run_dir, path)
    if verdict is False:
        raise DataError(
            f"{path}: corrupt beyond recovery — sha256 {actual} does not "
            f"match the manifest's recorded {expected}, and run inputs "
            f"have no fallback generation")
    document = persistence._load_document(path, "corleone-run")
    raw = document["root_seed"]
    entropy = raw["entropy"]
    if not isinstance(entropy, int):
        entropy = [int(word) for word in entropy]
    root = np.random.SeedSequence(
        entropy=entropy,
        spawn_key=tuple(int(key) for key in raw["spawn_key"]),
    )
    return {
        "mode": document["mode"],
        "config": persistence.config_from_dict(document["config"]),
        "budget_plan": (
            None if document["budget_plan"] is None
            else persistence.budget_plan_from_dict(document["budget_plan"])
        ),
        "seed_labels": {
            Pair(str(a), str(b)): bool(label)
            for a, b, label in document["seed_labels"]
        },
        "root_seed": root,
        "table_a": persistence.table_from_dict(document["table_a"]),
        "table_b": persistence.table_from_dict(document["table_b"]),
    }
