"""Durable run directories: checkpoint, kill, resume, recover.

A run directory has a fixed layout:

* ``run.json`` — the run's immutable inputs, written once: config,
  tables, seed labels, mode, budget plan and the root seed sequence;
* ``candidates.npz`` — the vectorized umbrella set, written once as
  soon as blocking produces it (the expensive artifact, so it is never
  re-serialized per checkpoint);
* ``checkpoint.json`` — the latest engine state, replaced durably
  (:mod:`repro.storage.writer`) at every stage boundary and after every
  matcher iteration.  It carries everything mutable: the serialized
  :class:`~repro.engine.state.RunState`, the label cache with vote
  strengths, the cost ledger, the phase-budget ledger, the platform's
  answer-stream state and every RNG stream's bit-generator state;
* ``generations/checkpoint-NNNNNN.json`` — a copy of each of the last
  ``keep_generations`` checkpoints.  ``checkpoint.json`` is the fast
  path; the generations are the fallback chain when it fails its
  checksum on load (bit rot, or a stale manifest after a mid-batch
  crash);
* ``MANIFEST.json`` — the storage layer's artifact ledger: sha256,
  size and generation counter per artifact, flushed once per
  checkpoint cycle (after the artifacts — data before metadata);
* ``trace.jsonl`` — the structured event trace (append-only; a resumed
  run appends its tail again, so duplicate sequence numbers mark where
  a crash was resumed from);
* ``metrics.json`` / ``spans.jsonl`` — the telemetry layer's metric
  snapshot and span tree (``docs/observability.md``), *rewritten* from
  checkpointed telemetry state at every write so a resumed run's final
  files are byte-identical to the uninterrupted run's;
* ``profile.json`` — wall-clock hot-path profile, written once at run
  end, deliberately non-deterministic and deliberately absent from the
  manifest;
* ``progress.json`` — the live heartbeat (:mod:`repro.obs.progress`):
  stage, iteration, shard/checkpoint counts and budget burn,
  atomically rewritten at checkpoint and shard boundaries for ``obs
  serve``/``watch``.  A live advisory like ``profile.json`` — outside
  both the manifest and the byte-identity contract;
* ``quarantine/`` — artifacts that failed their checksum, moved aside
  (never deleted) by :func:`load_checkpoint`'s recovery path.

Everything is plain JSON (candidates aside) — no pickling, so run
directories are inspectable and portable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import persistence
from ..core.budgeting import BudgetPlan
from ..crowd.base import stack_state
from ..data.pairs import Pair
from ..exceptions import DataError
from ..storage.recovery import quarantine_artifact, verify_artifact
from ..storage.writer import ArtifactWriter, load_manifest
from .events import (
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_CHECKPOINT_FALLBACK,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.recovery import RecoveryLog
    from .context import RunContext
    from .state import RunState

RUN_FILE = "run.json"
CHECKPOINT_FILE = "checkpoint.json"
CANDIDATES_FILE = "candidates.npz"
TRACE_FILE = "trace.jsonl"
GENERATIONS_DIR = "generations"
"""Run-dir subdirectory holding the last-N checkpoint copies."""

DEFAULT_KEEP_GENERATIONS = 3
"""Checkpoint generations retained for checksum-failure fallback."""


class Checkpointer:
    """Writes a run's durable artifacts into one directory."""

    def __init__(self, run_dir: str | Path,
                 keep_generations: int = DEFAULT_KEEP_GENERATIONS) -> None:
        # Absolute once, here: artifact paths are built as run_dir / NAME
        # and the writer joins a relative path onto its root again.
        self.run_dir = Path(run_dir).absolute()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.writer = ArtifactWriter(self.run_dir)
        self.keep_generations = max(1, int(keep_generations))
        self.checkpoints_written = 0
        """Checkpoints written by *this* instance (benchmarking)."""
        existing = load_checkpoint(self.run_dir)
        self._next_index = (existing["index"] + 1
                            if existing is not None else 0)
        self._have_candidates = (self.run_dir / CANDIDATES_FILE).exists()

    @property
    def next_index(self) -> int:
        """The index the next checkpoint gets: the run's checkpoint
        count so far, resumed ones included."""
        return self._next_index

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

    def _spilled_features(self, state: "RunState") -> str | None:
        """Relative spill-file path for the candidate matrix, if any.

        When the block stage spilled the feature matrix to a
        memory-mapped ``.npy`` under this run directory, the candidate
        file stores a reference to it instead of re-serializing the
        matrix (the spill file *is* the canonical bytes).  Matrices
        backed by anything else — heap arrays, or maps outside the run
        directory — are serialized inline as before.
        """
        from ..plan.spill import spill_path

        path = spill_path(state.candidates.features)
        if path is None:
            return None
        try:
            return path.resolve().relative_to(
                self.run_dir.resolve()).as_posix()
        except ValueError:
            return None

    def _generation_name(self, index: int) -> str:
        """Run-relative path of checkpoint ``index``'s generation copy."""
        return f"{GENERATIONS_DIR}/checkpoint-{index:06d}.json"

    def _prune_generations(self, index: int) -> list[Path]:
        """Stage the manifest removal of generation copies older than
        the retention window; return their paths.

        The caller unlinks them only after the batch's manifest flush.
        A crash in between leaves an unmanifested old copy, which the
        next checkpoint prunes; the reverse order could leave a
        manifest entry for a deleted file that nothing ever removes.
        """
        gen_dir = self.run_dir / GENERATIONS_DIR
        if not gen_dir.is_dir():
            return []
        floor = index - self.keep_generations + 1
        pruned = []
        for path in sorted(gen_dir.glob("checkpoint-*.json")):
            try:
                gen_index = int(path.stem.split("-")[-1])
            except ValueError:
                continue
            if gen_index < floor:
                self.writer.forget(self._generation_name(gen_index))
                pruned.append(path)
        return pruned

    def write(self, state: "RunState", ctx: "RunContext") -> int:
        """Durably persist one checkpoint; return its index.

        One checkpoint cycle writes, in order: ``candidates.npz`` (the
        first cycle that has a candidate set), the generation copy,
        ``checkpoint.json`` itself, the telemetry exports, and finally
        one batched ``MANIFEST.json`` flush — data always lands before
        the metadata that describes it.  The flush also drops the
        entries of generations past the retention window, whose files
        are unlinked only after it.  The mid-run telemetry exports
        are volatile snapshots (atomic replace, no fsync, unmanifested
        — regenerable from the checkpoint's ``telemetry`` state); the
        pipeline's run-end export rewrites them durably and records
        their final checksums in the manifest.

        The telemetry artifact-write counters increment *before* the
        checkpoint document is serialized (the same pre-write rule as
        :meth:`~repro.obs.telemetry.RunTelemetry.record_checkpoint`),
        so a kill at this exact checkpoint resumes with the counts the
        uninterrupted run carries.  ``artifact_written`` events are
        emitted after the cycle completes and are deliberately ignored
        by the telemetry's bus sink for the same reason.
        """
        index = self._next_index
        written: list[tuple[str, str]] = []
        with self.writer.batch():
            if not self._have_candidates and state.candidates is not None:
                sha = persistence.save_candidates(
                    state.candidates, self.run_dir / CANDIDATES_FILE,
                    external_features=self._spilled_features(state),
                    writer=self.writer,
                )
                self._have_candidates = True
                written.append((CANDIDATES_FILE, sha))
            if ctx.telemetry is not None:
                # Pre-serialize, so the counts ride inside the document
                # below.  The cycle's artifact set is fixed (candidates
                # are counted against the "checkpoint" cycle only via
                # their own write above being manifest-recorded, not
                # metered — a restarted run that finds candidates.npz
                # already on disk must converge to the same totals).
                for kind in ("generation", "checkpoint",
                             "metrics", "spans", "manifest"):
                    ctx.telemetry.record_artifact_write(kind)
            document = {
                "format": "corleone-checkpoint",
                "version": persistence.FORMAT_VERSION,
                "index": index,
                "sequence": ctx.bus.events_emitted,
                "state": state.to_dict(),
                "service_cache": ctx.service.cache_state(),
                "tracker": ctx.tracker.state_dict(),
                "manager": (ctx.manager.state_dict()
                            if ctx.manager is not None else None),
                "platform": stack_state(ctx.platform),
                "rng": ctx.rng_states(),
                "telemetry": (ctx.telemetry.state_dict()
                              if ctx.telemetry is not None else None),
            }
            payload = json.dumps(document)
            generation_name = self._generation_name(index)
            self.writer.atomic_write_text(generation_name, payload)
            written.append((generation_name,
                            self.writer.entry(generation_name)["sha256"]))
            self.writer.atomic_write_text(CHECKPOINT_FILE, payload)
            written.append((CHECKPOINT_FILE,
                            self.writer.entry(CHECKPOINT_FILE)["sha256"]))
            pruned = self._prune_generations(index)
            self._next_index += 1
            self.checkpoints_written += 1
            if ctx.telemetry is not None:
                # Telemetry artifacts are rewritten (not appended) from
                # the just-persisted state: a later resume regenerates
                # the same files byte for byte.  No writer: mid-run
                # exports are volatile live snapshots, not manifested
                # artifacts — the run-end export records the final
                # checksums.
                ctx.telemetry.export(self.run_dir)
        for path in pruned:
            path.unlink()
        for artifact, sha in written:
            ctx.bus.emit(EVENT_ARTIFACT_WRITTEN, artifact=artifact,
                         sha256=sha, index=index)
        return index


def _candidate_documents(run_dir: Path) -> list[Path]:
    """Checkpoint documents to try, newest first.

    ``checkpoint.json`` leads; the generation copies follow in
    descending index order.  The latest generation duplicates
    ``checkpoint.json``'s content, so a corrupt primary usually falls
    back with *zero* rollback — only double corruption loses ground.
    """
    paths: list[Path] = []
    primary = run_dir / CHECKPOINT_FILE
    if primary.is_file():
        paths.append(primary)
    gen_dir = run_dir / GENERATIONS_DIR
    if gen_dir.is_dir():
        paths.extend(sorted(gen_dir.glob("checkpoint-*.json"),
                            reverse=True))
    return paths


def load_checkpoint(run_dir: str | Path,
                    recovery: "RecoveryLog | None" = None,
                    ) -> dict[str, Any] | None:
    """The newest checkpoint document that verifies, or None.

    Every candidate (``checkpoint.json``, then each retained
    generation, newest first) is checked against the run manifest's
    sha256 before it is parsed:

    * a checksum **match** is trusted;
    * **no manifest entry** (pre-durability directory, or a crash
      landed between the artifact replace and the manifest flush)
      falls back to the parse + format check — an artifact that parses
      is accepted, because the manifest is metadata, not the artifact
      of record;
    * a checksum **mismatch**, or an unverifiable document that fails
      to parse, is quarantined under ``quarantine/`` and the next
      candidate is tried.

    Recovery actions are recorded on ``recovery`` (when given) as
    ``artifact_corrupt`` / ``artifact_quarantined`` /
    ``checkpoint_fallback`` events for the resuming pipeline to replay
    onto its bus.  When *no* candidate survives, returns None: the
    caller restarts deterministically from ``run.json``, which the
    seeded-replay contract makes equivalent.
    """
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    fell_back = False
    for path in _candidate_documents(run_dir):
        verdict, actual, expected = verify_artifact(run_dir, path,
                                                    manifest)
        if verdict is False:
            _quarantine(run_dir, path, actual, expected, recovery)
            fell_back = True
            continue
        try:
            document = persistence._load_document(path,
                                                  "corleone-checkpoint")
        except DataError:
            if verdict is True:
                # The bytes match what the writer recorded, yet they do
                # not parse: the *recorded* artifact was bad.  That is
                # a writer bug, not rot — surface it, don't mask it.
                raise
            _quarantine(run_dir, path, actual, expected, recovery)
            fell_back = True
            continue
        if fell_back and recovery is not None:
            recovery.emit(
                EVENT_CHECKPOINT_FALLBACK,
                artifact=_relname(run_dir, path),
                index=int(document.get("index", -1)),
            )
        return document
    return None


def _relname(run_dir: Path, path: Path) -> str:
    """``path`` relative to the run directory (manifest key form)."""
    try:
        return path.resolve().relative_to(run_dir.resolve()).as_posix()
    except ValueError:
        return path.name


def _quarantine(run_dir: Path, path: Path, actual: str,
                expected: str | None,
                recovery: "RecoveryLog | None") -> None:
    """Move one failed artifact aside and record the actions."""
    name = _relname(run_dir, path)
    target = quarantine_artifact(run_dir, path)
    if recovery is not None:
        recovery.emit(
            EVENT_ARTIFACT_CORRUPT,
            artifact=name,
            actual_sha256=actual,
            expected_sha256=expected or "",
        )
        recovery.emit(
            EVENT_ARTIFACT_QUARANTINED,
            artifact=name,
            quarantined_to=_relname(run_dir, target),
        )


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
