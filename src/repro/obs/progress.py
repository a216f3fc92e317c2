"""The live progress heartbeat: a small atomic ``progress.json``.

:class:`ProgressHeartbeat` is an :class:`~repro.engine.events.EventBus`
sink that maintains a compact picture of an in-flight run — current
stage and iteration, shards started/completed, checkpoints written,
distinct pairs labelled, answers, budget burn — and atomically rewrites
``progress.json`` in the run directory at checkpoint and shard
boundaries.  ``python -m repro.obs serve`` exposes it at ``/progress``
and ``python -m repro.obs report`` uses it to mark an incomplete run as
in-flight.

The spend figures are the cost ledger's running totals, carried by
every ``labels_purchased`` event; a resumed run seeds them, the
checkpoint count, the iteration, the finished flag and the shard counts
from its restored state and telemetry, so its final document reports
what the uninterrupted run's does.  The file is still a **live
advisory**, not a deterministic artifact: it is rewritten mid-run at
points a resumed run may legitimately skip, so it sits outside the
byte-identity contract that governs ``metrics.json`` and
``spans.jsonl``.  Writes go through
:mod:`repro.storage.writer` (tmp file, atomic replace; no fsync, see
:meth:`ProgressHeartbeat.flush`) so a reader never observes a torn
document, but — like ``profile.json`` — the file is never recorded in
the run manifest: a checksum over a heartbeat would flag every
legitimate rewrite as corruption.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..crowd.cost import CostSnapshot
from ..engine.events import (
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_LABELS_PURCHASED,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
    Event,
)
from ..storage.writer import atomic_write_json

PROGRESS_FILE = "progress.json"
PROGRESS_FORMAT = "corleone-progress"
PROGRESS_VERSION = 2


class ProgressHeartbeat:
    """Bus sink keeping ``progress.json`` fresh while a run executes."""

    def __init__(self, run_dir: str | Path,
                 budget: float | None = None,
                 spent: CostSnapshot | None = None,
                 checkpoints: int = 0,
                 iteration: int = 0,
                 finished: bool = False,
                 shards: tuple[int, int] = (0, 0)) -> None:
        """``spent``, ``checkpoints``, ``iteration``, ``finished`` and
        ``shards`` (started, completed) seed a resumed run's heartbeat
        from its restored ledger, checkpoint and telemetry."""
        spent = spent if spent is not None else CostSnapshot()
        self.path = Path(run_dir) / PROGRESS_FILE
        self.budget = budget
        self.stage: str | None = None
        self.iteration = iteration
        self.checkpoints = checkpoints
        self.pairs_labeled = spent.pairs_labeled
        self.answers = spent.answers
        self.dollars_spent = spent.dollars
        self.finished = finished
        self.sequence = -1
        # Sets, not counters: a resumed run re-emits shard events for
        # loaded shards, and the heartbeat must not double-count them.
        # Checkpoints land only between stages, after every shard of a
        # blocking pass, so a restored count n stands for shards 0..n-1.
        started, completed = shards
        self._shards_started: set[int] = set(range(started))
        self._shards_completed: set[int] = set(range(completed))

    def __call__(self, event: Event) -> None:
        """Fold one engine event in; flush at heartbeat boundaries."""
        payload = event.payload
        self.sequence = max(self.sequence, event.sequence)
        flush = False
        if event.name == EVENT_STAGE_STARTED:
            self.stage = str(payload.get("stage"))
            self.iteration = int(payload.get("iteration", 0))
            flush = True
        elif event.name == EVENT_STAGE_FINISHED:
            # ``dollars`` here is the ledger's running total too.  Only
            # the run's last stage flushes here: every other boundary's
            # checkpoint_written follows at once and flushes this too.
            self.dollars_spent = float(payload.get(
                "dollars", self.dollars_spent))
            if payload.get("next_stage") is None:
                self.stage = None
                self.finished = True
                flush = True
        elif event.name == EVENT_CHECKPOINT_WRITTEN:
            self.checkpoints = max(self.checkpoints,
                                   int(payload.get("index", -1)) + 1)
            flush = True
        elif event.name == EVENT_SHARD_STARTED:
            self._shards_started.add(int(payload.get("shard", -1)))
        elif event.name == EVENT_SHARD_COMPLETED:
            self._shards_completed.add(int(payload.get("shard", -1)))
            flush = True
        elif event.name == EVENT_LABELS_PURCHASED:
            self.pairs_labeled = int(payload["pairs_labeled"])
            self.answers = int(payload["total_answers"])
            self.dollars_spent = float(payload["total_dollars"])
        if flush:
            self.flush()

    def document(self) -> dict[str, Any]:
        """The progress document (JSON-compatible, stable key set)."""
        remaining = (round(self.budget - self.dollars_spent, 10)
                     if self.budget is not None else None)
        return {
            "format": PROGRESS_FORMAT,
            "version": PROGRESS_VERSION,
            "stage": self.stage,
            "iteration": self.iteration,
            "finished": self.finished,
            "checkpoints": self.checkpoints,
            "shards": {
                "started": len(self._shards_started),
                "completed": len(self._shards_completed),
            },
            "pairs_labeled": self.pairs_labeled,
            "answers": self.answers,
            "dollars_spent": round(self.dollars_spent, 10),
            "budget": self.budget,
            "budget_remaining": remaining,
            "sequence": self.sequence,
        }

    def flush(self) -> None:
        """Atomically rewrite ``progress.json`` (never torn, unmanifested).

        A volatile snapshot (no fsync): the heartbeat is advisory and
        rewritten at the next boundary, so power-loss durability would
        only add two fsyncs per flush to every checkpointed run.
        """
        atomic_write_json(self.path, self.document(), sort_keys=True,
                          durable=False)


def read_progress(run_dir: str | Path) -> dict[str, Any] | None:
    """Load a run directory's ``progress.json`` (None when absent)."""
    path = Path(run_dir) / PROGRESS_FILE
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        # An atomic writer never leaves a torn file; a manually copied
        # or damaged one degrades to "no progress available".
        return None
