"""The live progress view, folded where it is read.

A compact picture of a (possibly in-flight) run — stage, iteration,
shards started/completed, checkpoints, pairs labelled, answers, budget
burn — computed from artifacts the run already writes, one writer per
fact: the effective ``trace.jsonl`` (latest occurrence of each sequence
number wins) for everything but ``checkpoints``, which is the
checkpoint log's record count (a crash between a record's fsync and its
``checkpoint_written`` event leaves the trace one short), and ``budget``,
read once from ``run.json``.  ``obs serve`` exposes it at
``/progress``, ``obs watch`` renders it and ``obs report`` marks an
unfinished run as in flight with it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

from ..engine.checkpoint import RUN_FILE, TRACE_FILE, count_checkpoints
from ..engine.events import (
    EVENT_LABELS_PURCHASED,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
)
from .tail import TraceTail

PROGRESS_FORMAT = "corleone-progress"
PROGRESS_VERSION = 2

_UNREAD = object()


def fold_progress(events: Iterable[Mapping[str, Any]],
                  checkpoints: int = 0,
                  budget: float | None = None) -> dict[str, Any] | None:
    """Fold trace records, in sequence order as :meth:`TraceTail.effective`
    returns them, into the progress document (None without records);
    ``checkpoints`` and ``budget`` come from the log and ``run.json``."""
    stage: str | None = None
    iteration = 0
    finished = False
    pairs_labeled = answers = 0
    dollars_spent = 0.0
    sequence = -1
    # Sets, not counters: a resumed run re-emits the events of the
    # shards it loads.
    shards_started: set[int] = set()
    shards_completed: set[int] = set()
    for event in events:
        name = event.get("event")
        sequence = max(sequence, int(event["sequence"]))
        if name == EVENT_STAGE_STARTED:
            stage = str(event.get("stage"))
            iteration = int(event.get("iteration", 0))
        elif name == EVENT_STAGE_FINISHED:
            # ``dollars`` here is the ledger's running total too.
            dollars_spent = float(event.get("dollars", dollars_spent))
            if event.get("next_stage") is None:
                stage = None
                finished = True
        elif name == EVENT_SHARD_STARTED:
            shards_started.add(int(event.get("shard", -1)))
        elif name == EVENT_SHARD_COMPLETED:
            shards_completed.add(int(event.get("shard", -1)))
        elif name == EVENT_LABELS_PURCHASED:
            pairs_labeled = int(event["pairs_labeled"])
            answers = int(event["total_answers"])
            dollars_spent = float(event["total_dollars"])
    if sequence < 0:
        return None
    return {
        "format": PROGRESS_FORMAT,
        "version": PROGRESS_VERSION,
        "stage": stage,
        "iteration": iteration,
        "finished": finished,
        "checkpoints": checkpoints,
        "shards": {"started": len(shards_started),
                   "completed": len(shards_completed)},
        "pairs_labeled": pairs_labeled,
        "answers": answers,
        "dollars_spent": round(dollars_spent, 10),
        "budget": budget,
        "budget_remaining": (round(budget - dollars_spent, 10)
                             if budget is not None else None),
        "sequence": sequence,
    }


class ProgressView:
    """One run directory's progress, re-derived on every :meth:`read`
    from an incremental trace tail (``obs serve`` answers ``/trace``
    from the same one)."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.tail = TraceTail(self.run_dir / TRACE_FILE)
        self._budget: Any = _UNREAD

    def read(self) -> dict[str, Any] | None:
        """The current progress document (None before the first event)."""
        self.tail.poll()
        return fold_progress(self.tail.effective(),
                             count_checkpoints(self.run_dir),
                             self._read_budget())

    def _read_budget(self) -> float | None:
        if self._budget is _UNREAD:
            path = self.run_dir / RUN_FILE
            if not path.is_file():
                return None  # not written yet: look again next time
            try:
                self._budget = json.loads(path.read_bytes())["config"][
                    "budget"]
            except (ValueError, KeyError, TypeError):
                self._budget = None
        return self._budget


def read_progress(run_dir: str | Path) -> dict[str, Any] | None:
    """A run directory's progress document (None until it has a trace)."""
    return ProgressView(run_dir).read()
