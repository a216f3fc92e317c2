"""The engine's structured event bus and its standard sinks.

Every observable milestone of a run flows through one
:class:`EventBus`: stage boundaries, label purchases, budget spend and
checkpoint writes.  Sinks subscribe to the bus; the engine ships two —
a JSONL trace writer (the machine-readable run log) and a human
progress reporter.  Events carry a monotonically increasing sequence
number instead of wall-clock timestamps, so traces of a seeded run are
bit-identical across replays (the same determinism contract corlint
CL001 enforces on the algorithmic subsystems).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

from ..storage.recovery import read_jsonl

__all__ = [
    "EVENT_ARTIFACT_CORRUPT",
    "EVENT_ARTIFACT_QUARANTINED",
    "EVENT_ARTIFACT_WRITTEN",
    "EVENT_BLOCKER_FALLBACK",
    "EVENT_BUDGET_SPENT",
    "EVENT_CHECKPOINT_FALLBACK",
    "EVENT_CHECKPOINT_WRITTEN",
    "EVENT_CIRCUIT_OPENED",
    "EVENT_FAULT_INJECTED",
    "EVENT_HIT_REPOSTED",
    "EVENT_LABELS_PURCHASED",
    "EVENT_NAMES",
    "EVENT_RETRY_SCHEDULED",
    "EVENT_SHARD_COMPLETED",
    "EVENT_SHARD_STARTED",
    "EVENT_STAGE_FINISHED",
    "EVENT_STAGE_STARTED",
    "EVENT_TRACE_TORN",
    "Event",
    "EventBus",
    "JsonlTraceSink",
    "ProgressReporter",
    "read_trace",
]

EVENT_STAGE_STARTED = "stage_started"
EVENT_STAGE_FINISHED = "stage_finished"
EVENT_LABELS_PURCHASED = "labels_purchased"
EVENT_BUDGET_SPENT = "budget_spent"
EVENT_CHECKPOINT_WRITTEN = "checkpoint_written"
EVENT_FAULT_INJECTED = "fault_injected"
EVENT_RETRY_SCHEDULED = "retry_scheduled"
EVENT_HIT_REPOSTED = "hit_reposted"
EVENT_CIRCUIT_OPENED = "circuit_opened"
EVENT_SHARD_STARTED = "shard_started"
EVENT_SHARD_COMPLETED = "shard_completed"
EVENT_BLOCKER_FALLBACK = "blocker_parallel_fallback"
EVENT_ARTIFACT_WRITTEN = "artifact_written"
EVENT_ARTIFACT_CORRUPT = "artifact_corrupt"
EVENT_ARTIFACT_QUARANTINED = "artifact_quarantined"
EVENT_CHECKPOINT_FALLBACK = "checkpoint_fallback"
EVENT_TRACE_TORN = "trace_torn_tail"

EVENT_NAMES = (
    EVENT_STAGE_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_LABELS_PURCHASED,
    EVENT_BUDGET_SPENT,
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_FAULT_INJECTED,
    EVENT_RETRY_SCHEDULED,
    EVENT_HIT_REPOSTED,
    EVENT_CIRCUIT_OPENED,
    EVENT_SHARD_STARTED,
    EVENT_SHARD_COMPLETED,
    EVENT_BLOCKER_FALLBACK,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_TRACE_TORN,
)
"""Every event name the engine emits, in rough lifecycle order."""


@dataclass(frozen=True)
class Event:
    """One structured engine event.

    ``sequence`` orders events totally within a run; payload keys are
    event-specific but always JSON-compatible scalars or short lists.
    """

    name: str
    sequence: int
    payload: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible representation (one trace line)."""
        return {"event": self.name, "sequence": self.sequence,
                **self.payload}


Sink = Callable[[Event], None]
"""A subscriber: any callable accepting one :class:`Event`."""


class EventBus:
    """Fans engine events out to subscribed sinks, in subscribe order.

    A sink that raises aborts the emit — the engine treats observer
    failures as real failures rather than silently dropping telemetry
    (and the resume tests exploit this to kill runs at exact
    checkpoint boundaries).
    """

    def __init__(self) -> None:
        self._sinks: list[Sink] = []
        self._sequence = 0

    @property
    def events_emitted(self) -> int:
        """Total events emitted so far."""
        return self._sequence

    def subscribe(self, sink: Sink) -> Sink:
        """Register ``sink`` for every future event; returns it."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        """Remove a previously subscribed sink (no-op if absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, name: str, **payload: Any) -> Event:
        """Build, number and deliver one event to every sink."""
        event = Event(name=name, sequence=self._sequence, payload=payload)
        self._sequence += 1
        for sink in self._sinks:
            sink(event)
        return event

    def restore_sequence(self, sequence: int) -> None:
        """Reset the sequence counter (checkpoint resume)."""
        self._sequence = int(sequence)


class JsonlTraceSink:
    """Appends every event as one JSON line to a trace file.

    The file is opened lazily and flushed per event, so a killed run's
    trace is complete up to the last event it survived to emit.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None

    def __call__(self, event: Event) -> None:
        """Write one event as a JSON line."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace(path: str | Path) -> list[Event]:
    """Load a JSONL trace written by :class:`JsonlTraceSink`.

    Two durability accommodations, matching how the sink actually
    fails:

    * **Torn tail** — a crash mid-append can persist a *prefix* of the
      final line, which :func:`repro.storage.recovery.read_jsonl`
      drops (a resuming process additionally truncates it off the
      file and emits ``trace_torn_tail`` — see
      :func:`repro.storage.recovery.repair_trace`); invalid JSON
      anywhere *earlier* is real corruption and raises a typed
      :class:`~repro.exceptions.DataError`.
    * **Duplicate sequence numbers** — the trace is append-only across
      kill/resume: a resumed run re-emits from the restored sequence
      counter, so the seam appears as sequence numbers that repeat
      (and, for events emitted after the checkpoint document was
      serialized, as a small shift).  Events are returned in file
      order, duplicates included; readers wanting one event per
      sequence take the *latest* occurrence, which is the resumed
      run's authoritative one
      (:func:`repro.obs.report.effective_trace`).
    """
    return [
        Event(name=data.pop("event"), sequence=data.pop("sequence"),
              payload=data)
        for data in read_jsonl(path, "trace")
    ]


class ProgressReporter:
    """Human-readable one-liner per coarse event.

    ``write`` defaults to ``print``; tests pass a list-appender.  Label
    purchases are aggregated into the following stage_finished line
    rather than reported one-by-one, keeping the output proportional to
    stages, not labels.
    """

    def __init__(self, write: Callable[[str], None] = print) -> None:
        self._write = write
        self._labels_since_stage = 0

    def __call__(self, event: Event) -> None:
        """Format and forward one event."""
        if event.name == EVENT_LABELS_PURCHASED:
            self._labels_since_stage += 1
            return
        if event.name == EVENT_STAGE_STARTED:
            self._labels_since_stage = 0
            self._write(
                f"[{event.sequence}] stage {event.payload.get('stage')} "
                f"(iteration {event.payload.get('iteration')}) started"
            )
        elif event.name == EVENT_STAGE_FINISHED:
            self._write(
                f"[{event.sequence}] stage {event.payload.get('stage')} "
                f"finished: {self._labels_since_stage} labels purchased, "
                f"${event.payload.get('dollars', 0.0):.2f} total spend"
            )
        elif event.name == EVENT_CHECKPOINT_WRITTEN:
            self._write(
                f"[{event.sequence}] checkpoint "
                f"#{event.payload.get('index')} written"
            )
        elif event.name == EVENT_CIRCUIT_OPENED:
            self._write(
                f"[{event.sequence}] crowd circuit OPENED after "
                f"{event.payload.get('failures')} consecutive failures"
            )
        elif event.name == EVENT_BLOCKER_FALLBACK:
            self._write(
                f"[{event.sequence}] parallel blocking fell back "
                f"({event.payload.get('reason')})"
            )
        elif event.name == EVENT_ARTIFACT_CORRUPT:
            self._write(
                f"[{event.sequence}] artifact CORRUPT: "
                f"{event.payload.get('artifact')} "
                f"(sha256 {event.payload.get('actual_sha256', '?')[:12]} != "
                f"recorded {event.payload.get('expected_sha256', '?')[:12]})"
            )
        elif event.name == EVENT_ARTIFACT_QUARANTINED:
            self._write(
                f"[{event.sequence}] artifact quarantined: "
                f"{event.payload.get('artifact')} -> "
                f"{event.payload.get('quarantined_to')}"
            )
        elif event.name == EVENT_CHECKPOINT_FALLBACK:
            self._write(
                f"[{event.sequence}] checkpoint fell back to generation "
                f"{event.payload.get('artifact')}"
            )
        elif event.name == EVENT_TRACE_TORN:
            self._write(
                f"[{event.sequence}] trace had a torn tail: "
                f"{event.payload.get('bytes_truncated')} bytes truncated"
            )
        elif event.name in (EVENT_BUDGET_SPENT, EVENT_FAULT_INJECTED,
                            EVENT_RETRY_SCHEDULED, EVENT_HIT_REPOSTED,
                            EVENT_SHARD_STARTED, EVENT_SHARD_COMPLETED,
                            EVENT_ARTIFACT_WRITTEN):
            pass  # per-answer/per-shard/per-artifact noise, too fine
            # for progress output
        else:
            self._write(f"[{event.sequence}] {event.name}")
