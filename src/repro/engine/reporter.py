"""The human-readable event sink: one line per coarse engine event."""

from __future__ import annotations

from collections.abc import Callable

from .events import (
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_BLOCKER_FALLBACK,
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_CIRCUIT_OPENED,
    EVENT_FAULT_INJECTED,
    EVENT_HIT_REPOSTED,
    EVENT_LABELS_PURCHASED,
    EVENT_RETRY_SCHEDULED,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
    EVENT_TRACE_TORN,
    Event,
)

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Human-readable one-liner per coarse event.

    ``write`` defaults to ``print``; tests pass a list-appender.  Label
    purchases are summed into the following stage_finished line rather
    than reported call by call, keeping the output proportional to
    stages, not labelling calls.
    """

    def __init__(self, write: Callable[[str], None] = print) -> None:
        self._write = write
        self._labels_since_stage = 0

    def __call__(self, event: Event) -> None:
        """Format and forward one event."""
        if event.name == EVENT_LABELS_PURCHASED:
            self._labels_since_stage += event.payload.get("labels", 0)
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
        elif event.name in (EVENT_FAULT_INJECTED, EVENT_RETRY_SCHEDULED,
                            EVENT_HIT_REPOSTED, EVENT_SHARD_STARTED,
                            EVENT_SHARD_COMPLETED, EVENT_ARTIFACT_WRITTEN):
            pass  # per-answer/per-shard/per-artifact noise, too fine
            # for progress output
        else:
            self._write(f"[{event.sequence}] {event.name}")
