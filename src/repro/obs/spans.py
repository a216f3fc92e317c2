"""Nested span tracing on the engine's simulated clock.

A :class:`SpanTracer` records a tree of spans — run, stage,
matcher-iteration, hot-path section — where every span carries its
parent id and a duration in *simulated* seconds read from the run's
shared :class:`~repro.crowd.latency.SimulatedClock`.  Nothing touches
wall time (that is :mod:`repro.obs.profiling`'s clearly-marked job), so
spans share the event trace's determinism contract: a seeded run, its
replay and a kill/resume all produce byte-identical ``spans.jsonl``.

The bit-identity across kill/resume is stronger than ``trace.jsonl``'s
append-only contract and needs a different write discipline: completed
spans live in memory, ride inside the engine checkpoint via
:meth:`SpanTracer.state_dict`, and the whole file is atomically
*rewritten* from that state at every stage boundary and at run end —
so a resumed run's final file is the uninterrupted run's, byte for
byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..exceptions import DataError
from ..storage.recovery import read_jsonl
from ..storage.writer import atomic_write_text

SPANS_FILE = "spans.jsonl"

SPAN_NAMES = (
    "run",
    "stage",
    "section",
    "matcher_iteration",
    "shard",
)
"""The closed registry of span names.

corlint CL017 requires every literal ``SpanTracer.start(...)`` /
``.span(...)`` name argument to come from this tuple, mirroring what
CL009 does for event names — the span hierarchy documented in
``docs/observability.md`` stays the whole story.
"""


class _ZeroClock:
    """The clock used when the platform stack keeps no simulated time."""

    now = 0.0


class SpanTracer:
    """Builds the span tree and serializes it deterministically."""

    def __init__(self, clock: Any | None = None) -> None:
        self.clock = clock if clock is not None else _ZeroClock()
        self._open: list[dict[str, Any]] = []
        self._completed: list[dict[str, Any]] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 = idle)."""
        return len(self._open)

    @property
    def completed(self) -> list[dict[str, Any]]:
        """Completed span records, in completion order (do not mutate)."""
        return self._completed

    @property
    def innermost_open(self) -> dict[str, Any] | None:
        """The innermost open span record, if any (do not mutate)."""
        return self._open[-1] if self._open else None

    def start(self, name: str, **attrs: Any) -> int:
        """Open a span under the innermost open span; returns its id."""
        span_id = self._next_id
        self._next_id += 1
        self._open.append({
            "id": span_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "attrs": dict(attrs),
            "start_time": float(self.clock.now),
        })
        return span_id

    def end(self, span_id: int) -> dict[str, Any]:
        """Close the innermost open span (which must be ``span_id``)."""
        if not self._open or self._open[-1]["id"] != span_id:
            raise DataError(
                f"span {span_id} is not the innermost open span"
            )
        span = self._open.pop()
        end_time = float(self.clock.now)
        span["end_time"] = end_time
        span["duration"] = round(end_time - span["start_time"], 9)
        self._completed.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Context manager: open on entry, close on exit (even raising)."""
        span_id = self.start(name, **attrs)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def close_all_open(self) -> None:
        """Close every open span, innermost first (end of run)."""
        while self._open:
            self.end(self._open[-1]["id"])

    # -- serialization --------------------------------------------------

    def lines(self) -> list[str]:
        """Completed spans as canonical JSON lines."""
        return [json.dumps(span, sort_keys=True)
                for span in self._completed]

    def write(self, path: str | Path, writer: Any = None) -> None:
        """Atomically rewrite ``path`` from the completed spans.

        Goes through :mod:`repro.storage.writer`.  With an
        :class:`~repro.storage.writer.ArtifactWriter` the file is
        written fully durable and recorded in the run manifest (the
        run-end export); without one it is a volatile snapshot —
        atomic replace, no fsync, unmanifested — the per-checkpoint
        live path, regenerated from checkpointed tracer state on
        resume.
        """
        path = Path(path)
        body = "".join(line + "\n" for line in self.lines())
        if writer is not None:
            writer.atomic_write_text(path, body)
        else:
            atomic_write_text(path, body, durable=False)

    def state_dict(self) -> dict[str, Any]:
        """Checkpointable tracer state (completed + open spans)."""
        return {
            "next_id": self._next_id,
            "open": [dict(span) for span in self._open],
            "completed": [dict(span) for span in self._completed],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._next_id = int(state["next_id"])
        self._open = [dict(span) for span in state["open"]]
        self._completed = [dict(span) for span in state["completed"]]


def read_spans(path: str | Path) -> list[dict[str, Any]]:
    """Parse a ``spans.jsonl`` file back into span records.

    Torn-tail tolerant through :func:`repro.storage.recovery.read_jsonl`,
    like :func:`repro.engine.events.read_trace`: a run killed mid-write
    may leave a truncated *final* line, which is silently dropped —
    ``watch``/``serve`` must never crash on an in-flight file.  An
    invalid line anywhere *before* the tail cannot be a torn write and
    raises :class:`DataError`.
    """
    return read_jsonl(path, "spans")
