"""The staged execution engine under the hands-off loop.

Corleone's orchestration used to be a monolith: one ``_run`` method
hard-wired Blocker -> Matcher -> Estimator -> Locator and threaded a
single shared RNG through every component.  This package factors that
into explicit parts:

* :class:`~repro.engine.context.RunContext` — owns the run's named,
  independently seeded RNG streams, the labelling service, the cost
  tracker, the optional phase-budget manager and the event bus;
* :class:`~repro.engine.stage.Stage` — the protocol each pipeline phase
  implements (block, train-matcher, estimate, locate-difficult,
  reduce), operating on a serializable
  :class:`~repro.engine.state.RunState`;
* :class:`~repro.engine.runner.StagedEngine` — the thin deterministic
  driver that executes the stage sequence, emits structured events and
  checkpoints the run state at every boundary;
* :class:`~repro.engine.checkpoint.Checkpointer` — durable run
  directories: a killed run resumes to a bit-identical result.

``Corleone``, ``Deduplicator`` and ``MultiTaskRunner`` all execute
through this layer; see ``docs/architecture.md`` for the full picture.
"""

from __future__ import annotations

from .checkpoint import (
    CHECKPOINT_LOG,
    Checkpointer,
    load_checkpoint,
    load_run_inputs,
)
from .context import RNG_STREAMS, RunContext
from .events import (
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_CIRCUIT_OPENED,
    EVENT_FAULT_INJECTED,
    EVENT_HIT_REPOSTED,
    EVENT_LABELS_PURCHASED,
    EVENT_RETRY_SCHEDULED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
    EVENT_TRACE_TORN,
    Event,
    EventBus,
    JsonlTraceSink,
)
from .reporter import ProgressReporter
from .runner import StagedEngine
from .stage import Stage
from .stages import (
    STAGE_BLOCK,
    STAGE_ESTIMATE,
    STAGE_LOCATE,
    STAGE_REDUCE,
    STAGE_TRAIN_MATCHER,
    build_stages,
)
from .state import RunState

__all__ = [
    "CHECKPOINT_LOG",
    "Checkpointer",
    "EVENT_ARTIFACT_CORRUPT",
    "EVENT_ARTIFACT_QUARANTINED",
    "EVENT_ARTIFACT_WRITTEN",
    "EVENT_CHECKPOINT_FALLBACK",
    "EVENT_CHECKPOINT_WRITTEN",
    "EVENT_CIRCUIT_OPENED",
    "EVENT_FAULT_INJECTED",
    "EVENT_HIT_REPOSTED",
    "EVENT_LABELS_PURCHASED",
    "EVENT_RETRY_SCHEDULED",
    "EVENT_STAGE_FINISHED",
    "EVENT_STAGE_STARTED",
    "EVENT_TRACE_TORN",
    "Event",
    "EventBus",
    "JsonlTraceSink",
    "ProgressReporter",
    "RNG_STREAMS",
    "RunContext",
    "RunState",
    "STAGE_BLOCK",
    "STAGE_ESTIMATE",
    "STAGE_LOCATE",
    "STAGE_REDUCE",
    "STAGE_TRAIN_MATCHER",
    "Stage",
    "StagedEngine",
    "build_stages",
    "load_checkpoint",
    "load_run_inputs",
]
