"""The thin deterministic driver executing the stage sequence.

``StagedEngine.run`` loops: look up the next stage by name, emit
``stage_started``, run the stage inside its budget phase, emit
``stage_finished``, checkpoint.  All control flow lives in the stages'
return values; the driver adds only events and durability.

Checkpoints are written *before* the ``checkpoint_written`` event is
emitted, so even a sink that raises (the crash-injection hook the
resume tests use) leaves a complete checkpoint on disk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .context import RunContext
from .events import (
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
)
from .stage import Stage
from .stages import build_stages
from .state import RunState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import Checkpointer


class StagedEngine:
    """Executes stages against one run state until none remains."""

    def __init__(self, ctx: RunContext,
                 checkpointer: "Checkpointer | None" = None) -> None:
        self.ctx = ctx
        self.stages: dict[str, Stage] = {
            stage.name: stage for stage in build_stages()
        }
        self.checkpointer = checkpointer
        if checkpointer is not None:
            # Stages call this mid-stage (e.g. per matcher iteration).
            ctx.checkpoint = self._write_checkpoint
            # Finer-than-checkpoint durability (the sharded blocking
            # executor's per-shard files) lives under the same directory.
            ctx.run_dir = checkpointer.run_dir

    def _write_checkpoint(self, state: RunState) -> None:
        """Persist the state, then announce it on the bus.

        The telemetry checkpoint counter increments *before* the write
        so the count rides inside the checkpoint document itself — a
        run killed at this exact checkpoint then resumes with the same
        count the uninterrupted run carries in memory.
        """
        if self.ctx.telemetry is not None:
            self.ctx.telemetry.record_checkpoint()
        index = self.checkpointer.write(state, self.ctx)
        self.ctx.bus.emit(
            EVENT_CHECKPOINT_WRITTEN,
            index=index,
            stage=state.next_stage,
            iteration=state.iteration,
        )

    def run(self, state: RunState) -> RunState:
        """Drive ``state`` to completion (``next_stage is None``).

        A :class:`~repro.exceptions.BudgetExhaustedError` escaping a
        stage propagates to the caller with the partial state intact.

        For the run's duration the context's telemetry (if any) is
        *activated*: the hot paths' wall-clock sections and metrics
        (:mod:`repro.obs.profiling`) report to it, a root ``run`` span
        brackets the whole run and each stage executes inside its own
        ``stage`` span.  A stage that raises leaves its span open; the
        span then simply never reaches ``spans.jsonl`` (the tracer
        serializes completed spans only), and a resumed run re-opens it
        afresh.
        """
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            telemetry.activate()
            telemetry.open_run_span(state.mode)
        try:
            while state.next_stage is not None:
                stage = self.stages[state.next_stage]
                span_id = (telemetry.start_stage_span(
                    stage.name, state.iteration)
                    if telemetry is not None else None)
                self.ctx.bus.emit(
                    EVENT_STAGE_STARTED,
                    stage=stage.name,
                    iteration=state.iteration,
                )
                with self.ctx.phase(stage.phase):
                    next_name = stage.run(state, self.ctx)
                state.next_stage = next_name
                self.ctx.bus.emit(
                    EVENT_STAGE_FINISHED,
                    stage=stage.name,
                    iteration=state.iteration,
                    next_stage=next_name,
                    dollars=round(self.ctx.tracker.dollars, 10),
                )
                if telemetry is not None:
                    telemetry.tracer.end(span_id)
                    if next_name is None:
                        # Close the root span before the final
                        # checkpoint so the completed run rides into
                        # the persisted telemetry state.
                        telemetry.close_run_span()
                if self.checkpointer is not None:
                    self._write_checkpoint(state)
        finally:
            if telemetry is not None:
                telemetry.deactivate()
        return state
