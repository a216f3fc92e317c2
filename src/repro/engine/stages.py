"""The five paper phases as engine stages.

The hands-off loop (Figure 1) becomes an explicit state machine::

    block -> train_matcher -> estimate -> locate_difficult -> reduce
                  ^                                             |
                  +---------------------------------------------+

Each stage draws randomness only from its own named stream
(``ctx.rng(<stage>)``), so an extra draw in one stage no longer
perturbs any other — the decoupling the old shared-generator
orchestrator could not offer.
"""

from __future__ import annotations

import numpy as np

from ..core.blocker import Blocker
from ..core.estimator import AccuracyEstimator
from ..core.locator import DifficultPairsLocator
from ..core.matcher import ActiveLearningMatcher, MatcherTrainState
from ..core.results import IterationRecord
from ..features.vectorize import vectorize_pairs
from .context import RunContext
from .stage import Stage
from .state import RunState

STAGE_BLOCK = "block"
STAGE_TRAIN_MATCHER = "train_matcher"
STAGE_ESTIMATE = "estimate"
STAGE_LOCATE = "locate_difficult"
STAGE_REDUCE = "reduce"


class BlockStage:
    """Run the Blocker over A x B and vectorize the umbrella set."""

    name = STAGE_BLOCK
    phase = "blocking"

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Block, vectorize, and set up the first working set."""
        # The sharded executor checkpoints per-shard progress under the
        # run directory; unpersisted runs pass shard_dir=None and simply
        # recompute on resume (there is nothing to resume from anyway).
        shard_dir = (ctx.run_dir / "shards"
                     if ctx.run_dir is not None else None)
        blocker = Blocker(ctx.config, ctx.service, ctx.rng("blocker"),
                          bus=ctx.bus, shard_dir=shard_dir)
        with ctx.span("section", section="blocker.run"):
            result = blocker.run(state.table_a, state.table_b,
                                 state.library, state.seed_labels)
        state.blocker = result
        if ctx.telemetry is not None:
            ctx.telemetry.record_blocker_result(result)
            if result.plan_stats is not None:
                ctx.telemetry.record_plan_stats(result.plan_stats)
        plan_cfg = ctx.config.plan
        out = None
        spill = None
        if (ctx.run_dir is not None
                and plan_cfg.spill_threshold_bytes > 0):
            # Oversized feature matrices go straight into a
            # memory-mapped .npy under the run directory; the
            # checkpointer then references the spill file instead of
            # re-serializing the matrix.
            from ..plan import SPILL_DIR_NAME, SpillManager

            spill = SpillManager(ctx.run_dir / SPILL_DIR_NAME,
                                 plan_cfg.spill_threshold_bytes)
            out = spill.allocate(
                "candidates",
                (len(result.candidate_pairs), len(state.library)),
            )
        with ctx.span("section", section="vectorize_candidates"):
            candidates = vectorize_pairs(
                state.table_a, state.table_b, result.candidate_pairs,
                state.library, out=out,
            )
        if spill is not None:
            # Flush before anything references the file; the manager's
            # handle is released here and the matrix lives on through
            # the CandidateSet's read-only view (CL015 ownership
            # contract).
            if ctx.telemetry is not None:
                ctx.telemetry.record_spill(spill.bytes_spilled)
            spill.close()
        state.candidates = candidates
        if len(candidates) == 0:
            state.stop_reason = "empty_candidate_set"
            return None
        state.working_rows = list(range(len(candidates)))
        state.max_rounds = (
            1 if state.mode in ("one_iteration", "blocker_matcher")
            else ctx.config.max_pipeline_iterations
        )
        return STAGE_TRAIN_MATCHER


class TrainMatcherStage:
    """Crowd-train a forest on the current working set (Section 5)."""

    name = STAGE_TRAIN_MATCHER
    phase = "matching"

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Train (or resume training) the iteration's matcher.

        The engine drives the matcher's stepwise API directly (rather
        than :meth:`~repro.core.matcher.ActiveLearningMatcher.train`) so
        each active-learning iteration runs inside its own telemetry
        span and checkpoints at the same boundary the span closes on.
        """
        working = state.working_set()
        matcher = ActiveLearningMatcher(ctx.config, ctx.service,
                                        ctx.rng("matcher"))
        if state.matcher_state is None:
            # Fresh iteration (a resumed mid-training one keeps its index).
            state.iteration += 1
        initial = {
            pair: label
            for pair, label in ctx.service.labeled_pairs().items()
            if pair in working
        }
        if ctx.telemetry is not None:
            ctx.telemetry.record_working_set(len(working))
        # Seed pairs may sit outside the umbrella set; vectorize them
        # separately so every matcher still trains on them.
        seed_items = sorted(state.seed_labels.items())
        seed_vectors = vectorize_pairs(
            state.table_a, state.table_b,
            [pair for pair, _ in seed_items], state.library,
        ).features
        seed_flags = np.array([label for _, label in seed_items], dtype=bool)

        train_state: MatcherTrainState | None = state.matcher_state
        if train_state is None:
            train_state = matcher.start(working, initial)
        while not matcher.train_finished(train_state):
            with ctx.span("matcher_iteration",
                          iteration=state.iteration,
                          al_step=len(train_state.forests) + 1):
                matcher.step(train_state, working,
                             seed_vectors, seed_flags)
            if ctx.telemetry is not None:
                ctx.telemetry.record_matcher_iteration()
            state.matcher_state = train_state
            if ctx.checkpoint is not None:
                ctx.checkpoint(state)
        matcher_result = matcher.finish(train_state, working)
        state.matcher_state = None

        for row, pair in enumerate(working.pairs):
            state.predictions_by_pair[pair] = bool(
                matcher_result.predictions[row]
            )
        candidates = state.candidates
        combined = frozenset(
            pair for pair in candidates.pairs
            if state.predictions_by_pair.get(pair, False)
        )
        record = IterationRecord(
            index=state.iteration,
            matcher=matcher_result,
            matcher_pairs_labeled=matcher_result.pairs_labeled,
            predicted_pairs=combined,
        )
        state.iterations.append(record)

        if state.mode == "blocker_matcher":
            state.best_predictions = record.predicted_pairs
            state.stop_reason = "blocker_matcher_mode"
            return None
        return STAGE_ESTIMATE


class EstimateStage:
    """Estimate precision/recall of the ensemble output (Section 6)."""

    name = STAGE_ESTIMATE
    phase = "estimation"

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Estimate accuracy; decide whether the loop should continue."""
        candidates = state.candidates
        record = state.iterations[-1]
        combined = np.array([
            state.predictions_by_pair.get(pair, False)
            for pair in candidates.pairs
        ], dtype=bool)

        est_before = ctx.tracker.snapshot()
        estimator = AccuracyEstimator(ctx.config, ctx.service,
                                      ctx.rng("estimator"))
        estimate = estimator.estimate(
            candidates, combined, record.matcher.forest,
            certified=state.certified,
        )
        state.certified.extend(
            ev for ev in estimate.rule_evaluations if ev.accepted
        )
        record.estimate = estimate
        record.estimation_pairs_labeled = (
            ctx.tracker.snapshot().minus(est_before).pairs_labeled
        )

        if estimate.f1 <= state.best_f1:
            state.stop_reason = "no_improvement"
            return None
        state.best_f1 = estimate.f1
        state.best_predictions = record.predicted_pairs
        state.best_estimate = estimate
        if ctx.telemetry is not None:
            ctx.telemetry.record_best_f1(estimate.f1)

        if state.mode == "one_iteration":
            state.stop_reason = "one_iteration_mode"
            return None
        if state.iteration == state.max_rounds:
            state.stop_reason = "max_iterations"
            return None
        return STAGE_LOCATE


class LocateDifficultStage:
    """Carve the difficult pairs C' out of the working set (Section 7)."""

    name = STAGE_LOCATE
    phase = "reduction"

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Locate difficult pairs; stop the loop if reduction failed."""
        record = state.iterations[-1]
        working = state.working_set()
        locator = DifficultPairsLocator(ctx.config, ctx.service,
                                        ctx.rng("locator"))
        loc_before = ctx.tracker.snapshot()
        locator_result = locator.locate(working, record.matcher.forest)
        record.locator = locator_result
        record.reduction_pairs_labeled = (
            ctx.tracker.snapshot().minus(loc_before).pairs_labeled
        )
        if not locator_result.should_continue:
            state.stop_reason = f"locator_{locator_result.stop_reason}"
            return None
        state.pending_difficult_rows = [
            state.candidates.index_of(pair)
            for pair in locator_result.difficult.pairs
        ]
        return STAGE_REDUCE


class ReduceStage:
    """Shrink the working set to the difficult pairs for the next round."""

    name = STAGE_REDUCE
    phase = None

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Adopt the pending difficult rows as the new working set."""
        state.working_rows = list(state.pending_difficult_rows)
        state.pending_difficult_rows = []
        state.iterations[-1].difficult_size = len(state.working_rows)
        return STAGE_TRAIN_MATCHER


def build_stages() -> list[Stage]:
    """The standard five-stage pipeline, in declaration order."""
    return [
        BlockStage(),
        TrainMatcherStage(),
        EstimateStage(),
        LocateDifficultStage(),
        ReduceStage(),
    ]
