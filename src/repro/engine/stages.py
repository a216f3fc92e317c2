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

from itertools import compress
from pathlib import Path

import numpy as np

from ..config import CorleoneConfig
from ..core.blocker import Blocker, umbrella_pairs
from ..core.estimator import AccuracyEstimator
from ..core.locator import DifficultPairsLocator
from ..core.matcher import ActiveLearningMatcher, MatcherTrainState
from ..core.results import IterationRecord
from ..data.pairs import CandidateSet, PairRows
from ..data.table import Table
from ..features.library import FeatureLibrary
from ..features.vectorize import vectorize_pairs
from ..rules.rule import Rule
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
        blocker = Blocker(ctx.config, ctx.service, ctx.rng("blocker"),
                          bus=ctx.bus, shard_dir=shard_dir(ctx.run_dir))
        with ctx.span("section", section="blocker.run"):
            result = blocker.run(state.table_a, state.table_b,
                                 state.library, state.seed_labels)
        state.blocker = result
        if ctx.telemetry is not None:
            ctx.telemetry.record_blocker_result(result)
            if result.plan_stats is not None:
                ctx.telemetry.record_plan_stats(result.plan_stats)
        with ctx.span("section", section="vectorize_candidates"):
            candidates, spilled = vectorize_candidates(
                state.table_a, state.table_b, result.candidate_pairs,
                state.library, ctx.config, ctx.run_dir)
        if ctx.telemetry is not None:
            ctx.telemetry.record_spill(spilled)
        state.candidates = candidates
        if len(candidates) == 0:
            state.stop_reason = "empty_candidate_set"
            return None
        return STAGE_TRAIN_MATCHER


def shard_dir(run_dir: Path | None) -> Path | None:
    """Where a durable run keeps its blocking shard files."""
    return None if run_dir is None else run_dir / "shards"


def vectorize_candidates(table_a: Table, table_b: Table, pairs: PairRows,
                         library: FeatureLibrary, config: CorleoneConfig,
                         run_dir: Path | None,
                         ) -> tuple[CandidateSet, int]:
    """The umbrella set ``pairs`` vectorized; and the bytes it spilled.

    A durable run's matrix of at least ``plan.spill_threshold_bytes``
    goes straight into a memory-mapped ``.npy`` under the run
    directory.  The file is scratch space: no checkpoint refers to it,
    and a resumed run allocates its own (:func:`rebuild_candidates`).
    """
    spill = out = None
    if run_dir is not None and config.plan.spill_threshold_bytes > 0:
        from ..plan import SPILL_DIR_NAME, SpillManager

        spill = SpillManager(run_dir / SPILL_DIR_NAME,
                             config.plan.spill_threshold_bytes)
        out = spill.allocate("candidates", (len(pairs), len(library)))
    candidates = vectorize_pairs(table_a, table_b, pairs, library, out=out)
    if spill is None:
        return candidates, 0
    # The manager's handle is released here and the matrix lives on
    # through the CandidateSet's read-only view (CL015 ownership
    # contract).
    spilled = spill.bytes_spilled
    spill.close()
    return candidates, spilled


def rebuild_candidates(table_a: Table, table_b: Table,
                       library: FeatureLibrary, rules: list[Rule],
                       config: CorleoneConfig,
                       run_dir: Path) -> CandidateSet:
    """A resumed run's umbrella set C, rebuilt from durable inputs.

    The tables come from ``run.json`` and ``rules`` are the applied
    rules of the checkpoint's blocker record; re-applying them loads
    the shard files under ``run_dir`` that verify and recomputes the
    others (:func:`~repro.core.blocker.umbrella_pairs`), and
    vectorizing the survivors gives the block stage's matrix byte for
    byte.  The rebuild gets no event bus and no plan statistics, and
    runs before the run's telemetry is active: the block stage already
    counted this work, and the checkpoint restores those counts.
    """
    pairs = umbrella_pairs(table_a, table_b, rules, library, config,
                           shard_dir=shard_dir(run_dir))
    return vectorize_candidates(table_a, table_b, pairs, library, config,
                                run_dir)[0]


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
        cached = ctx.service.labeled_pairs()
        initial = {pair: cached[pair] for pair in compress(
            cached, working.pairs.indices(list(cached)) >= 0)}
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

        record = IterationRecord(
            index=state.iteration,
            matcher=matcher_result,
            predicted_pairs=frozenset(),
        )
        state.iterations.append(record)
        # The ensemble includes this record's predictions.
        record.predicted_pairs = frozenset(state.candidates.pairs.take(
            np.flatnonzero(state.ensemble())))

        if state.mode == "blocker_matcher":
            state.best_iteration = len(state.iterations) - 1
            state.stop_reason = "blocker_matcher_mode"
            return None
        return STAGE_ESTIMATE


class EstimateStage:
    """Estimate precision/recall of the ensemble output (Section 6)."""

    name = STAGE_ESTIMATE
    phase = "estimation"

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Estimate accuracy; decide whether the loop should continue."""
        record = state.iterations[-1]
        est_before = ctx.tracker.snapshot()
        estimator = AccuracyEstimator(ctx.config, ctx.service,
                                      ctx.rng("estimator"))
        estimate = estimator.estimate(
            state.candidates, state.ensemble(), record.matcher.forest,
            certified=state.certified(),
        )
        record.estimate = estimate
        record.estimation_pairs_labeled = (
            ctx.tracker.snapshot().minus(est_before).pairs_labeled
        )

        kept = state.kept
        if kept is not None and estimate.f1 <= kept.estimate.f1:
            state.stop_reason = "no_improvement"
            return None
        state.best_iteration = len(state.iterations) - 1
        if ctx.telemetry is not None:
            ctx.telemetry.record_best_f1(estimate.f1)

        if state.mode == "one_iteration":
            state.stop_reason = "one_iteration_mode"
            return None
        if state.iteration == ctx.config.max_pipeline_iterations:
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
        return STAGE_REDUCE


class ReduceStage:
    """Hand the difficult pairs to the next round as its working set."""

    name = STAGE_REDUCE
    phase = None

    def run(self, state: RunState, ctx: RunContext) -> str | None:
        """Mark the phase boundary before the next iteration.

        The working set is read off the iteration records, so the
        difficult rows the locate stage recorded already define the
        next one; this stage contributes only its events and checkpoint.
        """
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
