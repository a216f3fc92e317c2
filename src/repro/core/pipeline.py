"""The Corleone orchestrator (Figure 1), as a thin engine driver.

The hands-off loop — block A x B, train a matcher with the crowd,
estimate its accuracy, locate the difficult pairs, reduce, repeat — is
implemented as five stages executed by the staged engine
(:mod:`repro.engine`).  This module supplies only the public
entry points: build the run context, seed the
:class:`~repro.engine.state.RunState`, drive it to completion, and
package (possibly partial) results.  With a ``run_dir``, every stage
boundary and matcher iteration is checkpointed, and
:meth:`Corleone.resume` continues a killed run to a bit-identical
result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..config import CorleoneConfig
from ..crowd.base import CrowdPlatform, load_stack_state
from ..data.pairs import CandidateSet, Pair, PairRows
from ..data.table import Table
from ..engine.checkpoint import (
    CANDIDATES_FILE,
    CHECKPOINT_LOG,
    TRACE_FILE,
    Checkpointer,
    load_checkpoint,
    load_run_inputs,
)
from ..engine.context import RunContext
from ..engine.events import EVENT_TRACE_TORN, EventBus, JsonlTraceSink
from ..engine.runner import StagedEngine
from ..engine.state import RunState
from ..exceptions import (
    BudgetExhaustedError,
    CrowdUnavailableError,
    DataError,
)
from ..features.library import build_feature_library
from ..persistence import load_candidates
from ..storage.recovery import (
    RecoveryLog,
    cleanup_stale_tmp,
    quarantine_artifact,
    repair_trace,
    verify_artifact,
)
from .blocker import Blocker, BlockerResult
from .budgeting import BudgetPlan, PhaseBudgetManager
from .estimator import AccuracyEstimate, AccuracyEstimator
from .locator import DifficultPairsLocator, LocatorResult
from .matcher import ActiveLearningMatcher, MatcherResult
from .results import CorleoneResult, IterationRecord

__all__ = [
    "ActiveLearningMatcher",
    "AccuracyEstimate",
    "AccuracyEstimator",
    "Blocker",
    "BlockerResult",
    "Corleone",
    "CorleoneResult",
    "DifficultPairsLocator",
    "IterationRecord",
    "LocatorResult",
    "MatcherResult",
]


class Corleone:
    """The hands-off crowdsourced EM pipeline.

    The user supplies only what the paper's Section 3 asks for: the two
    tables, a matching instruction (carried in the dataset object; shown
    to real crowds, unused by simulated ones) and four labelled seed
    pairs.  Everything else — blocking rules, training data, accuracy
    estimates, iteration — comes from the crowd.

    ``seed`` (or a back-compat ``rng``) fixes the run's root seed
    sequence, from which each stage derives its own independent RNG
    stream.  ``run_dir`` enables checkpointing: the run writes its
    inputs, candidate set, event trace and a resumable checkpoint into
    that directory.
    """

    def __init__(self, config: CorleoneConfig, platform: CrowdPlatform,
                 rng: np.random.Generator | None = None,
                 seed: int | np.random.SeedSequence | None = None,
                 run_dir: str | Path | None = None,
                 bus: EventBus | None = None,
                 telemetry: bool = True) -> None:
        self.config = config
        self.platform = platform
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._ctx = RunContext(config, platform, seed=seed, rng=rng,
                               bus=bus, telemetry=telemetry)
        self.service = self._ctx.service
        self.tracker = self._ctx.tracker
        self.bus = self._ctx.bus

    @property
    def context(self) -> RunContext:
        """The run context (RNG streams, services, event bus)."""
        return self._ctx

    def run(self, table_a: Table, table_b: Table,
            seed_labels: dict[Pair, bool],
            mode: str = "full",
            budget_plan: BudgetPlan | None = None) -> CorleoneResult:
        """Execute the pipeline.

        ``mode`` selects how much of the workflow runs:

        * ``"full"`` — iterate until estimated accuracy stops improving;
        * ``"one_iteration"`` — block, match, estimate once;
        * ``"blocker_matcher"`` — block and match only (no estimate).

        ``budget_plan`` optionally allocates dollars per phase (blocking
        / matching / estimation / reduction); a phase that exhausts its
        allocation wraps up with the labels it has instead of aborting
        the run.
        """
        if mode not in ("full", "one_iteration", "blocker_matcher"):
            raise DataError(f"unknown run mode {mode!r}")
        self._check_seeds(seed_labels)
        library = build_feature_library(table_a, table_b)

        ctx = self._ctx
        ctx.manager = (PhaseBudgetManager(budget_plan, ctx.tracker)
                       if budget_plan is not None else None)
        state = RunState(mode=mode, seed_labels=dict(seed_labels))
        state.attach(table_a, table_b, library)

        checkpointer = None
        if self.run_dir is not None:
            checkpointer = Checkpointer(self.run_dir)
            checkpointer.write_inputs(state, ctx, budget_plan)
        return self._execute(state, checkpointer)

    @classmethod
    def resume(cls, run_dir: str | Path,
               platform: CrowdPlatform) -> CorleoneResult:
        """Continue a checkpointed run to its (bit-identical) result.

        Everything mutable — run state, label cache, cost ledger, phase
        budgets, platform answer stream, RNG stream states — is restored
        from the directory's latest checkpoint, so the resumed run
        produces exactly the result the uninterrupted run would have.
        ``platform`` must be constructed the same way as the original
        run's: every layer of its stack is then fast-forwarded from the
        checkpoint (:func:`~repro.crowd.base.load_stack_state`).
        """
        run_dir = Path(run_dir)
        # Heal the directory before reading anything from it: drop
        # stale ``*.tmp`` leftovers of interrupted atomic writes and
        # truncate a torn trace tail (a kill mid-append can leave a
        # partial final line).  What was repaired is remembered in a
        # recovery log and replayed onto the event bus once it exists,
        # so the resumed run's trace and telemetry account for it.
        recovery = RecoveryLog()
        cleanup_stale_tmp(run_dir)
        trace_path = run_dir / TRACE_FILE
        if trace_path.is_file():
            torn = repair_trace(trace_path)
            if torn:
                recovery.emit(EVENT_TRACE_TORN, bytes_truncated=torn)
        inputs = load_run_inputs(run_dir)
        checkpoint = load_checkpoint(run_dir, recovery=recovery)

        pipeline = cls(inputs["config"], platform,
                       seed=inputs["root_seed"], run_dir=run_dir)
        ctx = pipeline._ctx
        plan = inputs["budget_plan"]
        ctx.manager = (PhaseBudgetManager(plan, ctx.tracker)
                       if plan is not None else None)
        table_a, table_b = inputs["table_a"], inputs["table_b"]
        library = build_feature_library(table_a, table_b)

        if checkpoint is None:
            # The run died before reaching its first stage boundary
            # (e.g. the crowd went away mid-blocking).  There is nothing
            # mutable to restore, so restart deterministically from the
            # persisted inputs — the run seed makes this equivalent.
            state = RunState(mode=inputs["mode"],
                             seed_labels=dict(inputs["seed_labels"]))
            state.attach(table_a, table_b, library)
            return pipeline._execute(state, Checkpointer(run_dir),
                                     recovery=recovery)

        candidates = None
        candidates_path = run_dir / CANDIDATES_FILE
        if candidates_path.is_file():
            verdict, actual, expected = verify_artifact(run_dir,
                                                        candidates_path)
            if verdict is False:
                # The candidate set has no older generation to fall
                # back to — it is written once and never rewritten —
                # so corruption here is unrecoverable.  Quarantine the
                # bytes for inspection and say exactly what mismatched.
                quarantined = quarantine_artifact(run_dir,
                                                  candidates_path)
                raise DataError(
                    f"{candidates_path}: corrupt beyond recovery — "
                    f"sha256 {actual} does not match the manifest's "
                    f"recorded {expected} (bytes preserved at "
                    f"{quarantined})"
                )
            candidates = load_candidates(candidates_path)
        source = (f"{run_dir / CHECKPOINT_LOG} "
                  f"(checkpoint {checkpoint.get('index')})")
        try:
            ctx.tracker.load_state(checkpoint["tracker"])
            if ctx.manager is not None and checkpoint["manager"] is not None:
                ctx.manager.load_state(checkpoint["manager"])
            ctx.service.restore_cache(checkpoint["service_cache"])
            ctx.restore_rng_states(checkpoint["rng"])
            telemetry_state = checkpoint.get("telemetry")
            if ctx.telemetry is not None and telemetry_state is not None:
                ctx.telemetry.load_state(telemetry_state)
            load_stack_state(platform, checkpoint["platform"])
            ctx.bus.restore_sequence(checkpoint["sequence"])
            state = RunState.from_dict(checkpoint["state"], candidates)
        except KeyError as error:
            raise DataError(f"{source}: missing key {error}") from None
        except DataError as error:
            raise DataError(f"{source}: {error}") from None
        state.attach(table_a, table_b, library)
        return pipeline._execute(state, Checkpointer(run_dir),
                                 recovery=recovery)

    # ------------------------------------------------------------------

    def _execute(self, state: RunState,
                 checkpointer: Checkpointer | None,
                 recovery: RecoveryLog | None = None) -> CorleoneResult:
        """Drive ``state`` through the engine and package the result."""
        ctx = self._ctx
        engine = StagedEngine(ctx, checkpointer=checkpointer)
        sink = None
        if checkpointer is not None:
            sink = JsonlTraceSink(checkpointer.run_dir / TRACE_FILE)
            ctx.bus.subscribe(sink)
        if recovery is not None:
            # Recovery findings (torn trace tail, quarantined
            # checkpoints, generation fallback) were collected before
            # the bus existed; emit them now so they land in the trace
            # and telemetry like any other event.
            recovery.replay(ctx.bus)
        try:
            engine.run(state)
        except BudgetExhaustedError:
            return self._partial_result(state)
        except CrowdUnavailableError as error:
            # Graceful degradation: the engine checkpointed at the last
            # stage boundary, so ``resume`` can continue this run once
            # the platform recovers.  Attach what the run accumulated
            # and hand the typed error to the caller.
            state.stop_reason = "crowd_unavailable"
            error.partial = self._partial_result(
                state, stop_reason="crowd_unavailable"
            )
            raise
        finally:
            if sink is not None:
                ctx.bus.unsubscribe(sink)
                sink.close()
            if checkpointer is not None:
                # Run end, also when the run aborted mid-stage: the
                # manifest records the checkpoint log as it stands, and
                # the final telemetry artifacts land next to
                # trace.jsonl — the metric snapshot and span tree
                # (deterministic) plus the wall-clock profile
                # (explicitly not).  This is the one durable, manifested
                # export — mid-run snapshots are volatile — so the
                # manifest checksums describe the final bytes.
                with checkpointer.writer.batch():
                    checkpointer.record_log()
                    if ctx.telemetry is not None:
                        ctx.telemetry.export(checkpointer.run_dir,
                                             include_profile=True,
                                             writer=checkpointer.writer)
            ctx.checkpoint = None
        return state.to_result(ctx.tracker)

    def _partial_result(self, state: RunState,
                        stop_reason: str = "budget_exhausted",
                        ) -> CorleoneResult:
        """Package what an interrupted run actually accumulated.

        The real blocker result, candidate set and completed iterations
        are reported — not fabricated empties — so callers can inspect
        how far the run got.
        """
        kept = state.kept
        if kept is not None and kept.predicted_pairs:
            predicted = kept.predicted_pairs
        elif state.iterations:
            predicted = state.iterations[-1].predicted_pairs
        else:
            predicted = frozenset(self.service.positive_pairs())
        return CorleoneResult(
            predicted_matches=predicted,
            candidates=(state.candidates
                        if state.candidates is not None
                        else CandidateSet.empty(state.library.names)),
            blocker=(state.blocker
                     if state.blocker is not None
                     else BlockerResult(triggered=False,
                                        candidate_pairs=PairRows.empty(),
                                        cartesian=0)),
            iterations=state.iterations,
            estimate=None if kept is None else kept.estimate,
            cost=self.tracker.snapshot(),
            stop_reason=stop_reason,
        )

    @staticmethod
    def _check_seeds(seed_labels: dict[Pair, bool]) -> None:
        """Validate the user's seed examples (>= 1 of each polarity)."""
        positives = sum(1 for label in seed_labels.values() if label)
        negatives = len(seed_labels) - positives
        if positives < 1 or negatives < 1:
            raise DataError(
                "seed examples must include at least one positive and one "
                "negative pair (the paper asks for two of each)"
            )
