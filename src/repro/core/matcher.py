"""Crowdsourced active learning of a random-forest matcher (Section 5).

The matcher trains an initial forest from the user's seed examples, then
iterates: pick the p unlabelled pairs the forest disagrees about most
(entropy, Eq. 1), weighted-sample q of them for diversity, have the crowd
label the batch (2+1 scheme — training data tolerates some noise), retrain,
and monitor conf(V) on a held-out slice until a Section 5.3 stopping
pattern fires.  On a degrading stop the matcher rolls back to its best
pre-degradation forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CorleoneConfig
from ..crowd.aggregation import VoteScheme
from ..crowd.service import LabelingService
from ..data.pairs import CandidateSet, Pair
from ..exceptions import BudgetExhaustedError, DataError
from ..forest.forest import RandomForest, train_forest, vote_entropy
from ..obs.profiling import record_entropy_pool
from .stopping import ConfidenceMonitor, StopDecision


@dataclass
class MatcherResult:
    """Everything the rest of the pipeline needs from a matcher run."""

    forest: RandomForest
    """The selected forest (post-rollback if training degraded)."""

    predictions: np.ndarray
    """Boolean predictions over the candidate set, aligned to its rows."""

    labeled_rows: dict[int, bool]
    """Candidate-set row -> crowd/seed label used for training."""

    confidence_history: list[float]
    """Raw conf(V) per iteration (Figure 3's series)."""

    stop_reason: str
    n_iterations: int
    pairs_labeled: int
    """Distinct pairs the crowd labelled during this training run."""

    def predicted_pairs(self, candidates: CandidateSet) -> set[Pair]:
        """The pairs of ``candidates`` this matcher predicts as matches."""
        return set(candidates.pairs.take(np.flatnonzero(self.predictions)))


@dataclass
class MatcherTrainState:
    """The full state of an in-progress active-learning training run.

    Everything :meth:`ActiveLearningMatcher.step` reads and writes lives
    here, and every field is serializable (forests via
    ``repro.persistence``), so the engine can checkpoint training after
    any iteration and resume it bit-identically.  The one exception, the
    last step's vote vector, stays on the matcher: it only spares
    :meth:`ActiveLearningMatcher.finish` a scoring pass, and a resumed
    run scores again instead.
    """

    labeled_rows: dict[int, bool]
    """Candidate-set row -> training label gathered so far."""

    monitor_rows: list[int]
    """Rows of the held-out monitoring set V (empty: monitor on all)."""

    confidences: list[float] = field(default_factory=list)
    """Raw conf(V) recorded per completed iteration."""

    forests: list[RandomForest] = field(default_factory=list)
    """The forest fitted in each iteration, in order."""

    pairs_before: int = 0
    """Tracker's ``pairs_labeled`` when training started (for cost
    attribution; absolute, so it survives checkpoint/resume)."""

    stop_reason: str | None = None
    """Why training stopped, or None while it should continue."""

    rollback_index: int | None = None
    """Forest index to keep when a monitor decision requested rollback."""


class ActiveLearningMatcher:
    """Trains a forest over a candidate set via crowdsourced labelling.

    Training runs stepwise — :meth:`start` / :meth:`step` /
    :meth:`finish` — so the engine can checkpoint between iterations;
    :meth:`train` composes the three into the classic one-call loop.
    """

    def __init__(self, config: CorleoneConfig, service: LabelingService,
                 rng: np.random.Generator) -> None:
        self.config = config
        self.service = service
        self.rng = rng
        # The last step's forest, candidate set and vote fractions, so
        # finish() need not score that matrix again.  In memory only: a
        # resumed run has none and scores again.
        self._last_votes: tuple[RandomForest, CandidateSet,
                                np.ndarray] | None = None

    def train(self, candidates: CandidateSet,
              initial_labels: dict[Pair, bool],
              extra_vectors: np.ndarray | None = None,
              extra_labels: np.ndarray | None = None) -> MatcherResult:
        """Run the full active-learning loop over ``candidates``.

        ``initial_labels`` hold trusted labels (the user's seed examples
        and anything already cached); pairs not present in the candidate
        set are ignored here — pass their vectors via ``extra_vectors`` /
        ``extra_labels`` to still use them for training.  The engine
        drives :meth:`start` / :meth:`step` / :meth:`finish` itself, to
        checkpoint between iterations.
        """
        state = self.start(candidates, initial_labels)
        while not self.train_finished(state):
            self.step(state, candidates, extra_vectors, extra_labels)
        return self.finish(state, candidates)

    def start(self, candidates: CandidateSet,
              initial_labels: dict[Pair, bool]) -> MatcherTrainState:
        """Initialize training: seed the labels, draw the monitor set."""
        if len(candidates) == 0:
            raise DataError("cannot train a matcher on an empty candidate set")
        labeled_rows: dict[int, bool] = {}
        rows = candidates.pairs.indices(list(initial_labels))
        for row, label in zip(rows.tolist(), initial_labels.values()):
            if row >= 0:
                labeled_rows[row] = label
        monitor_rows = self._pick_monitor_rows(candidates, labeled_rows)
        return MatcherTrainState(
            labeled_rows=labeled_rows,
            monitor_rows=[int(row) for row in monitor_rows],
            pairs_before=self.service.tracker.pairs_labeled,
        )

    def train_finished(self, state: MatcherTrainState) -> bool:
        """True when no further :meth:`step` call should run."""
        if state.stop_reason is not None:
            return True
        return len(state.forests) >= self.config.matcher.max_iterations

    def step(self, state: MatcherTrainState, candidates: CandidateSet,
             extra_vectors: np.ndarray | None = None,
             extra_labels: np.ndarray | None = None) -> None:
        """One active-learning iteration: fit, monitor, select, label.

        Mutates ``state`` in place; sets ``state.stop_reason`` when a
        stopping condition fires.  When the loop instead exhausts
        ``max_iterations`` without a stop, :meth:`train_finished` ends
        training and :meth:`finish` reports ``"max_iterations"``.
        """
        forest = self._fit(candidates, state.labeled_rows,
                           extra_vectors, extra_labels)
        state.forests.append(forest)

        # One scoring pass over all of C: conf(V) and the pool's Eq. 1
        # entropies are both read off these vote fractions.
        votes = forest.vote_fractions(candidates.features)
        self._last_votes = (forest, candidates, votes)
        monitor_votes = (votes[state.monitor_rows] if state.monitor_rows
                         else votes)
        confidence = float((1.0 - vote_entropy(monitor_votes)).mean())
        monitor = ConfidenceMonitor.from_history(self.config.matcher,
                                                 state.confidences)
        decision: StopDecision | None = monitor.add(confidence)
        state.confidences.append(float(confidence))
        if decision is not None:
            state.stop_reason = decision.reason
            state.rollback_index = decision.rollback_index
            return

        batch_rows = self._select_batch(
            votes, state.labeled_rows, set(state.monitor_rows)
        )
        if not batch_rows:
            state.stop_reason = "pool_exhausted"
            return
        try:
            new_labels = self.service.label_batch(
                [candidates.pairs[row] for row in batch_rows],
                scheme=VoteScheme.MAJORITY_2PLUS1,
            )
        except BudgetExhaustedError:
            # Out of money: keep the current forest and wrap up.
            state.stop_reason = "budget_exhausted"
            return
        if not new_labels:
            state.stop_reason = "no_labels_returned"
            return
        for row in batch_rows:
            pair = candidates.pairs[row]
            if pair in new_labels:
                state.labeled_rows[row] = new_labels[pair]

    def finish(self, state: MatcherTrainState,
               candidates: CandidateSet) -> MatcherResult:
        """Select the final forest and package the training outcome."""
        forests = state.forests
        chosen_index = (state.rollback_index
                        if state.rollback_index is not None
                        else len(forests) - 1)
        chosen = forests[min(chosen_index, len(forests) - 1)]
        # Predictions come from the forest for every pair, including the
        # crowd-labelled ones: individual crowd labels are noisy (2+1
        # voting tolerates errors) and the ensemble smooths them out.
        # The last step already scored C with the last forest; a
        # rollback or a resume scores the chosen forest again.
        last, self._last_votes = self._last_votes, None
        if last is not None and last[0] is chosen and last[1] is candidates:
            predictions = last[2] >= 0.5
        else:
            predictions = chosen.predict(candidates.features)

        return MatcherResult(
            forest=chosen,
            predictions=predictions,
            labeled_rows=dict(state.labeled_rows),
            confidence_history=list(state.confidences),
            stop_reason=state.stop_reason or "max_iterations",
            n_iterations=len(forests),
            pairs_labeled=(self.service.tracker.pairs_labeled
                           - state.pairs_before),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pick_monitor_rows(self, candidates: CandidateSet,
                           labeled_rows: dict[int, bool]) -> np.ndarray:
        """The held-out monitoring set V: a small unlabelled slice of C."""
        cfg = self.config.matcher
        n = len(candidates)
        size = min(cfg.monitor_cap, max(1, int(cfg.monitor_fraction * n)))
        available = np.array(
            [row for row in range(n) if row not in labeled_rows],
            dtype=np.intp,
        )
        if available.size == 0:
            return np.empty(0, dtype=np.intp)
        size = min(size, available.size)
        return self.rng.choice(available, size=size, replace=False)

    def _fit(self, candidates: CandidateSet, labeled_rows: dict[int, bool],
             extra_vectors: np.ndarray | None,
             extra_labels: np.ndarray | None) -> RandomForest:
        rows = sorted(labeled_rows)
        x = candidates.features[rows] if rows else np.empty(
            (0, len(candidates.feature_names))
        )
        y = np.array([labeled_rows[row] for row in rows], dtype=bool)
        if extra_vectors is not None and extra_labels is not None:
            x = np.vstack([x, extra_vectors]) if x.size else np.asarray(extra_vectors)
            y = np.concatenate([y, np.asarray(extra_labels, dtype=bool)])
        if x.shape[0] == 0:
            raise DataError("no labelled examples available to train on")
        return train_forest(x, y, self.config.forest, self.rng)

    def _select_batch(self, votes: np.ndarray,
                      labeled_rows: dict[int, bool],
                      excluded: set[int]) -> list[int]:
        """Pick the next q examples per the configured strategy (§5.2).

        ``votes`` holds the current forest's vote fraction of every row
        of C.  The paper's default is entropy top-p pooling followed by
        entropy-weighted sampling; the alternatives exist for the
        Section 9.4 ablation.
        """
        cfg = self.config.matcher
        available = np.ones(votes.size, dtype=bool)
        available[list(labeled_rows)] = False
        available[list(excluded)] = False
        unlabeled = np.flatnonzero(available)
        if unlabeled.size == 0:
            return []

        take = min(cfg.batch_size, unlabeled.size)
        if cfg.selection_strategy == "random":
            chosen = self.rng.choice(unlabeled.size, size=take,
                                     replace=False)
            return [int(unlabeled[i]) for i in chosen]

        entropy = vote_entropy(votes[unlabeled])
        if cfg.selection_strategy == "top_entropy":
            order = np.argsort(entropy)[::-1][:take]
            return [int(unlabeled[i]) for i in order]

        pool_size = min(cfg.pool_size, unlabeled.size)
        pool_order = np.argsort(entropy)[::-1][:pool_size]
        pool_rows = unlabeled[pool_order]
        pool_entropy = entropy[pool_order]
        record_entropy_pool(pool_rows.size)

        take = min(take, pool_rows.size)
        weights = pool_entropy + 1e-9  # keep zero-entropy rows samplable
        weights = weights / weights.sum()
        chosen = self.rng.choice(
            pool_rows.size, size=take, replace=False, p=weights
        )
        return [int(pool_rows[i]) for i in chosen]
