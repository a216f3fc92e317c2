"""The crowdsourced active-learning matcher (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CorleoneConfig, ForestConfig, MatcherConfig
from repro.core.matcher import ActiveLearningMatcher
from repro.core.stopping import ConfidenceMonitor
from repro.crowd.aggregation import VoteScheme
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.exceptions import DataError
from repro.forest.forest import RandomForest


def synthetic_candidates(n: int = 400, seed: int = 0):
    """A linearly separable EM-like candidate set with 10% positives."""
    rng = np.random.default_rng(seed)
    features = rng.random((n, 4))
    labels = (features[:, 0] > 0.75) & (features[:, 1] > 0.6)
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(n)]
    matches = {pairs[i] for i in np.flatnonzero(labels)}
    candidates = CandidateSet(pairs, features,
                              ["f0", "f1", "f2", "f3"])
    return candidates, matches, labels


@pytest.fixture
def matcher_setup():
    candidates, matches, labels = synthetic_candidates()
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        matcher=MatcherConfig(batch_size=10, pool_size=50, n_converged=8,
                              n_degrade=6, max_iterations=30),
    )
    crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
    service = LabelingService(crowd, config.crowd)
    rng = np.random.default_rng(2)
    matcher = ActiveLearningMatcher(config, service, rng)
    # Two seed positives, two seed negatives.
    positive = sorted(matches)[:2]
    negative = [p for p in candidates.pairs if p not in matches][:2]
    seeds = {p: True for p in positive} | {p: False for p in negative}
    return matcher, candidates, matches, labels, seeds, service


class TestTraining:
    def test_learns_the_concept(self, matcher_setup):
        matcher, candidates, _, labels, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        accuracy = (result.predictions == labels).mean()
        assert accuracy >= 0.95

    def test_stops_before_max_iterations(self, matcher_setup):
        matcher, candidates, _, _, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        assert result.stop_reason in (
            "near_absolute", "converged", "degrading"
        )
        assert result.n_iterations < 30

    def test_labels_far_fewer_than_pool(self, matcher_setup):
        matcher, candidates, _, _, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        assert result.pairs_labeled < len(candidates) // 2

    def test_confidence_history_recorded(self, matcher_setup):
        matcher, candidates, _, _, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        assert len(result.confidence_history) == result.n_iterations
        assert all(0.0 <= c <= 1.0 + 1e-9
                   for c in result.confidence_history)

    def test_forest_mostly_agrees_with_clean_labels(self, matcher_setup):
        """Predictions come from the forest (noise smoothing), but with a
        perfect crowd on separable data they should echo the labels."""
        matcher, candidates, matches, _, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        agree = sum(
            1 for row, label in result.labeled_rows.items()
            if result.predictions[row] == label
        )
        assert agree / len(result.labeled_rows) >= 0.95

    def test_empty_candidates_rejected(self, matcher_setup):
        matcher, candidates, _, _, seeds, _ = matcher_setup
        empty = CandidateSet.empty(candidates.feature_names)
        with pytest.raises(DataError):
            matcher.train(empty, seeds)

    def test_no_labels_at_all_rejected(self, matcher_setup):
        matcher, candidates, _, _, _, _ = matcher_setup
        with pytest.raises(DataError):
            matcher.train(candidates, {})

    def test_extra_vectors_used_for_training(self, matcher_setup):
        """Seeds living outside the candidate set still train the model."""
        matcher, candidates, _, labels, _, _ = matcher_setup
        extra_x = np.array([
            [0.9, 0.9, 0.5, 0.5],
            [0.95, 0.8, 0.1, 0.2],
            [0.1, 0.1, 0.5, 0.5],
            [0.2, 0.3, 0.9, 0.9],
        ])
        extra_y = np.array([True, True, False, False])
        result = matcher.train(candidates, {}, extra_vectors=extra_x,
                               extra_labels=extra_y)
        assert (result.predictions == labels).mean() >= 0.9

    def test_predicted_pairs_helper(self, matcher_setup):
        matcher, candidates, matches, _, seeds, _ = matcher_setup
        result = matcher.train(candidates, seeds)
        predicted = result.predicted_pairs(candidates)
        assert predicted  # finds something
        hits = len(predicted & matches) / len(predicted)
        assert hits >= 0.9


class TestBatchSelection:
    def test_batch_prefers_uncertain_examples(self, matcher_setup):
        """The entropy-weighted batch should skew toward the decision
        boundary rather than random rows."""
        matcher, candidates, matches, labels, seeds, service = matcher_setup
        result = matcher.train(candidates, seeds)
        labeled = set(result.labeled_rows) - {
            candidates.index_of(p) for p in seeds if p in candidates
        }
        if not labeled:
            pytest.skip("matcher stopped before labelling anything")
        # Boundary band: f0 in (0.6, 0.9) — where the concept flips.
        in_band = [
            row for row in labeled
            if 0.55 <= candidates.features[row, 0] <= 0.95
        ]
        base_rate = np.mean(
            (candidates.features[:, 0] >= 0.55)
            & (candidates.features[:, 0] <= 0.95)
        )
        assert len(in_band) / len(labeled) > base_rate

    def test_max_iterations_respected(self):
        candidates, matches, _ = synthetic_candidates(seed=5)
        config = CorleoneConfig(
            forest=ForestConfig(n_trees=3),
            matcher=MatcherConfig(batch_size=5, pool_size=20,
                                  n_converged=1000, n_high=1000,
                                  n_degrade=1000, max_iterations=4),
        )
        crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
        service = LabelingService(crowd, config.crowd)
        matcher = ActiveLearningMatcher(config, service,
                                        np.random.default_rng(2))
        seeds = dict.fromkeys(sorted(matches)[:2], True)
        seeds.update(dict.fromkeys(
            [p for p in candidates.pairs if p not in matches][:2], False
        ))
        result = matcher.train(candidates, seeds)
        assert result.n_iterations == 4
        assert result.stop_reason == "max_iterations"


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run():
            candidates, matches, _ = synthetic_candidates(seed=3)
            config = CorleoneConfig(
                forest=ForestConfig(n_trees=5),
                matcher=MatcherConfig(batch_size=10, pool_size=40,
                                      n_converged=6, max_iterations=15),
            )
            crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
            service = LabelingService(crowd, config.crowd)
            matcher = ActiveLearningMatcher(config, service,
                                            np.random.default_rng(2))
            seeds = dict.fromkeys(sorted(matches)[:2], True)
            seeds.update(dict.fromkeys(
                [p for p in candidates.pairs if p not in matches][:2],
                False,
            ))
            return matcher.train(candidates, seeds)

        r1, r2 = run(), run()
        np.testing.assert_array_equal(r1.predictions, r2.predictions)
        assert r1.confidence_history == r2.confidence_history


class TestSelectionStrategies:
    def _run(self, strategy, seed=6):
        candidates, matches, labels = synthetic_candidates(seed=seed)
        config = CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            matcher=MatcherConfig(batch_size=10, pool_size=50,
                                  n_converged=8, n_degrade=6,
                                  max_iterations=20,
                                  selection_strategy=strategy),
        )
        crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
        service = LabelingService(crowd, config.crowd)
        matcher = ActiveLearningMatcher(config, service,
                                        np.random.default_rng(2))
        seeds = dict.fromkeys(sorted(matches)[:2], True)
        seeds.update(dict.fromkeys(
            [p for p in candidates.pairs if p not in matches][:2], False
        ))
        result = matcher.train(candidates, seeds)
        accuracy = (result.predictions == labels).mean()
        return accuracy, result

    @pytest.mark.parametrize("strategy",
                             ["entropy_weighted", "top_entropy", "random"])
    def test_all_strategies_learn(self, strategy):
        accuracy, _ = self._run(strategy)
        assert accuracy >= 0.85

    def test_active_beats_random_on_skewed_data(self):
        """With rare positives, entropy selection finds the boundary
        faster than passive sampling (the Baseline-1 story)."""
        active = np.mean([self._run("entropy_weighted", seed=s)[0]
                          for s in (6, 7)])
        passive = np.mean([self._run("random", seed=s)[0]
                           for s in (6, 7)])
        assert active >= passive - 0.01

    def test_unknown_strategy_rejected(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            CorleoneConfig(
                matcher=MatcherConfig(selection_strategy="psychic")
            )


class TwoPassMatcher(ActiveLearningMatcher):
    """Reference step: score the monitor rows and the pool separately,
    each from its own row-gathered submatrix."""

    def step(self, state, candidates, extra_vectors=None,
             extra_labels=None):
        forest = self._fit(candidates, state.labeled_rows,
                           extra_vectors, extra_labels)
        state.forests.append(forest)
        monitor_x = (candidates.features[state.monitor_rows]
                     if state.monitor_rows else candidates.features)
        confidence = forest.mean_confidence(monitor_x)
        monitor = ConfidenceMonitor.from_history(self.config.matcher,
                                                 state.confidences)
        decision = monitor.add(confidence)
        state.confidences.append(float(confidence))
        if decision is not None:
            state.stop_reason = decision.reason
            state.rollback_index = decision.rollback_index
            return
        cfg = self.config.matcher
        available = np.ones(len(candidates), dtype=bool)
        available[list(state.labeled_rows)] = False
        available[state.monitor_rows] = False
        unlabeled = np.flatnonzero(available)
        entropy = forest.entropy(candidates.features[unlabeled])
        pool_order = np.argsort(entropy)[::-1][:cfg.pool_size]
        weights = entropy[pool_order] + 1e-9
        weights = weights / weights.sum()
        chosen = self.rng.choice(
            pool_order.size, size=min(cfg.batch_size, pool_order.size),
            replace=False, p=weights)
        batch = [candidates.pairs[unlabeled[pool_order[i]]]
                 for i in chosen]
        labels = self.service.label_batch(
            batch, scheme=VoteScheme.MAJORITY_2PLUS1)
        for pair in batch:
            state.labeled_rows[candidates.index_of(pair)] = labels[pair]


class TestOneScoringPassPerStep:
    def _train(self, matcher_class, monkeypatch):
        candidates, matches, _ = synthetic_candidates(seed=9)
        config = CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            matcher=MatcherConfig(batch_size=10, pool_size=40,
                                  n_converged=8, n_degrade=6,
                                  max_iterations=12),
        )
        crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
        service = LabelingService(crowd, config.crowd)
        batches = []
        label_batch = service.label_batch

        def recording(pairs, **kwargs):
            batches.append(list(pairs))
            return label_batch(pairs, **kwargs)

        monkeypatch.setattr(service, "label_batch", recording)
        matcher = matcher_class(config, service, np.random.default_rng(2))
        seeds = dict.fromkeys(sorted(matches)[:2], True)
        seeds.update(dict.fromkeys(
            [p for p in candidates.pairs if p not in matches][:2], False))
        state = matcher.start(candidates, seeds)
        calls = []
        vote_fractions = RandomForest.vote_fractions

        def counting(forest, x):
            calls[-1] += 1
            return vote_fractions(forest, x)

        with monkeypatch.context() as patch:
            patch.setattr(RandomForest, "vote_fractions", counting)
            while not matcher.train_finished(state):
                calls.append(0)
                matcher.step(state, candidates)
        return state, batches, calls

    def test_equals_separate_monitor_and_pool_scoring(self, monkeypatch):
        state, batches, calls = self._train(ActiveLearningMatcher,
                                            monkeypatch)
        reference, reference_batches, _ = self._train(TwoPassMatcher,
                                                      monkeypatch)
        assert len(batches) >= 5
        assert calls == [1] * len(calls)
        assert state.confidences == reference.confidences
        assert batches == reference_batches
        assert state.labeled_rows == reference.labeled_rows


class RescoringMatcher(ActiveLearningMatcher):
    """Reference finish: always score the chosen forest again."""

    def finish(self, state, candidates):
        self._last_votes = None
        return super().finish(state, candidates)


class TestFinishReusesTheLastVotes:
    """``finish`` thresholds the last step's vote vector when the chosen
    forest is the last one, and scores again after a rollback or a
    resume; the predictions equal a reference that always scores
    again."""

    def _trained(self, matcher_class, max_iterations=12):
        candidates, matches, _ = synthetic_candidates(seed=5)
        config = CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            matcher=MatcherConfig(batch_size=10, pool_size=40,
                                  n_converged=50, n_degrade=50,
                                  max_iterations=max_iterations),
        )
        crowd = PerfectCrowd(matches, rng=np.random.default_rng(1))
        service = LabelingService(crowd, config.crowd)
        matcher = matcher_class(config, service, np.random.default_rng(3))
        seeds = dict.fromkeys(sorted(matches)[:2], True)
        seeds.update(dict.fromkeys(
            [p for p in candidates.pairs if p not in matches][:2], False))
        state = matcher.start(candidates, seeds)
        while not matcher.train_finished(state):
            matcher.step(state, candidates)
        return matcher, state, candidates, config, service

    @staticmethod
    def _finish_counting(matcher, state, candidates, monkeypatch):
        calls = []
        vote_fractions = RandomForest.vote_fractions

        def counting(forest, x):
            calls.append(forest)
            return vote_fractions(forest, x)

        with monkeypatch.context() as patch:
            patch.setattr(RandomForest, "vote_fractions", counting)
            result = matcher.finish(state, candidates)
        return result, calls

    def test_last_forest_is_not_scored_again(self, monkeypatch):
        matcher, state, candidates, _, _ = self._trained(
            ActiveLearningMatcher)
        reference, reference_state, _, _, _ = self._trained(RescoringMatcher)
        result, calls = self._finish_counting(matcher, state, candidates,
                                              monkeypatch)
        expected, reference_calls = self._finish_counting(
            reference, reference_state, candidates, monkeypatch)
        assert state.rollback_index is None
        assert (calls, len(reference_calls)) == ([], 1)
        np.testing.assert_array_equal(result.predictions,
                                      expected.predictions)
        np.testing.assert_array_equal(
            result.predictions,
            result.forest.predict(candidates.features))

    def test_rollback_scores_the_chosen_forest(self, monkeypatch):
        matcher, state, candidates, _, _ = self._trained(
            ActiveLearningMatcher)
        state.rollback_index = 0
        result, calls = self._finish_counting(matcher, state, candidates,
                                              monkeypatch)
        assert calls == [state.forests[0]]
        np.testing.assert_array_equal(
            result.predictions,
            state.forests[0].predict(candidates.features))

    def test_resume_before_finish_scores_again(self, monkeypatch):
        from repro.persistence import (
            matcher_train_state_from_dict,
            matcher_train_state_to_dict,
        )
        matcher, state, candidates, config, service = self._trained(
            ActiveLearningMatcher)
        restored = matcher_train_state_from_dict(
            matcher_train_state_to_dict(state))
        resumed = ActiveLearningMatcher(config, service,
                                        np.random.default_rng(3))
        result, calls = self._finish_counting(resumed, restored,
                                              candidates, monkeypatch)
        expected = matcher.finish(state, candidates)
        assert len(calls) == 1
        np.testing.assert_array_equal(result.predictions,
                                      expected.predictions)
