"""Match explanations (the practitioner-facing introspection layer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ForestConfig
from repro.data.pairs import CandidateSet, Pair
from repro.evaluation.explain import (
    _followed_path,
    explain_errors,
    explain_pair,
)
from repro.forest.forest import train_forest

from .forest_oracle import condition_satisfied


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(4)
    features = rng.random((500, 3))
    labels = (features[:, 0] > 0.6) & (features[:, 1] > 0.4)
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(500)]
    candidates = CandidateSet(pairs, features,
                              ["name_sim", "price_sim", "noise"])
    forest = train_forest(features, labels, ForestConfig(), rng)
    gold = {pairs[i] for i in np.flatnonzero(labels)}
    return forest, candidates, labels, gold


class TestExplainPair:
    def test_votes_match_prediction(self, world):
        forest, candidates, labels, _ = world
        for row in (0, 100, 499):
            pair = candidates.pairs[row]
            explanation = explain_pair(forest, candidates, pair)
            predicted = forest.predict(
                candidates.features[row:row + 1]
            )[0]
            assert explanation.predicted_match == predicted
            assert (explanation.votes_for + explanation.votes_against
                    == len(forest))

    def test_paths_actually_cover_the_pair(self, world):
        forest, candidates, _, _ = world
        pair = candidates.pairs[42]
        vector = candidates.features[42:43]
        explanation = explain_pair(forest, candidates, pair)
        for vote in explanation.tree_votes:
            assert vote.path_rule.applies(vector)[0]
            assert vote.path_rule.predicts_match == vote.label

    def test_signal_features_dominate_usage(self, world):
        forest, candidates, _, _ = world
        pair = candidates.pairs[7]
        explanation = explain_pair(forest, candidates, pair)
        usage = dict(explanation.feature_usage)
        assert usage.get("name_sim", 0) >= usage.get("noise", 0)

    def test_confidence_matches_forest(self, world):
        forest, candidates, _, _ = world
        pair = candidates.pairs[3]
        explanation = explain_pair(forest, candidates, pair)
        expected = forest.confidence(candidates.features[3:4])[0]
        assert explanation.confidence == pytest.approx(float(expected))

    def test_text_rendering(self, world):
        forest, candidates, _, _ = world
        explanation = explain_pair(forest, candidates,
                                   candidates.pairs[0])
        text = explanation.to_text()
        assert "a0 vs b0" in text
        assert "tree 0" in text
        assert ("MATCH" in text or "NO MATCH" in text)

    def test_followed_path_is_the_one_the_example_satisfies(self):
        """One walk of the node table finds the path that testing every
        path condition by condition finds, NaN routing included."""
        rng = np.random.default_rng(9)
        x = rng.random((300, 4))
        x[rng.random((300, 4)) < 0.25] = np.nan
        y = np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 1], nan=0.7) > 1.0
        forest = train_forest(x, y, ForestConfig(), rng)
        for vector in x[:40]:
            for tree in forest.trees:
                satisfied = [
                    path for path in tree.paths()
                    if all(condition_satisfied(
                        condition, vector[condition.feature:
                                          condition.feature + 1])[0]
                        for condition in path.conditions)
                ]
                assert [_followed_path(tree, vector)] == satisfied

    def test_unknown_pair_raises(self, world):
        forest, candidates, _, _ = world
        from repro.exceptions import DataError
        with pytest.raises(DataError):
            explain_pair(forest, candidates, Pair("zz", "zz"))


class TestExplainErrors:
    def test_buckets_are_real_mistakes(self, world):
        forest, candidates, labels, gold = world
        predictions = forest.predict(candidates.features)
        report = explain_errors(forest, candidates, predictions, gold,
                                limit=5)
        for explanation in report["false_positives"]:
            assert explanation.pair not in gold
            assert explanation.predicted_match
        for explanation in report["false_negatives"]:
            assert explanation.pair in gold
            assert not explanation.predicted_match

    def test_limit_respected(self, world):
        forest, candidates, labels, gold = world
        # Predict everything positive: lots of false positives.
        predictions = np.ones(len(candidates), dtype=bool)
        report = explain_errors(forest, candidates, predictions, gold,
                                limit=3)
        assert len(report["false_positives"]) <= 3

    def test_perfect_predictions_empty_report(self, world):
        forest, candidates, labels, gold = world
        report = explain_errors(forest, candidates, labels, gold)
        assert report["false_positives"] == []
        assert report["false_negatives"] == []
