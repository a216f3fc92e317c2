"""The difficult-pairs locator (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    BlockerConfig,
    CorleoneConfig,
    ForestConfig,
    LocatorConfig,
)
from repro.core.locator import DifficultPairsLocator
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.forest.forest import train_forest


def overlap_candidates(n: int = 1500, seed: int = 0):
    """Mostly separable data plus a confusable band around f0 ~ 0.5."""
    rng = np.random.default_rng(seed)
    features = rng.random((n, 3))
    labels = features[:, 0] > 0.5
    # The band [0.45, 0.55] is noisy: labels flip with probability 0.4.
    band = (features[:, 0] > 0.45) & (features[:, 0] < 0.55)
    flips = band & (rng.random(n) < 0.4)
    labels = labels ^ flips
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(n)]
    matches = {pairs[i] for i in np.flatnonzero(labels)}
    return CandidateSet(pairs, features, ["f0", "f1", "f2"]), matches, labels


def make_locator(matches, min_difficult=50, seed=1):
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(max_labels_per_rule=60),
        locator=LocatorConfig(min_difficult_pairs=min_difficult),
    )
    crowd = PerfectCrowd(matches, rng=np.random.default_rng(seed))
    service = LabelingService(crowd, config.crowd)
    return (DifficultPairsLocator(config, service,
                                  np.random.default_rng(seed)), service)


@pytest.fixture
def fitted():
    candidates, matches, labels = overlap_candidates()
    rng = np.random.default_rng(2)
    rows = rng.choice(len(candidates), size=500, replace=False)
    forest = train_forest(candidates.features[rows], labels[rows],
                          ForestConfig(), rng)
    return candidates, matches, labels, forest


class TestLocate:
    def test_difficult_set_concentrates_on_band(self, fitted):
        candidates, matches, labels, forest = fitted
        locator, _ = make_locator(matches)
        result = locator.locate(candidates, forest)
        if not result.should_continue:
            pytest.skip(f"locator stopped: {result.stop_reason}")
        f0 = candidates.features[result.difficult_rows, 0]
        # The noisy band should be over-represented among difficult pairs.
        band_fraction = np.mean((f0 > 0.4) & (f0 < 0.6))
        overall = np.mean(
            (candidates.features[:, 0] > 0.4)
            & (candidates.features[:, 0] < 0.6)
        )
        assert band_fraction > overall

    def test_rules_are_crowd_certified(self, fitted):
        candidates, matches, _, forest = fitted
        locator, _ = make_locator(matches)
        result = locator.locate(candidates, forest)
        accepted = {ev.rule for ev in result.evaluations if ev.accepted}
        assert set(result.accepted_rules) == accepted

    def test_both_polarities_extracted(self, fitted):
        candidates, matches, _, forest = fitted
        locator, _ = make_locator(matches)
        result = locator.locate(candidates, forest)
        polarities = {rule.predicts_match for rule in result.accepted_rules}
        # On separable-plus-band data both kinds of precise rules exist.
        assert polarities == {True, False}

    def test_too_small_stops_iteration(self, fitted):
        candidates, matches, _, forest = fitted
        locator, _ = make_locator(matches, min_difficult=10**9)
        result = locator.locate(candidates, forest)
        assert not result.should_continue
        assert result.stop_reason == "too_small"
        assert result.difficult_rows is None

    def test_no_reduction_stops_iteration(self, fitted):
        candidates, matches, _, forest = fitted
        # An untrained-forest stand-in: single-class forest has no rules.
        rng = np.random.default_rng(0)
        trivial = train_forest(
            candidates.features[:20], np.ones(20, dtype=bool),
            ForestConfig(n_trees=3), rng,
        )
        locator, _ = make_locator(matches)
        result = locator.locate(candidates, trivial)
        assert not result.should_continue
        assert result.stop_reason in ("no_rules", "no_reduction")

    def test_cost_attributed(self, fitted):
        candidates, matches, _, forest = fitted
        locator, service = make_locator(matches)
        result = locator.locate(candidates, forest)
        assert result.pairs_labeled == service.tracker.pairs_labeled
