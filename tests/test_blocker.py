"""Crowdsourced blocking (Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BlockerConfig, CorleoneConfig, ForestConfig, MatcherConfig
from repro.core.blocker import Blocker, apply_rules_streaming
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.sampling import cartesian_size
from repro.features.library import build_feature_library
from repro.metrics import blocking_recall
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.restaurants import generate_restaurants


@pytest.fixture
def blocking_setup():
    dataset = generate_restaurants(n_a=120, n_b=90, n_matches=30, seed=11)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=2000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40, n_converged=8,
                              n_degrade=6, max_iterations=20),
    )
    crowd = PerfectCrowd(dataset.matches, rng=np.random.default_rng(3))
    service = LabelingService(crowd, config.crowd)
    library = build_feature_library(dataset.table_a, dataset.table_b)
    blocker = Blocker(config, service, np.random.default_rng(4))
    return dataset, config, blocker, library, service


class TestTrigger:
    def test_small_product_skips_blocking(self, blocking_setup):
        dataset, config, _, library, service = blocking_setup
        big_config = config.replace(
            blocker=BlockerConfig(t_b=10**9)
        )
        blocker = Blocker(big_config, service, np.random.default_rng(4))
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert not result.triggered
        assert result.umbrella_size == cartesian_size(
            dataset.table_a, dataset.table_b
        )
        assert result.pairs_labeled == 0

    def test_large_product_triggers(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.triggered
        assert result.sample_size >= 2000


class TestBlockingQuality:
    def test_reduces_and_keeps_matches(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.umbrella_size < result.cartesian
        recall = blocking_recall(result.candidate_pairs, dataset.matches)
        assert recall >= 0.9

    def test_applied_rules_are_negative_and_accepted(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        accepted = {e.rule for e in result.evaluations if e.accepted}
        for rule in result.applied_rules:
            assert rule.is_negative
            assert rule in accepted

    def test_telemetry_populated(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.n_candidate_rules > 0
        assert result.matcher_result is not None
        assert result.pairs_labeled > 0
        assert result.dollars > 0
        assert 0.0 < result.reduction_ratio <= 1.0


class TestStreamingApplication:
    def test_matches_vectorized_application(self, blocking_setup,
                                            monkeypatch):
        """Streaming rule application must agree with full vectorization."""
        from repro.plan import executor as plan_executor

        dataset, _, _, library, _ = blocking_setup
        # One needed feature: chunks of 700 pairs.
        monkeypatch.setattr(plan_executor, "_COLUMN_ELEMENTS", 700)
        name_col = library.names.index("name_jaro_winkler")
        rule = Rule(
            [Predicate(name_col, "name_jaro_winkler", True, 0.5)],
            predicts_match=False,
        )
        survivors = apply_rules_streaming(
            dataset.table_a, dataset.table_b, [rule], library,
        )
        # Check against direct evaluation on a sample of pairs.
        from repro.features.vectorize import vectorize_pairs
        from repro.data.sampling import iter_cartesian
        all_pairs = list(iter_cartesian(dataset.table_a, dataset.table_b))
        sample = all_pairs[::97]
        cs = vectorize_pairs(dataset.table_a, dataset.table_b, sample,
                             library)
        blocked = rule.applies(cs.features)
        survivor_set = set(survivors)
        for pair, is_blocked in zip(sample, blocked):
            assert (pair in survivor_set) == (not is_blocked)

    def test_no_rules_keeps_everything(self, blocking_setup):
        dataset, _, _, library, _ = blocking_setup
        survivors = apply_rules_streaming(
            dataset.table_a, dataset.table_b, [], library
        )
        assert len(survivors) == cartesian_size(
            dataset.table_a, dataset.table_b
        )
