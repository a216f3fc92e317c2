"""Whole-pipeline accounting contracts.

These integration tests pin the promises the cost meter makes: every
paid answer corresponds to a real platform interaction (verified with a
recording platform wrapped around the crowd), each distinct pair is
counted once, and the run is hands-off — the pipeline object touches
ground truth only through the platform.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Corleone
from repro.crowd.simulated import SimulatedCrowd
from repro.crowd.transcript import TranscriptingPlatform, group_by_question


@pytest.fixture(scope="module")
def recorded_run(request):
    from repro.synth.restaurants import generate_restaurants
    from repro.config import (
        BlockerConfig, CorleoneConfig, EstimatorConfig, ForestConfig,
        LocatorConfig, MatcherConfig,
    )
    dataset = generate_restaurants(n_a=70, n_b=50, n_matches=18, seed=23)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=2000, top_k_rules=8,
                              max_labels_per_rule=50),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=20),
        estimator=EstimatorConfig(probe_size=20, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=25),
        max_pipeline_iterations=2,
    )
    crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                           rng=np.random.default_rng(6))
    recorder = TranscriptingPlatform(crowd)
    pipeline = Corleone(config, recorder, rng=np.random.default_rng(7))
    result = pipeline.run(dataset.table_a, dataset.table_b,
                          dataset.seed_labels)
    return dataset, result, recorder, pipeline


class TestAccountingContract:
    def test_every_paid_answer_really_happened(self, recorded_run):
        _, result, recorder, _ = recorded_run
        assert result.cost.answers == recorder.n_answers

    def test_distinct_pairs_counted_once(self, recorded_run):
        _, result, recorder, pipeline = recorded_run
        asked_pairs = {t.pair for t in group_by_question(recorder.log)}
        # Every asked pair is a cached label; seeds were never asked.
        assert result.cost.pairs_labeled == len(asked_pairs)

    def test_seeds_never_asked(self, recorded_run):
        dataset, _, recorder, _ = recorded_run
        asked_pairs = {t.pair for t in group_by_question(recorder.log)}
        for seed in dataset.seed_pairs:
            assert seed not in asked_pairs

    def test_dollars_equal_answers_times_price(self, recorded_run):
        _, result, _, pipeline = recorded_run
        price = pipeline.config.crowd.price_per_question
        assert result.cost.dollars == pytest.approx(
            result.cost.answers * price
        )

    def test_phase_attribution_consistent(self, recorded_run):
        _, result, _, _ = recorded_run
        attributed = result.blocker.pairs_labeled + sum(
            record.matcher.pairs_labeled
            + record.estimation_pairs_labeled
            + record.reduction_pairs_labeled
            for record in result.iterations
        )
        assert attributed <= result.cost.pairs_labeled

    def test_every_question_got_at_least_two_answers(self, recorded_run):
        """All schemes solicit >= 2 answers per question."""
        _, _, recorder, _ = recorded_run
        for transcript in group_by_question(recorder.log):
            assert transcript.n_answers >= 2
            assert transcript.n_answers <= 7 * 3  # retries upper bound

    def test_run_found_the_matches(self, recorded_run):
        dataset, result, _, _ = recorded_run
        found = result.predicted_matches & dataset.matches
        assert len(found) >= 0.8 * len(dataset.matches)
