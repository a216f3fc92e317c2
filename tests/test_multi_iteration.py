"""Deeper integration tests: multi-iteration behaviour and rule reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    BlockerConfig,
    CorleoneConfig,
    EstimatorConfig,
    ForestConfig,
    LocatorConfig,
    MatcherConfig,
)
from repro.core.pipeline import Corleone
from repro.crowd.simulated import PerfectCrowd
from repro.synth.products import generate_products


@pytest.fixture(scope="module")
def iterating_run():
    """A products run configured to iterate (hard data, loose locator).

    Blocking barely shrinks this A x B, iteration 1's estimate certifies
    a reduction rule, and the locator hands a 10-pair difficult set to
    iteration 2, whose worse estimate ends the run (no_improvement).
    """
    dataset = generate_products(n_a=80, n_b=400, n_matches=30, seed=11)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=6000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=20),
        estimator=EstimatorConfig(probe_size=25, max_probes=40),
        locator=LocatorConfig(min_difficult_pairs=5),
        max_pipeline_iterations=3,
    )
    crowd = PerfectCrowd(dataset.matches, rng=np.random.default_rng(8))
    pipeline = Corleone(config, crowd, rng=np.random.default_rng(9))
    result = pipeline.run(dataset.table_a, dataset.table_b,
                          dataset.seed_labels)
    return dataset, result


class TestIterationMechanics:
    def test_working_sets_shrink(self, iterating_run):
        _, result = iterating_run
        sizes = [
            record.difficult_size
            for record in result.iterations
            if record.difficult_size is not None
        ]
        assert sizes, "the run never iterated"
        previous = len(result.candidates)
        for size in sizes:
            assert size < previous
            previous = size

    def test_kept_predictions_are_best_estimate(self, iterating_run):
        _, result = iterating_run
        estimates = [
            record.estimate.f1
            for record in result.iterations
            if record.estimate is not None
        ]
        assert result.stop_reason == "no_improvement"
        # The final (worse) estimate was rejected: the kept prediction
        # is the iteration with the best estimate seen.
        assert result.estimate.f1 == pytest.approx(max(estimates))
        best = max(result.iterations, key=lambda record: record.estimate.f1)
        assert result.predicted_matches == best.predicted_pairs
        assert result.predicted_matches != \
            result.iterations[-1].predicted_pairs

    def test_certified_rules_carry_across_iterations(self, iterating_run):
        _, result = iterating_run
        first = result.iterations[0].estimate
        second = result.iterations[1].estimate
        assert first.applied_rules, "iteration 1 certified no rule"
        # Iteration 2 re-applies iteration 1's certified rules for free,
        # so its applied set includes them.
        assert set(first.applied_rules) <= set(second.applied_rules)

    def test_every_iteration_has_monotone_cost(self, iterating_run):
        _, result = iterating_run
        assert result.cost.dollars > 0
        total_attributed = result.blocker.pairs_labeled + sum(
            record.matcher.pairs_labeled
            + record.estimation_pairs_labeled
            + record.reduction_pairs_labeled
            for record in result.iterations
        )
        # Per-step attribution must not exceed the global meter (cache
        # hits make it strictly less than or equal).
        assert total_attributed <= result.cost.pairs_labeled + 4  # seeds

    def test_final_quality(self, iterating_run):
        dataset, result = iterating_run
        predicted = result.predicted_matches
        tp = len(predicted & dataset.matches)
        assert tp >= 0.7 * len(dataset.matches)
