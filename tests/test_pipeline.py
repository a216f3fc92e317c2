"""End-to-end Corleone pipeline integration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Corleone
from repro.crowd.simulated import PerfectCrowd, SimulatedCrowd
from repro.data.pairs import Pair
from repro.evaluation.experiment import run_corleone, score_iteration
from repro.exceptions import DataError
from repro.metrics import confusion_from_sets


@pytest.fixture(scope="module")
def full_run():
    """One shared full pipeline run on the tiny restaurants dataset."""
    from repro.synth.restaurants import generate_restaurants
    from repro.config import (
        BlockerConfig, CorleoneConfig, EstimatorConfig, ForestConfig,
        LocatorConfig, MatcherConfig,
    )
    dataset = generate_restaurants(n_a=60, n_b=40, n_matches=16, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=3000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=25),
        estimator=EstimatorConfig(probe_size=25, max_probes=40),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
    )
    return run_corleone(dataset, config, error_rate=0.0, seed=3)


class TestFullRun:
    def test_finds_most_matches(self, full_run):
        assert full_run.f1 >= 0.85

    def test_estimate_close_to_truth(self, full_run):
        estimate = full_run.result.estimate
        assert estimate is not None
        assert abs(estimate.f1 - full_run.f1) <= 0.15

    def test_cost_is_positive_and_metered(self, full_run):
        assert full_run.pairs_labeled > 0
        assert full_run.dollars > 0
        assert full_run.dollars == pytest.approx(
            full_run.result.cost.answers * 0.01
        )

    def test_iteration_records(self, full_run):
        iterations = full_run.result.iterations
        assert 1 <= len(iterations) <= 2
        first = iterations[0]
        assert first.matcher.pairs_labeled > 0
        assert first.estimate is not None
        assert first.predicted_pairs

    def test_predictions_within_candidates(self, full_run):
        candidates = set(full_run.result.candidates.pairs)
        assert full_run.result.predicted_matches <= candidates

    def test_score_iteration_matches_final(self, full_run):
        last_kept = full_run.result.iterations[0]
        confusion = score_iteration(last_kept, full_run.dataset)
        # Iteration 1's predictions were kept unless iteration 2 improved.
        if len(full_run.result.iterations) == 1:
            assert confusion == full_run.confusion


class TestRunModes:
    def test_blocker_matcher_mode(self, tiny_dataset, fast_config):
        crowd = PerfectCrowd(tiny_dataset.matches,
                             rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        result = pipeline.run(
            tiny_dataset.table_a, tiny_dataset.table_b,
            tiny_dataset.seed_labels, mode="blocker_matcher",
        )
        assert result.stop_reason == "blocker_matcher_mode"
        assert result.estimate is None
        assert len(result.iterations) == 1
        assert result.predicted_matches

    def test_one_iteration_mode(self, tiny_dataset, fast_config):
        crowd = PerfectCrowd(tiny_dataset.matches,
                             rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        result = pipeline.run(
            tiny_dataset.table_a, tiny_dataset.table_b,
            tiny_dataset.seed_labels, mode="one_iteration",
        )
        assert result.stop_reason in ("one_iteration_mode",
                                      "no_improvement")
        assert len(result.iterations) == 1
        assert result.estimate is not None

    def test_unknown_mode_rejected(self, tiny_dataset, fast_config):
        crowd = PerfectCrowd(tiny_dataset.matches,
                             rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        with pytest.raises(DataError):
            pipeline.run(tiny_dataset.table_a, tiny_dataset.table_b,
                         tiny_dataset.seed_labels, mode="bogus")


class TestSeedValidation:
    def test_seeds_must_cover_both_classes(self, tiny_dataset, fast_config):
        crowd = PerfectCrowd(tiny_dataset.matches,
                             rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        only_positive = {
            pair: True for pair in tiny_dataset.seed_positive
        }
        with pytest.raises(DataError):
            pipeline.run(tiny_dataset.table_a, tiny_dataset.table_b,
                         only_positive)


class TestBudget:
    def test_budget_exhaustion_graceful(self, tiny_dataset, fast_config):
        """A tiny global budget must not crash the run or be blown past:
        each module wraps up with the labels it has."""
        crowd = SimulatedCrowd(tiny_dataset.matches, error_rate=0.0,
                               rng=np.random.default_rng(1))
        config = fast_config.replace(budget=0.50)
        pipeline = Corleone(config, crowd)
        result = pipeline.run(tiny_dataset.table_a, tiny_dataset.table_b,
                              tiny_dataset.seed_labels)
        # The budget cap held to within one aggregation of answers.
        assert result.cost.dollars <= 0.50 + 0.10
        assert result.stop_reason  # run completed in *some* orderly way
        # With almost no money the matcher ran on seeds alone; at least
        # one iteration record must still exist.
        assert result.iterations

    def test_budget_exhaustion_reports_partial_state(self, tiny_dataset,
                                                     fast_config,
                                                     monkeypatch):
        """Regression: a BudgetExhaustedError escaping mid-run used to be
        reported with a fabricated empty blocker result and candidate
        set; the result must carry the state actually accumulated."""
        from repro.core.pipeline import ActiveLearningMatcher
        from repro.exceptions import BudgetExhaustedError

        def exhausted(self, *args, **kwargs):
            raise BudgetExhaustedError(spent=1.0, budget=1.0)

        # The engine drives the matcher's stepwise API, so exhaust the
        # budget at the first active-learning step (`train` delegates to
        # `start` too, so the monolithic path is covered by the same
        # patch point).
        monkeypatch.setattr(ActiveLearningMatcher, "start", exhausted)
        crowd = SimulatedCrowd(tiny_dataset.matches, error_rate=0.0,
                               rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        result = pipeline.run(tiny_dataset.table_a, tiny_dataset.table_b,
                              tiny_dataset.seed_labels)
        assert result.stop_reason == "budget_exhausted"
        total = len(tiny_dataset.table_a) * len(tiny_dataset.table_b)
        assert result.blocker.cartesian == total
        assert len(result.candidates) == total
        assert result.iterations == []

    def test_budget_plan_respects_phase_caps(self, tiny_dataset,
                                             fast_config):
        from repro.core.budgeting import BudgetPlan
        crowd = SimulatedCrowd(tiny_dataset.matches, error_rate=0.0,
                               rng=np.random.default_rng(1))
        pipeline = Corleone(fast_config, crowd)
        plan = BudgetPlan.from_total(3.0)
        result = pipeline.run(tiny_dataset.table_a, tiny_dataset.table_b,
                              tiny_dataset.seed_labels, budget_plan=plan)
        assert result.cost.dollars <= plan.total + 0.10
        assert result.iterations

    def test_noisy_crowd_costs_more_than_perfect(self, tiny_dataset,
                                                 fast_config):
        def run_with(error_rate, seed=4):
            crowd = SimulatedCrowd(tiny_dataset.matches, error_rate,
                                   rng=np.random.default_rng(seed))
            pipeline = Corleone(fast_config, crowd,
                                rng=np.random.default_rng(seed))
            return pipeline.run(
                tiny_dataset.table_a, tiny_dataset.table_b,
                tiny_dataset.seed_labels, mode="one_iteration",
            )

        perfect = run_with(0.0)
        noisy = run_with(0.25)
        assert noisy.cost.answers >= perfect.cost.answers


class TestDeterminism:
    def test_same_seeds_same_matches(self, tiny_dataset, fast_config):
        def run():
            crowd = PerfectCrowd(tiny_dataset.matches,
                                 rng=np.random.default_rng(1))
            pipeline = Corleone(fast_config, crowd,
                                rng=np.random.default_rng(2))
            return pipeline.run(
                tiny_dataset.table_a, tiny_dataset.table_b,
                tiny_dataset.seed_labels, mode="one_iteration",
            )

        r1, r2 = run(), run()
        assert r1.predicted_matches == r2.predicted_matches
        assert r1.cost.dollars == r2.cost.dollars
