"""Accuracy-estimator outcomes pinned to recorded values (Section 6).

The estimator's bookkeeping may be rewritten only if every estimate it
reports stays bit-identical, so these tests pin whole estimates on the
skewed world that ``examples/accuracy_estimation.py`` builds: the naive
and the reduction-rule estimate, and three runs whose crowd budget runs
out at a different point of the probe → audit → evaluate loop.  The
expected values were recorded with the dict-based bookkeeping that the
label vector replaced.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import (
    AccuracyEstimator,
    LabelingService,
    PerfectCrowd,
    scaled_config,
)
from repro.crowd.cost import CostTracker
from repro.exceptions import BudgetExhaustedError

EXAMPLE = (Path(__file__).parent.parent / "examples"
           / "accuracy_estimation.py")


def build_world(**kwargs):
    """``build_world`` of the example script: (candidates, matches,
    gold labels, trained forest)."""
    spec = importlib.util.spec_from_file_location("accuracy_estimation",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_world(**kwargs)


@pytest.fixture(scope="module")
def example_world():
    return build_world()


@pytest.fixture(scope="module")
def costly_world():
    """A denser world whose reduction rules need fresh labels to be
    certified, so a small budget can run out inside rule evaluation."""
    return build_world(density=0.03, seed=5)


def estimate(world, use_rules: bool, budget: float | None = None):
    """Run the estimator the way the example does; return the estimate
    and whether the budget ran out inside the removed-region audit."""
    candidates, matches, _, forest = world
    config = scaled_config()
    tracker = CostTracker(config.crowd.price_per_question, budget=budget)
    service = LabelingService(
        PerfectCrowd(matches, rng=np.random.default_rng(7)), config.crowd,
        tracker=tracker,
    )
    estimator = AccuracyEstimator(config, service, np.random.default_rng(7))
    audit = estimator._audit_removed
    audit_ran_out = []

    def watched_audit(*args):
        try:
            return audit(*args)
        except BudgetExhaustedError:
            audit_ran_out.append(True)
            raise

    estimator._audit_removed = watched_audit
    result = estimator.estimate(candidates,
                                forest.predict(candidates.features),
                                forest if use_rules else None)
    return result, bool(audit_ran_out), tracker


def outcome(result) -> tuple:
    return (result.precision, result.recall, result.eps_precision,
            result.eps_recall, result.n_labeled, result.n_probes,
            len(result.applied_rules), result.converged,
            [ev.reason for ev in result.rule_evaluations])


class TestExampleEstimates:
    def test_naive_sampling(self, example_world):
        result, _, _ = estimate(example_world, use_rules=False)
        assert outcome(result) == (
            0.5978260869565217, 0.9649122807017544,
            0.049890344059869286, 0.022517796667800044,
            4700, 94, 0, True, [],
        )

    def test_reduction_rules(self, example_world):
        result, _, _ = estimate(example_world, use_rules=True)
        assert outcome(result) == (
            0.5799635701275045, 1.0, 0.04278303452758971, 0.0,
            130, 2, 2, True, ["accepted", "accepted"],
        )


class TestBudgetRunsOut:
    """Out of money, the estimator reports the last estimate it had."""

    def test_during_a_probe(self, costly_world):
        result, audit_ran_out, tracker = estimate(costly_world, True, 5.0)
        assert not audit_ran_out
        assert round(tracker.dollars, 2) == 5.01
        assert outcome(result) == (
            0.8104310344827587, 1.0, 0.09940179738681267, 0.0,
            233, 3, 1, False, ["accepted"],
        )

    def test_during_the_removed_region_audit(self, costly_world):
        result, audit_ran_out, tracker = estimate(costly_world, True, 3.0)
        assert audit_ran_out
        assert round(tracker.dollars, 2) == 3.0
        assert outcome(result) == (
            0.6666666666666666, 1.0, 0.37309071289809037, 0.0,
            143, 2, 1, False, ["accepted"],
        )

    def test_inside_rule_evaluation(self, costly_world):
        result, audit_ran_out, tracker = estimate(costly_world, True, 1.5)
        assert not audit_ran_out
        assert round(tracker.dollars, 2) == 1.5
        # The undecided rule is decided on the labels it had, and its
        # precision there still meets P_min, so it is applied.
        [evaluation] = result.rule_evaluations
        assert evaluation.reason == "budget_exhausted"
        assert evaluation.accepted
        assert outcome(result) == (
            0.6666666666666666, 1.0, 0.37309071289809037, 0.0,
            73, 1, 1, False, ["budget_exhausted"],
        )
