"""The Blocker's greedy rule-subset selection (§4.3), in isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BlockerConfig, CorleoneConfig, ForestConfig
from repro.core.blocker import Blocker
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.data.sampling import blocker_sample
from repro.features.library import build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.forest.forest import train_forest
from repro.rules.extraction import extract_negative_rules
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products


def neg_rule(index: int, threshold: float, cost: float = 1.0) -> Rule:
    return Rule([Predicate(index, f"f{index}", True, threshold)],
                predicts_match=False, cost=cost)


def make_blocker(t_b: int) -> Blocker:
    config = CorleoneConfig(blocker=BlockerConfig(t_b=t_b))
    crowd = PerfectCrowd(set(), rng=np.random.default_rng(0))
    service = LabelingService(crowd, config.crowd)
    return Blocker(config, service, np.random.default_rng(1))


@pytest.fixture
def sample():
    """100 rows; f0 and f1 uniform in [0, 1)."""
    rng = np.random.default_rng(5)
    features = rng.random((100, 2))
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(100)]
    return CandidateSet(pairs, features, ["f0", "f1"])


class TestGreedySelection:
    def test_stops_at_target(self, sample):
        # Target: reduce the 100-row sample to 100 * t_b / cartesian.
        blocker = make_blocker(t_b=1000)
        cartesian = 2000  # -> target 50 rows
        rules = [neg_rule(0, 0.3), neg_rule(0, 0.6), neg_rule(0, 0.9)]
        chosen = blocker.select_rule_subset(rules, sample, cartesian)
        survivors = np.ones(len(sample), dtype=bool)
        for rule in chosen:
            survivors &= ~rule.applies(sample.features)
        assert survivors.sum() <= 50
        # And it did not apply more rules than needed: dropping the last
        # chosen rule leaves the sample above target.
        if len(chosen) > 1:
            survivors_without_last = np.ones(len(sample), dtype=bool)
            for rule in chosen[:-1]:
                survivors_without_last &= ~rule.applies(sample.features)
            assert survivors_without_last.sum() > 50

    def test_empty_rule_list(self, sample):
        blocker = make_blocker(t_b=10)
        assert blocker.select_rule_subset([], sample, 10**6) == []

    def test_target_already_met_selects_nothing(self, sample):
        # cartesian small enough that |sample| is already under target.
        blocker = make_blocker(t_b=10**6)
        rules = [neg_rule(0, 0.5)]
        assert blocker.select_rule_subset(rules, sample, 10**6) == []

    def test_prefers_precise_rules(self, sample):
        """A rule covering crowd-positive rows ranks below a clean one."""
        blocker = make_blocker(t_b=1)
        # Mark rows with f1 > 0.9 as crowd-certified positives.
        positives = [
            sample.pairs[i]
            for i in np.flatnonzero(sample.features[:, 1] > 0.9)
        ]
        blocker.service.seed(dict.fromkeys(positives, True))
        dirty = neg_rule(1, 0.95)   # covers most rows incl. positives
        clean = neg_rule(1, 0.88)   # covers many rows, no positives
        chosen = blocker.select_rule_subset([dirty, clean], sample, 10**9)
        assert chosen[0] == clean

    def test_cost_breaks_ties(self, sample):
        blocker = make_blocker(t_b=1)
        cheap = neg_rule(0, 0.5, cost=1.0)
        pricey = Rule(
            [Predicate(1, "f1", True, 0.5)], predicts_match=False,
            cost=50.0,
        )
        # Both cover ~50 disjoint-ish rows with no known positives; the
        # greedy ranker must take the cheaper one first when precision
        # and coverage tie.  Force exact ties by using identical columns.
        features = np.column_stack([
            sample.features[:, 0], sample.features[:, 0],
        ])
        tied = CandidateSet(sample.pairs, features, ["f0", "f1"])
        chosen = blocker.select_rule_subset([pricey, cheap], tied, 10**9)
        assert chosen[0] == cheap

    def test_zero_coverage_rules_ignored(self, sample):
        blocker = make_blocker(t_b=1)
        useless = neg_rule(0, -5.0)
        useful = neg_rule(0, 0.7)
        chosen = blocker.select_rule_subset([useless, useful], sample,
                                            10**9)
        assert useless not in chosen
        assert useful in chosen


def reapplying_subset(blocker, rules, sample, cartesian):
    """Reference greedy selection: re-apply every remaining rule to the
    row-gathered active sample in every round."""
    target = len(sample) * (blocker.config.blocker.t_b / cartesian)
    positive = blocker.service.known_rows(sample) == 1
    remaining = list(rules)
    chosen = []
    active_rows = np.arange(len(sample))
    while remaining and active_rows.size > target:
        scored = []
        for rule in remaining:
            mask = rule.applies(sample.features[active_rows])
            coverage = int(mask.sum())
            if coverage == 0:
                continue
            contrary = np.count_nonzero(mask & positive[active_rows])
            scored.append(((coverage - contrary) / coverage, coverage,
                           -rule.cost, rule, mask))
        if not scored:
            break
        scored.sort(key=lambda item: item[:3], reverse=True)
        chosen.append(scored[0][3])
        remaining.remove(scored[0][3])
        active_rows = active_rows[~scored[0][4]]
    return chosen


@pytest.mark.parametrize("dataset_name", ["citations", "products"])
def test_matches_per_round_reapplication(dataset_name):
    """Coverage computed once and sliced per round picks the same
    rules, in the same order, as re-applying them every round."""
    generate = {"citations": generate_citations,
                "products": generate_products}[dataset_name]
    dataset = generate(n_a=60, n_b=200, n_matches=30, seed=4)
    library = build_feature_library(dataset.table_a, dataset.table_b)
    rng = np.random.default_rng(8)
    pairs = blocker_sample(dataset.table_a, dataset.table_b, 3000, rng,
                           seed_pairs=dataset.seed_labels)
    sample = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                             library)
    # A few flipped labels grow deeper trees, so no single rule covers
    # the sample and the greedy loop runs many rounds.
    truth = np.array([pair in dataset.matches for pair in sample.pairs])
    truth |= rng.random(len(sample)) < 0.03
    forest = train_forest(sample.features, truth,
                          ForestConfig(n_trees=10), rng)
    rules = extract_negative_rules(forest, library.names, library.costs)
    assert len(rules) > 100

    blocker = make_blocker(t_b=200)
    known = rng.choice(len(sample), size=len(sample) // 4, replace=False)
    blocker.service.seed({sample.pairs[row]: bool(truth[row])
                          for row in known})
    cartesian = len(dataset.table_a) * len(dataset.table_b)
    chosen = blocker.select_rule_subset(rules, sample, cartesian)
    reference = reapplying_subset(blocker, rules, sample, cartesian)
    assert len(chosen) == len(reference) >= 10
    assert all(mine is theirs for mine, theirs in zip(chosen, reference))
