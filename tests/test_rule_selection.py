"""Top-k rule selection by precision upper bound (§4.2 step 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.rules.selection import select_top_k


def neg_rule(threshold: float) -> Rule:
    return Rule([Predicate(0, "f0", True, threshold)], predicts_match=False)


def known(labels: dict[int, bool] | None = None) -> np.ndarray:
    """The 10-row sample's label vector: ``labels`` maps row -> crowd
    label, and every other row is unknown (-1)."""
    vector = np.full(10, -1, dtype=np.int8)
    for row, label in (labels or {}).items():
        vector[row] = label
    return vector


@pytest.fixture
def sample():
    # Feature values 0.05, 0.15, ..., 0.95.
    return np.arange(0.05, 1.0, 0.1).reshape(-1, 1)


class TestSelectTopK:
    def test_ranks_by_upper_bound(self, sample):
        # Rule covering rows < 0.5 includes a crowd-positive at row 1,
        # rule covering rows < 0.3 does not.
        wide = neg_rule(0.5)   # covers 5 rows, one contrary -> bound 0.8
        narrow = neg_rule(0.3)  # covers 3 rows, one contrary -> bound 2/3
        clean = neg_rule(0.15)  # covers 2 rows, none contrary -> bound 1.0
        ranked = select_top_k([wide, narrow, clean], sample, known({1: True}),
                              k=3)
        assert ranked[0].rule == clean
        assert ranked[0].precision_upper_bound == 1.0
        assert ranked[1].rule == wide
        assert ranked[2].rule == narrow

    def test_tie_broken_by_coverage(self, sample):
        small = neg_rule(0.2)  # 2 rows, bound 1.0
        large = neg_rule(0.4)  # 4 rows, bound 1.0
        ranked = select_top_k([small, large], sample, known(), k=2)
        assert ranked[0].rule == large
        assert ranked[0].coverage == 4

    def test_k_limits_output(self, sample):
        rules = [neg_rule(t) for t in (0.2, 0.4, 0.6, 0.8)]
        ranked = select_top_k(rules, sample, known(), k=2)
        assert len(ranked) == 2

    def test_zero_coverage_skipped(self, sample):
        ranked = select_top_k([neg_rule(-1.0)], sample, known(), k=5)
        assert ranked == []

    def test_k_zero(self, sample):
        assert select_top_k([neg_rule(0.5)], sample, known(), k=0) == []

    def test_min_coverage_filter(self, sample):
        ranked = select_top_k([neg_rule(0.15)], sample, known(), k=5,
                              min_coverage=3)
        assert ranked == []

    def test_positive_rule_contrary_is_negative_label(self, sample):
        positive = Rule([Predicate(0, "f0", False, 0.5)],
                        predicts_match=True)  # covers rows > 0.5 (5 rows)
        # Row 7 labelled negative contradicts a positive rule.
        ranked = select_top_k([positive], sample, known({7: False}), k=1)
        assert ranked[0].precision_upper_bound == pytest.approx(4 / 5)

    def test_known_positives_do_not_penalize_positive_rules(self, sample):
        positive = Rule([Predicate(0, "f0", False, 0.5)],
                        predicts_match=True)
        ranked = select_top_k([positive], sample, known({7: True}), k=1)
        assert ranked[0].precision_upper_bound == 1.0
