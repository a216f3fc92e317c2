"""Predicates and rules: evaluation, coverage, simplification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RuleError
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule, simplify_predicates


def pred(index: int, le: bool, threshold: float,
         nan_ok: bool = False) -> Predicate:
    return Predicate(index, f"f{index}", le, threshold,
                     nan_satisfies=nan_ok)


class TestPredicate:
    def test_le_evaluation(self):
        matrix = np.array([[0.2], [0.8], [np.nan]])
        np.testing.assert_array_equal(
            pred(0, True, 0.5).evaluate(matrix), [True, False, False]
        )

    def test_gt_evaluation(self):
        matrix = np.array([[0.2], [0.8], [np.nan]])
        np.testing.assert_array_equal(
            pred(0, False, 0.5).evaluate(matrix), [False, True, False]
        )

    def test_nan_satisfies(self):
        matrix = np.array([[np.nan]])
        assert pred(0, True, 0.5, nan_ok=True).evaluate(matrix)[0]

    def test_out_of_range_feature(self):
        with pytest.raises(RuleError):
            pred(3, True, 0.5).evaluate(np.zeros((2, 2)))

    def test_one_dim_matrix_rejected(self):
        with pytest.raises(RuleError):
            pred(0, True, 0.5).evaluate(np.zeros(3))

    def test_negative_index_rejected(self):
        with pytest.raises(RuleError):
            Predicate(-1, "f", True, 0.5)

    def test_nonfinite_threshold_rejected(self):
        with pytest.raises(RuleError):
            Predicate(0, "f", True, float("inf"))

    def test_implies(self):
        assert pred(0, True, 0.3).implies(pred(0, True, 0.5))
        assert not pred(0, True, 0.5).implies(pred(0, True, 0.3))
        assert pred(0, False, 0.5).implies(pred(0, False, 0.3))
        assert not pred(0, True, 0.3).implies(pred(1, True, 0.5))
        assert not pred(0, True, 0.3).implies(pred(0, False, 0.5))

    def test_str(self):
        assert str(pred(0, True, 0.25)) == "f0 <= 0.25"
        assert str(pred(1, False, 0.5)) == "f1 > 0.5"


class TestRule:
    def test_conjunction(self):
        rule = Rule([pred(0, True, 0.5), pred(1, False, 0.5)],
                    predicts_match=False)
        matrix = np.array([
            [0.2, 0.8],   # both satisfied -> covered
            [0.2, 0.2],   # second fails
            [0.8, 0.8],   # first fails
        ])
        np.testing.assert_array_equal(
            rule.applies(matrix), [True, False, False]
        )

    def test_empty_rule_rejected(self):
        with pytest.raises(RuleError):
            Rule([], predicts_match=False)

    def test_is_negative(self):
        assert Rule([pred(0, True, 1)], predicts_match=False).is_negative
        assert not Rule([pred(0, True, 1)], predicts_match=True).is_negative

    def test_equality_ignores_predicate_order(self):
        r1 = Rule([pred(0, True, 0.5), pred(1, False, 0.2)], False)
        r2 = Rule([pred(1, False, 0.2), pred(0, True, 0.5)], False)
        assert r1 == r2
        assert hash(r1) == hash(r2)

    def test_polarity_distinguishes_rules(self):
        r1 = Rule([pred(0, True, 0.5)], False)
        r2 = Rule([pred(0, True, 0.5)], True)
        assert r1 != r2

    def test_feature_indices(self):
        rule = Rule([pred(0, True, 0.5), pred(0, False, 0.1),
                     pred(2, True, 0.9)], False)
        assert rule.feature_indices == frozenset({0, 2})

    def test_stats_precision_upper_bound(self):
        rule = Rule([pred(0, True, 0.5)], predicts_match=False)
        matrix = np.array([[0.1], [0.2], [0.3], [0.9]])
        # Rows 0-2 covered; row 1 is a known positive (contrary), row 3
        # a known positive outside the coverage.
        stats = rule.stats(matrix, np.array([-1, 1, 0, 1], dtype=np.int8))
        assert stats.coverage == 3
        assert stats.precision_upper_bound == pytest.approx(2 / 3)

    def test_stats_empty_coverage(self):
        rule = Rule([pred(0, True, -1.0)], predicts_match=False)
        stats = rule.stats(np.array([[0.5]]), np.array([-1], dtype=np.int8))
        assert stats.coverage == 0
        assert stats.precision_upper_bound == 0.0

    def test_str_mentions_verdict(self):
        rule = Rule([pred(0, True, 0.5)], predicts_match=False)
        assert "NO MATCH" in str(rule)
        rule = Rule([pred(0, True, 0.5)], predicts_match=True)
        assert str(rule).endswith("MATCH")


class TestSimplify:
    def test_merges_same_direction(self):
        merged = simplify_predicates([
            pred(0, True, 0.8), pred(0, True, 0.5), pred(0, True, 0.6),
        ])
        assert len(merged) == 1
        assert merged[0].threshold == 0.5

    def test_gt_takes_max(self):
        merged = simplify_predicates([
            pred(0, False, 0.1), pred(0, False, 0.4),
        ])
        assert merged[0].threshold == 0.4

    def test_different_directions_kept(self):
        merged = simplify_predicates([
            pred(0, True, 0.8), pred(0, False, 0.2),
        ])
        assert len(merged) == 2

    def test_nan_flag_anded(self):
        merged = simplify_predicates([
            pred(0, True, 0.8, nan_ok=True), pred(0, True, 0.5, nan_ok=False),
        ])
        assert merged[0].nan_satisfies is False

    def test_preserves_first_seen_order(self):
        merged = simplify_predicates([
            pred(1, True, 0.5), pred(0, False, 0.5), pred(1, True, 0.2),
        ])
        assert [p.feature_index for p in merged] == [1, 0]

    def test_simplified_rule_equivalent(self, rng):
        """A simplified conjunction covers exactly the same rows."""
        raw = [pred(0, True, 0.9), pred(0, True, 0.6),
               pred(1, False, 0.1), pred(1, False, 0.3)]
        matrix = rng.random((200, 2))
        rule_raw = Rule(raw, False)
        rule_simple = Rule(simplify_predicates(raw), False)
        np.testing.assert_array_equal(
            rule_raw.applies(matrix), rule_simple.applies(matrix)
        )
