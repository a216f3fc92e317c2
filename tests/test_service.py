"""The labelling service: cache, HIT packing, budget."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CrowdConfig
from repro.crowd.aggregation import VoteScheme
from repro.crowd.cost import CostTracker
from repro.crowd.gateway import ResilientCrowd
from repro.crowd.service import CachedLabel, LabelingService, _satisfies
from repro.crowd.simulated import PerfectCrowd, SimulatedCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.exceptions import (
    BudgetExhaustedError,
    CrowdError,
    TransientCrowdError,
)

MATCHES = {Pair(f"a{i}", f"b{i}") for i in range(40)}


def make_service(error_rate: float = 0.0, budget: float | None = None,
                 **crowd_kwargs) -> LabelingService:
    config = CrowdConfig(**crowd_kwargs)
    crowd = SimulatedCrowd(MATCHES, error_rate=error_rate,
                           rng=np.random.default_rng(0))
    tracker = CostTracker(price_per_question=config.price_per_question,
                          budget=budget)
    return LabelingService(crowd, config, tracker)


def pairs(n: int, matched: bool = True) -> list[Pair]:
    if matched:
        return [Pair(f"a{i}", f"b{i}") for i in range(n)]
    return [Pair(f"a{i}", f"b{i + 1}") for i in range(n)]


class TestLabelAll:
    def test_labels_everything(self):
        service = make_service()
        result = service.label_all(pairs(7))
        assert len(result) == 7
        assert all(result.values())

    def test_non_matches_labelled_false(self):
        service = make_service()
        result = service.label_all(pairs(5, matched=False))
        assert not any(result.values())

    def test_cache_reuse_costs_nothing(self):
        service = make_service()
        service.label_all(pairs(5))
        answers_before = service.tracker.answers
        service.label_all(pairs(5))
        assert service.tracker.answers == answers_before

    def test_pairs_counted_once(self):
        service = make_service()
        service.label_all(pairs(5))
        service.label_all(pairs(5), scheme=VoteScheme.STRONG_MAJORITY)
        assert service.tracker.pairs_labeled == 5


class TestHitPacking:
    def test_full_batch_posts_two_hits(self):
        service = make_service()
        result = service.label_batch(pairs(20))
        assert len(result) == 20
        assert service.tracker.hits == 2

    def test_partial_hit_dropped_when_cache_serves(self):
        service = make_service()
        cached = pairs(15)
        service.label_all(cached)
        hits_before = service.tracker.hits
        # 15 cached + 5 fresh: no full HIT of fresh questions -> only the
        # cached labels return.
        fresh = pairs(5, matched=False)
        result = service.label_batch(cached + fresh)
        assert len(result) == 15
        assert all(pair in result for pair in cached)
        assert service.tracker.hits == hits_before

    def test_paper_example_k_3(self):
        """k=3 cached of 20 -> one HIT of 10 posted, 13 labels back."""
        service = make_service()
        cached = pairs(3)
        service.label_all(cached)
        result = service.label_batch(cached + pairs(17, matched=False))
        assert len(result) == 13

    def test_empty_batch_posts_padded_hit(self):
        """A batch with nothing cached and no full HIT still labels."""
        service = make_service()
        result = service.label_batch(pairs(4))
        assert len(result) == 4

    def test_duplicates_in_request_deduped(self):
        service = make_service()
        result = service.label_batch(pairs(10) + pairs(10))
        assert len(result) == 10


class TestCacheSchemes:
    def test_weak_positive_not_reused_for_strong(self):
        service = make_service()
        target = [Pair("a0", "b0")]
        service.label_all(target, scheme=VoteScheme.MAJORITY_2PLUS1)
        answers_before = service.tracker.answers
        service.label_all(target, scheme=VoteScheme.STRONG_MAJORITY)
        assert service.tracker.answers > answers_before

    def test_asymmetric_negative_reusable(self):
        service = make_service()
        target = [Pair("a0", "b5")]  # a non-match
        service.label_all(target, scheme=VoteScheme.MAJORITY_2PLUS1)
        answers_before = service.tracker.answers
        service.label_all(target, scheme=VoteScheme.ASYMMETRIC)
        assert service.tracker.answers == answers_before

    def test_asymmetric_positive_is_strong(self):
        service = make_service()
        target = [Pair("a0", "b0")]
        service.label_all(target, scheme=VoteScheme.ASYMMETRIC)
        answers_before = service.tracker.answers
        service.label_all(target, scheme=VoteScheme.STRONG_MAJORITY)
        assert service.tracker.answers == answers_before

    def test_satisfies_matrix(self):
        weak_pos = CachedLabel(True, strong=False)
        weak_neg = CachedLabel(False, strong=False)
        strong_pos = CachedLabel(True, strong=True)
        assert _satisfies(weak_pos, VoteScheme.MAJORITY_2PLUS1)
        assert not _satisfies(weak_pos, VoteScheme.STRONG_MAJORITY)
        assert not _satisfies(weak_pos, VoteScheme.ASYMMETRIC)
        assert _satisfies(weak_neg, VoteScheme.ASYMMETRIC)
        assert not _satisfies(weak_neg, VoteScheme.STRONG_MAJORITY)
        assert _satisfies(strong_pos, VoteScheme.STRONG_MAJORITY)


class TestSeedsAndViews:
    def test_seeded_labels_served_free(self):
        service = make_service()
        service.seed({Pair("a0", "b0"): True, Pair("a0", "b1"): False})
        result = service.label_all([Pair("a0", "b0"), Pair("a0", "b1")])
        assert result == {Pair("a0", "b0"): True, Pair("a0", "b1"): False}
        assert service.tracker.answers == 0

    def test_positive_pairs_view(self):
        service = make_service()
        service.label_all(pairs(3) + pairs(2, matched=False))
        assert service.positive_pairs() == set(pairs(3))

    def test_cached_label_lookup(self):
        service = make_service()
        assert service.cached_label(Pair("a0", "b0")) is None
        service.label_all([Pair("a0", "b0")])
        assert service.cached_label(Pair("a0", "b0")) is True

    def test_labeled_pairs_is_copy(self):
        service = make_service()
        service.label_all(pairs(1))
        view = service.labeled_pairs()
        view.clear()
        assert service.cache_size == 1


class TestKnownRows:
    """known_rows walks the cache against the set's pair index."""

    UNIVERSE = [Pair(f"a{i}", f"b{j}") for i in range(6) for j in range(6)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_a_walk_over_the_rows(self, data):
        cached = data.draw(st.lists(st.sampled_from(self.UNIVERSE),
                                    unique=True))
        rows = data.draw(st.lists(st.sampled_from(self.UNIVERSE),
                                  unique=True))
        service = make_service()
        for pair in cached:
            service.seed({pair: data.draw(st.booleans())},
                         strong=data.draw(st.booleans()))
        candidates = CandidateSet(rows, np.zeros((len(rows), 1)), ["f"])
        entries = {Pair(a, b): CachedLabel(label, strong)
                   for a, b, label, strong in service.cache_state()}
        for scheme in (None, *VoteScheme):
            expected = np.array(
                [entries[pair].label if pair in entries and (
                    scheme is None or _satisfies(entries[pair], scheme))
                 else -1 for pair in rows], dtype=np.int8)
            known = service.known_rows(candidates, scheme)
            assert known.dtype == np.int8
            np.testing.assert_array_equal(known, expected)


class TestCacheChanges:
    """The write journal the checkpoint log reads label rows from."""

    def test_changes_rebuild_the_cache_exactly(self):
        service = make_service()
        service.seed({Pair("a0", "b0"): True}, strong=False)
        first = service.cache_changes(0)
        mark = service.cache_writes
        # Asymmetric labelling re-asks the weak positive to the strong
        # standard: its row comes again, updated, among the new ones.
        service.label_all(pairs(3))
        later = service.cache_changes(mark)
        assert [row[:2] for row in later] == [["a0", "b0"], ["a1", "b1"],
                                              ["a2", "b2"]]
        assert later[0] == ["a0", "b0", True, True]
        restored = make_service()
        restored.restore_cache(first + later)
        assert restored.cache_state() == service.cache_state()
        assert restored.cache_changes(0) == service.cache_state()
        assert service.cache_changes(service.cache_writes) == []


class TestBudget:
    def test_budget_exhaustion_raises(self):
        service = make_service(budget=0.10)  # ten answers at 1 cent
        with pytest.raises(BudgetExhaustedError):
            service.label_all(pairs(30))

    def test_cost_accounting(self):
        service = make_service()
        service.label_all(pairs(10))  # perfect crowd, 2+... asymmetric
        # Every positive needs at least 3 answers under asymmetric.
        assert service.tracker.answers >= 30
        assert service.tracker.dollars == pytest.approx(
            service.tracker.answers * 0.01
        )


class TestNoisyLabels:
    def test_majority_recovers_truth_mostly(self):
        service = make_service(error_rate=0.15)
        result = service.label_all(pairs(30))
        correct = sum(1 for v in result.values() if v)
        assert correct >= 27  # strong majority suppresses 15% noise


class FlakyCrowd(SimulatedCrowd):
    """Raises ``error`` (default: a transient failure) on a configurable
    schedule of ask() calls."""

    def __init__(self, matches, fail_on: set[int],
                 error: Exception | None = None, **kwargs):
        super().__init__(matches, **kwargs)
        self._fail_on = fail_on
        self._error = error
        self.calls = 0

    def ask(self, pair):
        self.calls += 1
        if self.calls in self._fail_on:
            raise self._error or TransientCrowdError(
                f"transient failure on call {self.calls}")
        return super().ask(pair)


class TestPlatformRetries:
    """The service asks for each answer once; the gateway retries."""

    def _service(self, fail_on, gateway=False):
        crowd = FlakyCrowd(MATCHES, fail_on,
                           rng=np.random.default_rng(0))
        platform = ResilientCrowd(crowd) if gateway else crowd
        tracker = CostTracker(price_per_question=0.01)
        return LabelingService(platform, CrowdConfig(), tracker), crowd

    def test_transient_failure_is_retried(self):
        # Below a gateway, the failed call is retried there: the service
        # sees an answer and pays for exactly the answers delivered.
        service, crowd = self._service(fail_on={2}, gateway=True)
        labels = service.label_all(pairs(3))
        assert len(labels) == 3
        assert all(labels.values())
        assert service.tracker.answers == crowd.calls - 1

    def test_partial_answers_still_paid(self):
        # Call 3 (the strong-majority escalation of a positive) fails
        # after two answers were consumed: both are metered even though
        # the aggregation never finished.
        service, _ = self._service(fail_on={3})
        with pytest.raises(TransientCrowdError):
            service.label_all(pairs(1))
        assert service.tracker.answers == 2

    def test_question_failing_mid_aggregation_meters_its_hit(self):
        # Call 2 fails after the question's first answer was consumed:
        # the platform served the question, so its HIT is metered.
        service, _ = self._service(fail_on={2})
        with pytest.raises(TransientCrowdError):
            service.label_all(pairs(1))
        assert service.tracker.answers == 1
        assert service.tracker.dollars == pytest.approx(0.01)
        assert service.tracker.hits == 1

    def test_question_failing_before_any_answer_meters_no_hit(self):
        service, _ = self._service(fail_on={1})
        with pytest.raises(TransientCrowdError):
            service.label_all(pairs(1))
        assert service.tracker.answers == 0
        assert service.tracker.hits == 0

    def test_persistent_failure_propagates(self):
        service, _ = self._service(fail_on=set(range(1, 100)))
        with pytest.raises(CrowdError):
            service.label_all(pairs(1))
        assert service.tracker.answers == 0

    def test_zero_retries_fails_fast(self):
        """The service asks once: no re-ask, no restarted aggregation."""
        service, crowd = self._service(fail_on={2})
        with pytest.raises(TransientCrowdError):
            service.label_all(pairs(3))
        assert crowd.calls == 2
        assert service.tracker.answers == 1
        assert service.cache_size == 0

    def test_budget_exhaustion_not_retried(self):
        crowd = SimulatedCrowd(MATCHES, 0.0,
                               rng=np.random.default_rng(0))
        tracker = CostTracker(price_per_question=1.0, budget=0.5)
        service = LabelingService(crowd, CrowdConfig(), tracker)
        tracker.record_answers(1)  # blow the budget
        with pytest.raises(BudgetExhaustedError):
            service.label_all(pairs(1))

    def test_budget_error_mid_aggregation_pays_consumed_answers(self):
        crowd = FlakyCrowd(MATCHES, fail_on={2},
                           error=BudgetExhaustedError(5.0, 5.0),
                           rng=np.random.default_rng(0))
        tracker = CostTracker(price_per_question=0.01)
        service = LabelingService(crowd, CrowdConfig(), tracker)
        with pytest.raises(BudgetExhaustedError):
            service.label_all(pairs(1))
        assert tracker.answers == 1
