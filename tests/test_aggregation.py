"""Vote-aggregation schemes (Section 8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.crowd.aggregation import (
    VoteScheme,
    aggregate,
    asymmetric_majority,
    majority_2plus1,
    strong_majority,
)
from repro.crowd.simulated import SimulatedCrowd
from repro.data.pairs import Pair
from repro.exceptions import CrowdError


def scripted(answers: list[bool]):
    """An ask() that replays a fixed script and records usage."""
    state = {"i": 0}

    def ask() -> bool:
        answer = answers[state["i"]]
        state["i"] += 1
        return answer

    return ask, state


class TestMajority2Plus1:
    def test_agreement_stops_at_two(self):
        ask, state = scripted([True, True])
        label, used = majority_2plus1(ask)
        assert label is True and used == 2 and state["i"] == 2

    def test_disagreement_takes_third(self):
        ask, _ = scripted([True, False, False])
        label, used = majority_2plus1(ask)
        assert label is False and used == 3

    def test_third_answer_decides(self):
        ask, _ = scripted([False, True, True])
        label, _ = majority_2plus1(ask)
        assert label is True


class TestStrongMajority:
    def test_unanimous_three(self):
        ask, _ = scripted([True, True, True])
        label, used = strong_majority(ask)
        assert label is True and used == 3

    def test_gap_of_three_required(self):
        # T F T T -> 3 pos 1 neg: gap 2, continue; T -> 4-1=3 stop.
        ask, _ = scripted([True, False, True, True, True])
        label, used = strong_majority(ask)
        assert label is True and used == 5

    def test_max_answers_cutoff(self):
        alternating = [True, False] * 4
        ask, _ = scripted(alternating)
        label, used = strong_majority(ask)
        assert used == 7
        # 4 positive vs 3 negative -> positive.
        assert label is True

    def test_seeded_counts_reduce_new_answers(self):
        ask, _ = scripted([True])
        label, used = strong_majority(ask, positives=2, negatives=0)
        assert label is True and used == 1

    def test_seed_already_decisive(self):
        ask, state = scripted([])
        label, used = strong_majority(ask, positives=3, negatives=0)
        assert label is True and used == 0 and state["i"] == 0

    def test_bad_gap(self):
        ask, _ = scripted([True])
        with pytest.raises(CrowdError):
            strong_majority(ask, gap=0)

    def test_max_below_gap(self):
        ask, _ = scripted([True])
        with pytest.raises(CrowdError):
            strong_majority(ask, gap=3, max_answers=2)

    def test_paper_examples(self):
        # "4 positive and 1 negative answers would return a positive label"
        ask, _ = scripted([True, False, True, True, True])
        assert strong_majority(ask)[0] is True
        # "4 negative and 3 positive would return negative"
        ask, _ = scripted([True, False, True, False, True, False, False])
        label, used = strong_majority(ask)
        assert label is False and used == 7


class TestAsymmetric:
    def test_unanimous_negative_cheap(self):
        ask, state = scripted([False, False])
        label, used = asymmetric_majority(ask)
        assert label is False and used == 2 and state["i"] == 2

    def test_majority_negative_after_tiebreak(self):
        ask, _ = scripted([True, False, False])
        label, used = asymmetric_majority(ask)
        assert label is False and used == 3

    def test_provisional_positive_escalates(self):
        # Two positives -> escalate until gap 3: one more positive.
        ask, _ = scripted([True, True, True])
        label, used = asymmetric_majority(ask)
        assert label is True and used == 3

    def test_escalation_can_flip_to_negative(self):
        # 2+1 would say positive after T,F,T; strong majority keeps asking
        # and the negatives win.
        ask, _ = scripted([True, False, True, False, False, False, False])
        label, used = asymmetric_majority(ask)
        assert label is False
        assert used == 7

    def test_reuses_initial_answers(self):
        # T T T: escalation needed gap 3 from (2,0) -> one more answer,
        # not three fresh ones.
        ask, state = scripted([True, True, True, True, True])
        asymmetric_majority(ask)
        assert state["i"] == 3


class TestAggregateDispatch:
    @pytest.mark.parametrize("scheme", list(VoteScheme))
    def test_runs_against_platform(self, scheme):
        crowd = SimulatedCrowd({Pair("a", "b")}, error_rate=0.0,
                               rng=np.random.default_rng(0))
        label, used = aggregate(lambda: crowd.ask(Pair("a", "b")).label,
                                scheme)
        assert label is True
        assert used >= 2


@given(st.lists(st.booleans(), min_size=7, max_size=7),
       st.sampled_from(["2+1", "strong", "asym"]))
def test_schemes_return_majority_of_consumed_answers(script, which):
    ask, state = scripted(script)
    if which == "2+1":
        label, used = majority_2plus1(ask)
    elif which == "strong":
        label, used = strong_majority(ask)
    else:
        label, used = asymmetric_majority(ask)
    consumed = script[:state["i"]]
    assert used == len(consumed)
    positives = sum(consumed)
    # The returned label always agrees with the majority of the answers
    # actually consumed (ties resolve positive only for strong majority).
    if positives * 2 > len(consumed):
        assert label is True
    elif positives * 2 < len(consumed):
        assert label is False
