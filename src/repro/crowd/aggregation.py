"""Noisy-answer aggregation schemes (Section 8, item 2).

Three schemes, all returning ``(label, answers_used)``:

* :func:`majority_2plus1` — solicit two answers; if they agree, done,
  otherwise solicit a third and take the majority.
* :func:`strong_majority` — solicit answers until the majority label leads
  the minority by at least ``gap`` (default 3), or ``max_answers``
  (default 7) have been solicited; return the majority.
* :func:`asymmetric_majority` — the paper's refined scheme: run 2+1, and
  only when the provisional majority is *positive* (a potential false
  positive, which is the expensive error for recall estimation) escalate
  to strong majority, reusing the answers already collected.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from ..exceptions import CrowdError


class VoteScheme(enum.Enum):
    """Which aggregation scheme a label was produced with."""

    MAJORITY_2PLUS1 = "2+1"
    STRONG_MAJORITY = "strong"
    ASYMMETRIC = "asymmetric"


AskFn = Callable[[], bool]
"""Solicits one fresh answer for the question under aggregation."""


def majority_2plus1(ask: AskFn) -> tuple[bool, int]:
    """2+1 majority vote; uses 2 answers on agreement, 3 otherwise."""
    first, second = ask(), ask()
    if first == second:
        return first, 2
    third = ask()
    # first != second, so the third answer is the tie-breaker.
    return third, 3


def strong_majority(ask: AskFn, gap: int = 3,
                    max_answers: int = 7,
                    positives: int = 0, negatives: int = 0) -> tuple[bool, int]:
    """Solicit until |majority - minority| >= gap or max_answers reached.

    ``positives``/``negatives`` seed the tally with answers already
    collected (used by the asymmetric scheme to reuse its 2+1 answers);
    only *new* answers are counted in the returned answer count.
    """
    if gap < 1:
        raise CrowdError("gap must be >= 1")
    if max_answers < gap:
        raise CrowdError("max_answers must be >= gap")
    used = 0
    while abs(positives - negatives) < gap and positives + negatives < max_answers:
        if ask():
            positives += 1
        else:
            negatives += 1
        used += 1
    return positives >= negatives, used


def asymmetric_majority(ask: AskFn, gap: int = 3,
                        max_answers: int = 7) -> tuple[bool, int]:
    """2+1 for provisional negatives, strong majority for positives.

    False positives distort the actual-positive count that sits in the
    denominator of the recall estimate (Section 8), so positive labels are
    held to the stronger standard while negatives keep the cheap scheme.
    """
    first, second = ask(), ask()
    used = 2
    positives = int(first) + int(second)
    negatives = used - positives
    if positives == 0:
        return False, used  # unanimous negative: cheap path
    if positives == 1:
        third = ask()
        used += 1
        positives += int(third)
        negatives += int(not third)
        if positives < negatives:
            return False, used  # majority negative after the tie-break
    # Provisional positive: escalate, reusing the answers collected so far.
    label, extra = strong_majority(
        ask, gap=gap, max_answers=max_answers,
        positives=positives, negatives=negatives,
    )
    return label, used + extra


def aggregate(ask: AskFn, scheme: VoteScheme,
              gap: int = 3, max_answers: int = 7) -> tuple[bool, int]:
    """Run ``scheme`` over the answers ``ask`` solicits for one pair."""
    if scheme is VoteScheme.MAJORITY_2PLUS1:
        return majority_2plus1(ask)
    if scheme is VoteScheme.STRONG_MAJORITY:
        return strong_majority(ask, gap=gap, max_answers=max_answers)
    if scheme is VoteScheme.ASYMMETRIC:
        return asymmetric_majority(ask, gap=gap, max_answers=max_answers)
    raise CrowdError(f"unknown vote scheme: {scheme!r}")
