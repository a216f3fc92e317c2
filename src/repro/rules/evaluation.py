"""Crowd-based rule evaluation (§4.2, step 2 — joint variant).

Each candidate rule's precision over the sample S is estimated by labelling
randomly drawn examples from its coverage.  All rules are evaluated
*jointly*: each round draws a batch from the union of the coverages of the
still-undecided rules, so one labelled example can advance the estimate of
every rule that covers it.  A rule is kept once its estimated precision P
meets the threshold with a tight-enough margin, and dropped as soon as it
provably (or too-expensively) cannot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..crowd.aggregation import VoteScheme
from ..crowd.service import LabelingService
from ..exceptions import BudgetExhaustedError
from ..data.pairs import CandidateSet
from .rule import Rule
from .statistics import fpc_error_margin


@dataclass(frozen=True)
class RuleEvaluation:
    """The outcome of evaluating one rule with the crowd."""

    rule: Rule
    accepted: bool
    precision: float
    """Estimated precision P = consistent / labelled over the coverage."""
    error_margin: float
    coverage: int
    n_labeled: int
    reason: str
    """Why evaluation stopped: accepted / bound_below_min / margin_met_low /
    exhausted / empty_coverage / label_cap / budget_exhausted."""


def evaluate_rules(rules: Sequence[Rule], sample: CandidateSet,
                   service: LabelingService, rng: np.random.Generator,
                   batch_size: int = 20, min_precision: float = 0.95,
                   max_error_margin: float = 0.05,
                   confidence: float = 0.95,
                   max_labels_per_rule: int = 200,
                   scheme: VoteScheme = VoteScheme.ASYMMETRIC) -> list[RuleEvaluation]:
    """Jointly evaluate ``rules`` over ``sample`` using the crowd.

    Returns one :class:`RuleEvaluation` per input rule, in input order.
    Rule evaluation is label-sensitive, so the asymmetric strong-majority
    scheme is the default (Section 8).
    """
    coverages = [rule.applies(sample.features) for rule in rules]

    # The crowd label of every sample row labelled so far.  Seed with
    # what the cache knows *at the required strength* (§8 item 3: reuse
    # only labels "labeled the way we want") — seeding weak 2+1 positives
    # here would let a mislabeled training example circularly certify the
    # very rule the forest overfit to it.
    labels = service.known_rows(sample, scheme)

    results = {
        i: RuleEvaluation(rules[i], False, 0.0, 0.0, 0, 0, "empty_coverage")
        for i, coverage in enumerate(coverages) if not coverage.any()
    }
    undecided = [i for i in range(len(rules)) if i not in results]
    labels_spent = {i: 0 for i in undecided}

    while undecided:
        # Re-assess every undecided rule against the labels known so far.
        still: list[int] = []
        for i in undecided:
            verdict = _assess(
                rules[i], coverages[i], labels, labels_spent[i],
                min_precision, max_error_margin, confidence,
                max_labels_per_rule,
            )
            if verdict is None:
                still.append(i)
            else:
                results[i] = verdict
        undecided = still
        if not undecided:
            break

        pool = np.flatnonzero(
            np.logical_or.reduce([coverages[i] for i in undecided])
            & (labels < 0)
        )
        if not pool.size:
            # Every coverage row is labelled; force final decisions.
            for i in undecided:
                results[i] = _final_decision(
                    rules[i], coverages[i], labels,
                    min_precision, confidence, "exhausted",
                )
            break

        take = min(batch_size, pool.size)
        batch_rows = pool[rng.choice(pool.size, size=take, replace=False)]
        batch_pairs = [sample.pairs[row] for row in batch_rows]
        try:
            labeled = service.label_all(batch_pairs, scheme=scheme)
        except BudgetExhaustedError:
            # Out of money: decide the remaining rules on current
            # evidence rather than aborting the whole run.
            for i in undecided:
                results[i] = _final_decision(
                    rules[i], coverages[i], labels,
                    min_precision, confidence, "budget_exhausted",
                )
            break
        labels[batch_rows] = [labeled[pair] for pair in batch_pairs]
        for i in undecided:
            labels_spent[i] += int(np.count_nonzero(
                coverages[i][batch_rows]))

    return [results[i] for i in range(len(rules))]


def _rule_precision(rule: Rule, coverage: np.ndarray,
                    labels: np.ndarray) -> tuple[float, int]:
    """(P, n): estimated precision from the labelled coverage rows."""
    labelled = coverage & (labels >= 0)
    n = int(np.count_nonzero(labelled))
    if n == 0:
        return 0.0, 0
    consistent = int(np.count_nonzero(
        labelled & (labels == int(rule.predicts_match))
    ))
    return consistent / n, n


def _assess(rule: Rule, coverage: np.ndarray, labels: np.ndarray,
            labels_spent: int, min_precision: float, max_error_margin: float,
            confidence: float, max_labels_per_rule: int) -> RuleEvaluation | None:
    """Apply the paper's keep/drop conditions; None means keep sampling."""
    p, n = _rule_precision(rule, coverage, labels)
    if n == 0:
        return None
    m = int(np.count_nonzero(coverage))
    eps = fpc_error_margin(p, n, m, confidence)

    if p >= min_precision and eps <= max_error_margin:
        return RuleEvaluation(rule, True, p, eps, m, n, "accepted")
    if p + eps < min_precision:
        return RuleEvaluation(rule, False, p, eps, m, n, "bound_below_min")
    if eps <= max_error_margin and p < min_precision:
        return RuleEvaluation(rule, False, p, eps, m, n, "margin_met_low")
    if labels_spent >= max_labels_per_rule:
        accepted = p >= min_precision
        return RuleEvaluation(rule, accepted, p, eps, m, n, "label_cap")
    return None


def _final_decision(rule: Rule, coverage: np.ndarray, labels: np.ndarray,
                    min_precision: float, confidence: float,
                    reason: str) -> RuleEvaluation:
    """Decide a rule once no more labels can be drawn from its coverage."""
    p, n = _rule_precision(rule, coverage, labels)
    m = int(np.count_nonzero(coverage))
    eps = fpc_error_margin(p, n, m, confidence) if n else 0.0
    return RuleEvaluation(rule, n > 0 and p >= min_precision, p, eps, m, n,
                          reason)
