"""The difficult-pairs locator (Section 7).

After each matching round, Corleone extracts the matcher's *precise*
positive and negative rules (certified by the crowd, like blocking rules)
and removes every pair they cover: those pairs are "easy" — some reliable
rule already decides them.  What remains is the difficult set C', which
the next iteration attacks with a fresh matcher.  The locator declines to
iterate when C' is too small to be worth the crowd's money or when no
meaningful reduction happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CorleoneConfig
from ..crowd.service import LabelingService
from ..data.pairs import CandidateSet
from ..forest.forest import RandomForest
from ..rules.evaluation import RuleEvaluation, evaluate_rules
from ..rules.extraction import extract_rules
from ..rules.rule import Rule
from ..rules.selection import select_top_k


@dataclass
class LocatorResult:
    """The locator's verdict for one iteration."""

    difficult_rows: list[int] | None
    """Rows of the set passed to :meth:`DifficultPairsLocator.locate`
    that form the difficult set C', or None when iteration should stop."""

    stop_reason: str
    """"ok", "too_small", "no_reduction" or "no_rules"."""

    accepted_rules: list[Rule] = field(default_factory=list)
    evaluations: list[RuleEvaluation] = field(default_factory=list)
    pairs_labeled: int = 0

    @property
    def should_continue(self) -> bool:
        return self.difficult_rows is not None


class DifficultPairsLocator:
    """Finds the pairs the current matcher cannot reliably decide."""

    def __init__(self, config: CorleoneConfig, service: LabelingService,
                 rng: np.random.Generator) -> None:
        self.config = config
        self.service = service
        self.rng = rng

    def locate(self, candidates: CandidateSet,
               forest: RandomForest) -> LocatorResult:
        """Extract precise rules, strip covered pairs, return C'."""
        cfg = self.config.locator
        before = self.service.tracker.snapshot()

        known = self.service.known_rows(candidates)

        selected: list[Rule] = []
        for polarity in (False, True):
            extracted = extract_rules(
                forest, candidates.feature_names, predicts_match=polarity
            )
            ranked = select_top_k(
                extracted, candidates.features, known, cfg.top_k_rules,
                min_coverage=cfg.min_rule_coverage,
            )
            selected.extend(r.rule for r in ranked)

        if not selected:
            return LocatorResult(difficult_rows=None, stop_reason="no_rules")

        evaluations = evaluate_rules(
            selected, candidates, self.service, self.rng,
            batch_size=self.config.blocker.eval_batch_size,
            min_precision=self.config.blocker.min_precision,
            max_error_margin=self.config.blocker.max_error_margin,
            confidence=self.config.blocker.confidence,
            max_labels_per_rule=self.config.blocker.max_labels_per_rule,
        )
        accepted = [ev.rule for ev in evaluations if ev.accepted]
        spent = self.service.tracker.snapshot().minus(before)

        covered = np.zeros(len(candidates), dtype=bool)
        for rule in accepted:
            covered |= rule.applies(candidates.features)
        remaining = np.flatnonzero(~covered)

        result_common = dict(
            accepted_rules=accepted,
            evaluations=evaluations,
            pairs_labeled=spent.pairs_labeled,
        )
        if remaining.size < cfg.min_difficult_pairs:
            return LocatorResult(difficult_rows=None,
                                 stop_reason="too_small", **result_common)
        if remaining.size >= cfg.max_reduction_ratio * len(candidates):
            return LocatorResult(difficult_rows=None,
                                 stop_reason="no_reduction", **result_common)
        return LocatorResult(difficult_rows=remaining.tolist(),
                             stop_reason="ok", **result_common)
