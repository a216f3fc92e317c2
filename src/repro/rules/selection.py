"""Top-k rule selection by precision upper bound (§4.2, step 1).

Evaluating every extracted rule with the crowd would be prohibitively
expensive (the paper saw up to 8943 candidates), so only the k most
promising rules are forwarded: ranked by the upper bound on prec(R, S)
computable from the crowd labels already collected during active
learning, breaking ties by coverage.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .rule import Rule


@dataclass(frozen=True)
class RankedRule:
    """A rule with the sample statistics used to rank it."""

    rule: Rule
    coverage: int
    precision_upper_bound: float


def select_top_k(rules: Sequence[Rule], features: np.ndarray,
                 known_labels: np.ndarray, k: int,
                 min_coverage: int = 1) -> list[RankedRule]:
    """Pick the k most promising rules over sample feature matrix ``S``.

    ``known_labels`` holds the crowd label of every sample row labelled
    so far (1 match, 0 no match, -1 unknown; see
    :meth:`~repro.crowd.service.LabelingService.known_rows`).  Rows whose
    known label *contradicts* a rule's prediction lower its precision
    upper bound:  bound = |cov - contrary| / |cov| (for negative rules
    the contrary set is T, the crowd-positives, exactly as in the paper).

    Rules covering fewer than ``min_coverage`` rows are skipped (a rule
    that never fires on the sample cannot be assessed or useful).
    """
    if k < 1:
        return []
    ranked: list[RankedRule] = []
    for rule in rules:
        stats = rule.stats(features, known_labels)
        if stats.coverage < min_coverage:
            continue
        ranked.append(RankedRule(
            rule=rule,
            coverage=stats.coverage,
            precision_upper_bound=stats.precision_upper_bound,
        ))
    ranked.sort(
        key=lambda r: (r.precision_upper_bound, r.coverage), reverse=True
    )
    return ranked[:k]
