"""Rules: conjunctions of predicates that predict match / no-match.

A *negative* rule (``predicts_match=False``) identifies pairs that do not
match — the blocking and reduction rules of Sections 4 and 6.  A
*positive* rule identifies matches — used by the difficult-pairs locator
of Section 7.  Applying a rule to a feature matrix yields its *coverage*:
the rows for which every predicate holds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import RuleError
from .predicates import Predicate


@dataclass(frozen=True)
class RuleStats:
    """Coverage/precision statistics of a rule over a labelled sample."""

    coverage: int
    """|cov(R, S)|: number of sample rows the rule covers."""

    precision_upper_bound: float
    """Upper bound on prec(R, S) from crowd-known contrary labels (§4.2)."""


class Rule:
    """An immutable conjunction of predicates with a predicted label."""

    def __init__(self, predicates: Sequence[Predicate], predicts_match: bool,
                 cost: float = 0.0, source: str = "") -> None:
        if not predicates:
            raise RuleError("a rule needs at least one predicate")
        self.predicates = tuple(predicates)
        self.predicts_match = bool(predicts_match)
        self.cost = float(cost)
        self.source = source
        self._signature = (
            self.predicts_match,
            tuple(sorted(
                (p.feature_index, p.le, p.threshold, p.nan_satisfies)
                for p in self.predicates
            )),
        )

    @property
    def is_negative(self) -> bool:
        """True for blocking/reduction rules (predict "no match")."""
        return not self.predicts_match

    @property
    def feature_indices(self) -> frozenset[int]:
        """Distinct features this rule reads (cost = sum of their costs)."""
        return frozenset(p.feature_index for p in self.predicates)

    def applies(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask of rows covered by this rule."""
        features = np.asarray(features, dtype=np.float64)
        mask = np.ones(features.shape[0], dtype=bool)
        for predicate in self.predicates:
            mask &= predicate.evaluate(features)
            if not mask.any():
                break
        return mask

    def stats(self, features: np.ndarray,
              known_labels: np.ndarray) -> RuleStats:
        """Coverage and the §4.2 precision upper bound.

        ``known_labels`` holds one crowd label per sample row, as
        :meth:`~repro.crowd.service.LabelingService.known_rows` returns
        it (1 match, 0 no match, -1 unknown).  Covered rows whose label
        contradicts this rule's prediction lower the bound; for a
        negative rule they are the crowd-positives, the set T of the
        paper.
        """
        mask = self.applies(features)
        covered = int(np.count_nonzero(mask))
        if covered == 0:
            return RuleStats(coverage=0, precision_upper_bound=0.0)
        contrary = int(np.count_nonzero(
            mask & (known_labels == int(not self.predicts_match))
        ))
        bound = (covered - contrary) / covered
        return RuleStats(coverage=covered, precision_upper_bound=bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self._signature == other._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    def __str__(self) -> str:
        verdict = "MATCH" if self.predicts_match else "NO MATCH"
        body = " AND ".join(str(p) for p in self.predicates)
        return f"IF {body} THEN {verdict}"

    def __repr__(self) -> str:
        return f"Rule({str(self)!r})"


def simplify_predicates(predicates: Sequence[Predicate]) -> tuple[Predicate, ...]:
    """Merge redundant conditions on the same feature and direction.

    A tree path can test the same feature repeatedly (e.g. ``f <= 0.8``
    then ``f <= 0.5``); only the tightest bound matters.  NaN routing is
    AND-ed: the merged predicate admits NaN only if every merged condition
    did.
    """
    by_key: dict[tuple[int, bool], Predicate] = {}
    order: list[tuple[int, bool]] = []
    for predicate in predicates:
        key = (predicate.feature_index, predicate.le)
        existing = by_key.get(key)
        if existing is None:
            by_key[key] = predicate
            order.append(key)
            continue
        if predicate.le:
            threshold = min(existing.threshold, predicate.threshold)
        else:
            threshold = max(existing.threshold, predicate.threshold)
        by_key[key] = Predicate(
            feature_index=existing.feature_index,
            feature_name=existing.feature_name,
            le=existing.le,
            threshold=threshold,
            nan_satisfies=existing.nan_satisfies and predicate.nan_satisfies,
        )
    return tuple(by_key[key] for key in order)
