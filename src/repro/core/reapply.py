"""Re-applying a trained matcher to fresh data — no crowd needed.

Example 3.1 observes that once an EM solution is created and trained it
"can be automatically applied to match future toy products, without
using a developer" (or, here, a crowd).  This module is that path: take
the artifacts a hands-off run produced — certified blocking rules and
the trained forest, both JSON-persistable via :mod:`repro.persistence` —
and match a *new* batch of records for free.

The catch the paper also names: the solution does not transfer across
categories, and it decays as the data drifts.  :func:`drift_report`
quantifies exactly that, comparing the forest's confidence profile on
the new candidates against the profile recorded at training time, so an
operator knows when it is time to pay the crowd for a refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.pairs import CandidateSet, Pair
from ..data.table import Table
from ..exceptions import DataError
from ..features.library import FeatureLibrary
from ..features.vectorize import vectorize_pairs
from ..forest.forest import RandomForest
from ..rules.rule import Rule


@dataclass
class ReapplyResult:
    """Output of a crowd-free re-application run."""

    predicted_matches: frozenset[Pair]
    candidates: CandidateSet
    cartesian: int
    confidence: np.ndarray = field(repr=False, default=None)
    """Per-candidate forest confidence, aligned to ``candidates``."""

    @property
    def umbrella_size(self) -> int:
        return len(self.candidates)

    @property
    def mean_confidence(self) -> float:
        if self.confidence is None or len(self.confidence) == 0:
            return 1.0
        return float(self.confidence.mean())


def reapply_matcher(table_a: Table, table_b: Table,
                    library: FeatureLibrary,
                    blocking_rules: list[Rule],
                    forest: RandomForest) -> ReapplyResult:
    """Match two tables using previously learned artifacts only.

    ``library`` must be built over schemas matching the training run
    (feature order defines what the rule/forest indices mean — persist
    the feature names next to the forest and verify before calling).
    """
    if forest.n_features_ != len(library):
        raise DataError(
            f"forest expects {forest.n_features_} features but the "
            f"library provides {len(library)}"
        )
    for rule in blocking_rules:
        top = max(rule.feature_indices, default=-1)
        if top >= len(library):
            raise DataError(
                f"blocking rule references feature {top} outside the "
                f"library ({len(library)} features)"
            )

    # Imported here so that ``import repro`` does not load the executor.
    from ..exec import apply_rules_sharded

    survivors = apply_rules_sharded(
        table_a, table_b, blocking_rules, library
    )
    candidates = vectorize_pairs(table_a, table_b, survivors, library)
    if len(candidates) == 0:
        return ReapplyResult(
            predicted_matches=frozenset(),
            candidates=candidates,
            cartesian=len(table_a) * len(table_b),
            confidence=np.empty(0),
        )
    predictions = forest.predict(candidates.features)
    confidence = forest.confidence(candidates.features)
    matches = frozenset(
        candidates.pairs[row] for row in np.flatnonzero(predictions)
    )
    return ReapplyResult(
        predicted_matches=matches,
        candidates=candidates,
        cartesian=len(table_a) * len(table_b),
        confidence=confidence,
    )


@dataclass(frozen=True)
class DriftReport:
    """How far the new data sits from the matcher's training regime."""

    training_mean_confidence: float
    current_mean_confidence: float
    low_confidence_fraction: float
    """Share of new candidates with confidence below the threshold."""
    refresh_recommended: bool

    @property
    def confidence_drop(self) -> float:
        return self.training_mean_confidence - self.current_mean_confidence


def drift_report(result: ReapplyResult,
                 training_mean_confidence: float,
                 low_confidence_threshold: float = 0.7,
                 max_drop: float = 0.1,
                 max_low_fraction: float = 0.2) -> DriftReport:
    """Decide whether the saved matcher still fits the data.

    Two triggers, either of which recommends a crowd refresh: the mean
    forest confidence dropped by more than ``max_drop`` versus training,
    or more than ``max_low_fraction`` of new candidates fall below
    ``low_confidence_threshold`` (the forest is guessing on them).
    """
    if not 0.0 <= training_mean_confidence <= 1.0:
        raise DataError("training_mean_confidence must be in [0, 1]")
    current = result.mean_confidence
    if result.confidence is not None and len(result.confidence):
        low_fraction = float(
            (result.confidence < low_confidence_threshold).mean()
        )
    else:
        low_fraction = 0.0
    drop = training_mean_confidence - current
    return DriftReport(
        training_mean_confidence=training_mean_confidence,
        current_mean_confidence=current,
        low_confidence_fraction=low_fraction,
        refresh_recommended=(drop > max_drop
                             or low_fraction > max_low_fraction),
    )
