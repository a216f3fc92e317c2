"""Result records of the hands-off pipeline.

:class:`IterationRecord` and :class:`CorleoneResult` are the run's
output datatypes, factored out of the orchestrator so that the staged
execution engine (:mod:`repro.engine`) and the persistence layer can
build and serialize them without importing the pipeline driver.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..crowd.cost import CostSnapshot
from ..data.pairs import CandidateSet, Pair
from ..rules.evaluation import RuleEvaluation
from .blocker import BlockerResult
from .estimator import AccuracyEstimate
from .locator import LocatorResult
from .matcher import MatcherResult


@dataclass
class IterationRecord:
    """Telemetry for one matching iteration (one row group of Table 4)."""

    index: int
    matcher: MatcherResult
    predicted_pairs: frozenset[Pair]
    """Combined (ensemble) predicted matches over C after this iteration."""
    estimate: AccuracyEstimate | None = None
    estimation_pairs_labeled: int = 0
    locator: LocatorResult | None = None
    reduction_pairs_labeled: int = 0

    @property
    def difficult_size(self) -> int | None:
        """|C'| handed to the next iteration; None when the loop stopped."""
        if self.locator is None or self.locator.difficult_rows is None:
            return None
        return len(self.locator.difficult_rows)


def certified_evaluations(
        records: Sequence[IterationRecord]) -> list[RuleEvaluation]:
    """The accepted evaluations of ``records``' estimates, in order:
    the reduction rules certified by those estimation rounds, which the
    next round re-applies for free."""
    return [
        evaluation
        for record in records if record.estimate is not None
        for evaluation in record.estimate.rule_evaluations
        if evaluation.accepted
    ]


@dataclass
class CorleoneResult:
    """The hands-off run's complete output."""

    predicted_matches: frozenset[Pair]
    candidates: CandidateSet
    blocker: BlockerResult
    iterations: list[IterationRecord] = field(default_factory=list)
    estimate: AccuracyEstimate | None = None
    cost: CostSnapshot = field(default_factory=CostSnapshot)
    stop_reason: str = ""

    @property
    def total_pairs_labeled(self) -> int:
        """Distinct pairs the crowd labelled over the whole run."""
        return self.cost.pairs_labeled

    @property
    def total_dollars(self) -> float:
        """Dollars spent over the whole run."""
        return self.cost.dollars
