"""Cost accounting for crowdsourced labelling.

Tracks every unit the paper reports: dollars spent (answers times
per-question price), distinct pairs labelled (the "# Pairs" columns of
Tables 2-4), total single-worker answers, and HITs posted.  The
tracker is a plain ledger with no observers: callers take
:meth:`CostTracker.snapshot` deltas to attribute cost to each step
(blocking vs matching vs estimation vs reduction), and the labelling
service reports each call's delta itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..exceptions import BudgetExhaustedError


@dataclass
class CostSnapshot:
    """Cumulative totals at one point in time."""

    dollars: float = 0.0
    answers: int = 0
    pairs_labeled: int = 0
    hits: int = 0

    def minus(self, earlier: "CostSnapshot") -> "CostSnapshot":
        """The delta between this snapshot and an earlier one."""
        return CostSnapshot(
            dollars=self.dollars - earlier.dollars,
            answers=self.answers - earlier.answers,
            pairs_labeled=self.pairs_labeled - earlier.pairs_labeled,
            hits=self.hits - earlier.hits,
        )


class CostTracker:
    """Accumulates crowdsourcing cost, optionally under a budget cap."""

    def __init__(self, price_per_question: float = 0.01,
                 budget: float | None = None) -> None:
        self.price_per_question = price_per_question
        self.budget = budget
        self._dollars = 0.0
        self._answers = 0
        self._pairs_labeled = 0
        self._hits = 0

    @property
    def dollars(self) -> float:
        return self._dollars

    @property
    def answers(self) -> int:
        return self._answers

    @property
    def pairs_labeled(self) -> int:
        return self._pairs_labeled

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def remaining_budget(self) -> float | None:
        if self.budget is None:
            return None
        return max(0.0, self.budget - self._dollars)

    def check_budget(self) -> None:
        """Raise :class:`BudgetExhaustedError` if the budget is spent."""
        if self.budget is not None and self._dollars >= self.budget:
            raise BudgetExhaustedError(self._dollars, self.budget)

    def record_answers(self, n_answers: int) -> None:
        """Record ``n_answers`` paid single-worker answers."""
        self._answers += n_answers
        self._dollars += n_answers * self.price_per_question

    def record_pair(self) -> None:
        """Record that one new distinct pair obtained a crowd label."""
        self._pairs_labeled += 1

    def record_hits(self, n_hits: int) -> None:
        """Record that ``n_hits`` HITs were posted to the platform."""
        self._hits += n_hits

    def snapshot(self) -> CostSnapshot:
        """Capture the current totals (for per-step cost attribution)."""
        return CostSnapshot(
            dollars=self._dollars,
            answers=self._answers,
            pairs_labeled=self._pairs_labeled,
            hits=self._hits,
        )

    def state_dict(self) -> dict[str, Any]:
        """The tracker's counters as a JSON-compatible dict.

        ``budget`` is deliberately excluded: the run-level budget comes
        from the configuration on resume, and phase contexts re-derive
        their temporary clamps (see
        :class:`~repro.core.budgeting.PhaseBudgetManager`).
        """
        return {
            "dollars": self._dollars,
            "answers": self._answers,
            "pairs_labeled": self._pairs_labeled,
            "hits": self._hits,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore counters captured by :meth:`state_dict`."""
        self._dollars = float(state["dollars"])
        self._answers = int(state["answers"])
        self._pairs_labeled = int(state["pairs_labeled"])
        self._hits = int(state["hits"])
