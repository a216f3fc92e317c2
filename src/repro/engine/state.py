"""The serializable state of one hands-off run.

:class:`RunState` is the *only* mutable object the stages operate on,
and everything in it (beyond the input tables, which are persisted once
per run directory, and the candidate set, which a resumed run rebuilds
from the tables and the blocker's logged rules) round-trips through
plain JSON via :meth:`RunState.to_dict` / :meth:`RunState.from_dict`.
That property is what makes checkpointed runs resumable to a
bit-identical result.

The state stores each fact once.  The loop of Figure 1 is fully
described by its iteration records, so the working set, the ensemble
prediction, the certified reduction rules and the kept result are read
off them rather than stored a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.blocker import BlockerResult
from ..core.matcher import MatcherTrainState
from ..core.results import (
    CorleoneResult,
    IterationRecord,
    certified_evaluations,
)
from ..data.pairs import CandidateSet, Pair
from ..exceptions import DataError
from ..rules.evaluation import RuleEvaluation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.cost import CostTracker
    from ..data.table import Table
    from ..features.library import FeatureLibrary

FIRST_STAGE = "block"
"""Name of the stage every fresh run starts in."""


@dataclass
class RunState:
    """Everything a hands-off run has computed so far.

    The candidate set is referenced, not duplicated: locator results
    store row indices, and no checkpoint stores the set itself — it is
    what the blocker's applied rules leave of A x B, vectorized, and a
    resumed run rebuilds it (:func:`repro.engine.stages.
    rebuild_candidates`).
    """

    mode: str
    """"full", "one_iteration" or "blocker_matcher"."""

    seed_labels: dict[Pair, bool]
    """The user's trusted seed examples."""

    next_stage: str | None = FIRST_STAGE
    """Name of the stage to run next; None when the run is finished."""

    iteration: int = 0
    """1-based index of the current matching iteration."""

    blocker: BlockerResult | None = None
    candidates: CandidateSet | None = None
    iterations: list[IterationRecord] = field(default_factory=list)
    best_iteration: int | None = None
    """Index into ``iterations`` of the result the run keeps."""

    stop_reason: str = "max_iterations"
    matcher_state: MatcherTrainState | None = None
    """In-progress matcher training (set between mid-stage checkpoints,
    None at stage boundaries)."""

    def __post_init__(self) -> None:
        """Initialize the transient (non-serialized) input references."""
        self.table_a: "Table | None" = None
        self.table_b: "Table | None" = None
        self.library: "FeatureLibrary | None" = None

    def attach(self, table_a: "Table", table_b: "Table",
               library: "FeatureLibrary") -> None:
        """Attach the run inputs (transient; persisted via ``run.json``)."""
        self.table_a = table_a
        self.table_b = table_b
        self.library = library

    # ------------------------------------------------------------------
    # Facts read off the iteration records
    # ------------------------------------------------------------------

    def _replay(self) -> tuple[np.ndarray, np.ndarray]:
        """(ensemble over C, rows of C in the current working set).

        Each matcher trained on the working set its predecessor's
        locator carved out, so replaying the records in order narrows
        C to the current working set while overlaying every matcher's
        predictions on the rows it worked on.
        """
        rows = np.arange(len(self.candidates))
        ensemble = np.zeros(len(self.candidates), dtype=bool)
        for record in self.iterations:
            ensemble[rows] = record.matcher.predictions
            if record.locator is not None and record.locator.should_continue:
                rows = rows[record.locator.difficult_rows]
        return ensemble, rows

    def working_set(self) -> CandidateSet:
        """The current working candidate set C' (a view by rows)."""
        rows = self._replay()[1]
        if len(rows) == len(self.candidates):
            return self.candidates
        return self.candidates.subset(rows)

    def ensemble(self) -> np.ndarray:
        """The ensemble prediction over C (Section 7, step 3).

        Each pair keeps the prediction of the matcher of the iteration
        in which it left the difficult set.
        """
        return self._replay()[0]

    def certified(self) -> list[RuleEvaluation]:
        """Reduction-rule evaluations accepted by earlier estimation
        rounds; later rounds re-apply them for free."""
        return certified_evaluations(self.iterations)

    @property
    def kept(self) -> IterationRecord | None:
        """The iteration whose output the run keeps, if any yet."""
        if self.best_iteration is None:
            return None
        return self.iterations[self.best_iteration]

    def to_result(self, tracker: "CostTracker") -> CorleoneResult:
        """Package a *finished* run (``next_stage is None``) as a result.

        Requires the blocking stage to have run (``blocker`` and
        ``candidates`` set); partial budget-exhausted runs are packaged
        by the pipeline's own fallback path instead.
        """
        assert self.blocker is not None and self.candidates is not None
        kept = self.kept
        return CorleoneResult(
            predicted_matches=(frozenset() if kept is None
                               else kept.predicted_pairs),
            candidates=self.candidates,
            blocker=self.blocker,
            iterations=self.iterations,
            estimate=None if kept is None else kept.estimate,
            cost=tracker.snapshot(),
            stop_reason=self.stop_reason,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible snapshot of the run state.

        The candidate set itself is *not* included: the blocker
        result's applied rules and the run's tables determine it.
        """
        from .. import persistence as p

        return {
            **self.scalars_to_dict(),
            "blocker": (None if self.blocker is None
                        else p.blocker_result_to_dict(self.blocker)),
            "iterations": [
                p.iteration_record_to_dict(
                    record,
                    certified=certified_evaluations(self.iterations[:k]))
                for k, record in enumerate(self.iterations)
            ],
            "matcher_state": (
                None if self.matcher_state is None
                else p.matcher_train_state_to_dict(self.matcher_state)
            ),
        }

    def scalars_to_dict(self) -> dict[str, Any]:
        """The small fields of :meth:`to_dict`: everything but the
        blocker result, the iteration records and the matcher state,
        which the checkpoint log writes only when they change."""
        return {
            "mode": self.mode,
            "seed_labels": [
                [pair.a_id, pair.b_id, bool(label)]
                for pair, label in self.seed_labels.items()
            ],
            "next_stage": self.next_stage,
            "iteration": self.iteration,
            "best_iteration": self.best_iteration,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any],
                  candidates: CandidateSet | None) -> "RunState":
        """Rebuild a state saved with :meth:`to_dict`.

        ``candidates`` is the candidate set rebuilt from the blocker
        record's applied rules (:func:`repro.engine.stages.
        rebuild_candidates`; None when the run was checkpointed before
        blocking produced one).  A document missing a key raises a
        :class:`~repro.exceptions.DataError` naming it.
        """
        from .. import persistence as p

        try:
            blocker = data["blocker"]
            if blocker is not None and candidates is None:
                raise DataError("malformed run state: no candidate set")
            return cls(
                mode=data["mode"],
                seed_labels={
                    Pair(str(a), str(b)): bool(label)
                    for a, b, label in data["seed_labels"]
                },
                next_stage=data["next_stage"],
                iteration=data["iteration"],
                blocker=(None if blocker is None
                         else p.blocker_result_from_dict(
                             blocker, candidates.pairs)),
                candidates=candidates,
                iterations=_iteration_records(data["iterations"]),
                best_iteration=data["best_iteration"],
                stop_reason=data["stop_reason"],
                matcher_state=(
                    None if data["matcher_state"] is None
                    else p.matcher_train_state_from_dict(
                        data["matcher_state"])
                ),
            )
        except (KeyError, TypeError) as error:
            raise DataError(f"malformed run state: {error}") from None


def _iteration_records(
        documents: list[dict[str, Any]]) -> list[IterationRecord]:
    """Rebuild iteration records in order: each record's estimate
    refers to the evaluations the earlier ones certified."""
    from .. import persistence as p

    records: list[IterationRecord] = []
    for document in documents:
        records.append(p.iteration_record_from_dict(
            document, certified_evaluations(records)))
    return records
