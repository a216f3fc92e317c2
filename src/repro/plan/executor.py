"""Fused evaluate-then-filter execution of compiled blocking plans.

:class:`PlanExecutor` is the evaluator the sharded executor
(:func:`repro.exec.apply_rules_sharded`) runs in every shard.  Instead
of materializing every needed feature for every pair of a chunk, it
walks the compiled :class:`~repro.plan.compiler.BlockingPlan` node by
node, keeping an *active row set* per node and computing each feature
column lazily, only at rows that are still undecided:

* a pair blocked by an earlier (cheaper) rule never reaches a later
  rule's kernels at all;
* within a rule, a pair failing an earlier (cheaper) predicate never
  reaches the later predicates' columns;
* a column computed once — for any subset of rows — is remembered, so
  overlapping rules share it instead of recomputing.

Bit-exactness: all batch kernels are element-wise per pair and blocking
is a monotone OR of AND-rules, so the survivor set equals the
full-matrix evaluation's (every needed feature of every pair, every
rule over the whole matrix) for any rule order and any chunk geometry.
Missing values never block: ``Predicate.evaluate_column`` returns False
on NaN unless the predicate was extracted with ``nan_satisfies``, so a
pair whose needed features are all missing survives unless every
predicate of some rule tolerates NaN.  ``tests/blocking_oracle.py``
keeps the full-matrix evaluator, with an explicit guard for that
contract, as the parity tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.pairs import PairRows
from ..data.table import Table
from ..features.library import Feature, FeatureLibrary
from ..obs.profiling import profile_section
from ..rules.rule import Rule
from .compiler import BlockingPlan, compile_blocking_plan

_COLUMN_ELEMENTS = 1 << 17
"""Element budget of one chunk's plan columns.  The sharded executor
streams a shard in chunks of :attr:`PlanExecutor.chunk_pairs` = this
budget over the plan's needed width, so the float64 columns and the
have-masks :meth:`PlanExecutor.blocked_mask` keeps for a chunk take at
most about 9 bytes times this many, whatever the rule set (each column
is dropped after the last plan node that reads it).  Fewer, longer
chunks pay each kernel's fixed per-call cost and vocabulary-sized work
fewer times."""


@dataclass
class PlanStats:
    """Deterministic work accounting for one plan-executed blocking run.

    Feature-*cell* counts (one cell = one feature value for one pair)
    are a pure function of tables, rules and plan order, so they are
    safe to fold into the checkpointed metrics registry — unlike the
    prepared-array build counts, which depend on process-lifetime cache
    warmth and stay out of it (see
    :func:`repro.features.batch.cache_stats`).
    """

    pairs: int = 0
    """Pairs scanned through the plan."""
    cells_computed: int = 0
    """Feature cells actually evaluated by a kernel."""
    needed_width: int = 0
    """Distinct feature columns the plan references."""

    @property
    def cells_budget(self) -> int:
        """Cells a full-matrix evaluation would have computed."""
        return self.pairs * self.needed_width

    @property
    def cells_pruned(self) -> int:
        """Cells the fused evaluate-then-filter never had to compute."""
        return max(0, self.cells_budget - self.cells_computed)

    def merge_counts(self, pairs: int, cells_computed: int) -> None:
        """Fold one shard's (pairs, computed-cells) contribution in."""
        self.pairs += int(pairs)
        self.cells_computed += int(cells_computed)

    def as_dict(self) -> dict[str, int]:
        """JSON-compatible snapshot of the accounting figures."""
        return {
            "pairs": self.pairs,
            "needed_width": self.needed_width,
            "cells_computed": self.cells_computed,
            "cells_pruned": self.cells_pruned,
        }


class PlanExecutor:
    """Runs a compiled blocking plan over chunks of pairs.

    Construction compiles the plan from the rule set and cost model and
    projects the library onto the features the plan reads:
    ``needed_features`` maps each needed column index to its feature,
    and the sharded executor's fork prewarm builds their prepared
    arrays before any shard runs.
    """

    def __init__(self, table_a: Table, table_b: Table,
                 rules: list[Rule], library: FeatureLibrary) -> None:
        self.table_a = table_a
        self.table_b = table_b
        self.plan: BlockingPlan = compile_blocking_plan(rules, library)
        # Only the features the rules reference are computed — the
        # per-pair cost the greedy selector optimized for.
        self.needed_features: dict[int, Feature] = {
            index: library.features[index] for index in self.plan.needed
        }
        last_reader = {step.predicate.feature_index: position
                       for position, node in enumerate(self.plan.nodes)
                       for step in node.steps}
        self._released: list[list[int]] = [[] for _ in self.plan.nodes]
        """Per plan node: the columns no later node reads, which
        :meth:`blocked_mask` drops once the node has run."""
        for index, position in last_reader.items():
            self._released[position].append(index)
        self.cells_computed = 0
        """Feature cells this executor's kernels have evaluated."""

    @property
    def chunk_pairs(self) -> int:
        """Pairs per :meth:`blocked_mask` call: the column budget
        (:data:`_COLUMN_ELEMENTS`) over the needed width."""
        return max(1, _COLUMN_ELEMENTS // max(1, len(self.needed_features)))

    def blocked_mask(self, rows_a: np.ndarray,
                     rows_b: np.ndarray) -> np.ndarray:
        """Boolean mask: True where some rule blocks the pair of row
        ``rows_a[i]`` of A and row ``rows_b[i]`` of B."""
        blocked = np.zeros(rows_a.size, dtype=bool)
        columns: dict[int, np.ndarray] = {}
        have: dict[int, np.ndarray] = {}
        for node, released in zip(self.plan.nodes, self._released):
            rows = np.flatnonzero(~blocked)
            if rows.size == 0:
                break
            # Per-node sections are parameterized by plan position on
            # purpose: the plan shape varies per rule set, so the
            # closed SECTION_NAMES registry cannot enumerate them.
            # corlint: disable-next-line=CL017 — computed plan.node.N section
            with profile_section(f"plan.node.{node.position}"):
                for step in node.steps:
                    if rows.size == 0:
                        break
                    column = self._column(
                        step.predicate.feature_index, rows,
                        rows_a, rows_b, columns, have,
                    )
                    rows = rows[step.predicate.evaluate_column(column[rows])]
            if rows.size:
                blocked[rows] = True
            for index in released:
                columns.pop(index, None)
                have.pop(index, None)
        return blocked

    def _column(self, index: int, rows: np.ndarray, rows_a: np.ndarray,
                rows_b: np.ndarray, columns: dict[int, np.ndarray],
                have: dict[int, np.ndarray]) -> np.ndarray:
        """The feature column for ``index``, filled at least at ``rows``.

        Lazily allocated full-length so earlier fills are reusable;
        only rows without a value yet are handed to the kernel.  The
        kernels are element-wise per pair, so subset evaluation is
        bit-identical to the full pass.
        """
        column = columns.get(index)
        if column is None:
            column = np.full(rows_a.size, np.nan)
            columns[index] = column
            have[index] = np.zeros(rows_a.size, dtype=bool)
        pending = rows[~have[index][rows]]
        if pending.size:
            feature = self.needed_features[index]
            column[pending] = feature.batch_value(
                self.table_a, rows_a[pending],
                self.table_b, rows_b[pending],
            )
            have[index][pending] = True
            self.cells_computed += int(pending.size)
        return column


def apply_rules_plan(table_a: Table, table_b: Table, rules: list[Rule],
                     library: FeatureLibrary,
                     stats: PlanStats | None = None) -> PairRows:
    """:func:`repro.exec.apply_rules_sharded` with one worker.

    Kept under this name because ``benchmarks/e2e/tracing.py`` wraps it
    by name and the benchmark's self-test fails on a missing target.
    """
    from ..exec import apply_rules_sharded  # repro.exec imports this module

    return apply_rules_sharded(table_a, table_b, rules, library,
                               stats=stats)
