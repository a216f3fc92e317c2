"""The full-matrix blocking evaluator the compiled plan replaced: the oracle.

``repro.exec.apply_rules_sharded`` runs every shard through a compiled
``repro.plan.PlanExecutor``, which computes a feature column only at
the rows no earlier rule or predicate has decided.  This module keeps
the evaluation it must reproduce: every needed feature of every pair,
in ``iter_cartesian`` order and fixed-size chunks, then every rule over
the full matrix, with the missing-value contract (NaN never blocks)
enforced by an explicit guard instead of left to the predicate kernels.
The parity tests and ``benchmarks/collect_results.py --shard/--plan``
require the production path to return this module's survivor list
exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.data.pairs import Pair
from repro.data.sampling import iter_cartesian
from repro.data.table import Table
from repro.features.library import FeatureLibrary
from repro.rules.rule import Rule

CHUNK = 8192
"""Pairs per chunk of the oracle's stream."""


class ChunkEvaluator:
    """Evaluates blocking rules over aligned chunks of record pairs.

    Turns a chunk of pairs, given as two aligned arrays of table row
    positions, into a boolean *blocked* mask, computing only the
    features the rules reference.

    Missing-value semantics (the blocking NaN contract): a missing
    attribute value surfaces as ``np.nan`` in the feature matrix, and a
    predicate comparison against NaN evaluates **falsy** unless the
    predicate was extracted with ``nan_satisfies`` — so *NaN never
    blocks*: a pair with missing evidence survives to the matcher
    rather than being silently discarded.
    """

    def __init__(self, table_a: Table, table_b: Table,
                 rules: list[Rule], library: FeatureLibrary) -> None:
        self.table_a = table_a
        self.table_b = table_b
        self.rules = rules
        self.needed = sorted({
            index for rule in rules for index in rule.feature_indices
        })
        self.needed_features = [library.features[i] for i in self.needed]
        self.width = len(library)
        # A rule whose predicates ALL tolerate NaN can legitimately
        # block a fully-missing row; any other rule cannot, and the
        # guard below makes that invariant explicit.
        self.nan_can_block = any(
            all(p.nan_satisfies for p in rule.predicates)
            for rule in rules
        )

    def blocked_mask(self, rows_a: np.ndarray,
                     rows_b: np.ndarray) -> np.ndarray:
        """Boolean mask: True where some rule blocks the pair of row
        ``rows_a[i]`` of A and row ``rows_b[i]`` of B."""
        # Fill only the needed columns of a full-width matrix so
        # predicate indices line up; the rest stays NaN and is never
        # read (no predicate references an unfilled column).
        matrix = np.full((rows_a.size, self.width), np.nan)
        for index, feature in zip(self.needed, self.needed_features):
            matrix[:, index] = feature.batch_value(
                self.table_a, rows_a, self.table_b, rows_b
            )
        blocked = np.zeros(rows_a.size, dtype=bool)
        for rule in self.rules:
            blocked |= rule.applies(matrix)
            if blocked.all():
                break
        if not self.nan_can_block and self.needed and blocked.any():
            # NaN-never-blocks guard: a pair whose needed features are
            # all missing carries no blocking evidence, so it must
            # survive.  Predicate.evaluate already returns False on NaN
            # (absent nan_satisfies), making this a no-op the parity
            # tests hold the production path to.
            all_missing = np.isnan(matrix[:, self.needed]).all(axis=1)
            blocked &= ~all_missing
        return blocked

    def survivors(self, pairs: list[Pair]) -> list[Pair]:
        """The subset of ``pairs`` no rule blocks, in input order."""
        if not pairs:
            return []
        blocked = self.blocked_mask(
            self.table_a.positions(pair.a_id for pair in pairs),
            self.table_b.positions(pair.b_id for pair in pairs))
        return [
            pair for pair, is_blocked in zip(pairs, blocked)
            if not is_blocked
        ]


def apply_rules_streaming(table_a: Table, table_b: Table,
                          rules: list[Rule], library: FeatureLibrary,
                          chunk_size: int = CHUNK) -> list[Pair]:
    """Apply blocking rules over A x B in chunks; return the survivors.

    Every needed feature of every pair through the full-matrix
    :class:`ChunkEvaluator`, in ``iter_cartesian`` order.
    """
    evaluator = ChunkEvaluator(table_a, table_b, rules, library)
    pairs = iter_cartesian(table_a, table_b)
    survivors: list[Pair] = []
    while chunk := list(itertools.islice(pairs, chunk_size)):
        survivors.extend(evaluator.survivors(chunk))
    return survivors
