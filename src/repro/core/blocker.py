"""Crowdsourced blocking (Section 4).

The Blocker decides whether |A x B| is too large to match directly; if so
it learns a random forest over a density-aware sample S via crowdsourced
active learning, extracts candidate blocking rules from the forest's
"no"-leaf paths, has the crowd certify the top-k rules' precision, picks a
rule subset greedily by (precision, coverage, tuple cost) with re-ranking
after every pick, and applies the chosen rules over the full Cartesian
product (:func:`repro.exec.apply_rules_sharded`) to produce the umbrella
set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..config import CorleoneConfig
from ..crowd.service import LabelingService
from ..data.pairs import CandidateSet, Pair, PairRows
from ..data.sampling import (
    blocker_sample,
    cartesian_rows,
    cartesian_size,
    weighted_blocker_sample,
)
from ..data.table import Table
from ..features.library import FeatureLibrary
from ..features.vectorize import vectorize_pairs
from ..rules.evaluation import RuleEvaluation, evaluate_rules
from ..rules.extraction import extract_negative_rules
from ..rules.rule import Rule
from ..rules.selection import select_top_k
from .matcher import ActiveLearningMatcher, MatcherResult


@dataclass
class BlockerResult:
    """The Blocker's output: the umbrella set plus full telemetry."""

    triggered: bool
    """False when |A x B| <= t_B and blocking was skipped."""

    candidate_pairs: PairRows
    """The umbrella set: pairs surviving the applied blocking rules, as
    rows of the two tables (all of A x B when blocking was skipped or
    no rule was applied)."""

    cartesian: int
    sample_size: int = 0
    applied_rules: list[Rule] = field(default_factory=list)
    evaluations: list[RuleEvaluation] = field(default_factory=list)
    n_candidate_rules: int = 0
    matcher_result: MatcherResult | None = None
    pairs_labeled: int = 0
    dollars: float = 0.0
    plan_stats: dict | None = None
    """Plan-executor cell accounting (``PlanStats.as_dict()``), when
    rules were applied.  Like ``matcher_result``, this is run-time
    telemetry and is not serialized by ``persistence``."""

    @property
    def umbrella_size(self) -> int:
        return len(self.candidate_pairs)

    @property
    def reduction_ratio(self) -> float:
        """Umbrella size as a fraction of the Cartesian product."""
        if self.cartesian == 0:
            return 0.0
        return self.umbrella_size / self.cartesian


class Blocker:
    """Generates, certifies and applies blocking rules with the crowd."""

    def __init__(self, config: CorleoneConfig, service: LabelingService,
                 rng: np.random.Generator, bus=None,
                 shard_dir=None) -> None:
        self.config = config
        self.service = service
        self.rng = rng
        self.bus = bus
        """Optional engine EventBus for shard-lifecycle/fallback events."""
        self.shard_dir = shard_dir
        """Optional directory for the sharded executor's resume files."""

    def run(self, table_a: Table, table_b: Table, library: FeatureLibrary,
            seed_labels: dict[Pair, bool]) -> BlockerResult:
        """Execute the full Section 4 workflow.

        ``seed_labels`` are the user's four examples; they are injected
        into the label cache as trusted labels and added to the sample.
        """
        total = cartesian_size(table_a, table_b)
        before = self.service.tracker.snapshot()
        self.service.seed(seed_labels)

        if total <= self.config.blocker.t_b:
            # Small product: skip blocking entirely (Restaurants' path).
            return BlockerResult(
                triggered=False,
                candidate_pairs=cartesian_rows(table_a, table_b),
                cartesian=total,
            )

        if self.config.blocker.sampling_strategy == "weighted":
            sample_pairs = weighted_blocker_sample(
                table_a, table_b, self.config.blocker.t_b, self.rng,
                attribute=self.config.blocker.sampling_attribute,
                seed_pairs=seed_labels.keys(),
            )
        else:
            sample_pairs = blocker_sample(
                table_a, table_b, self.config.blocker.t_b, self.rng,
                seed_pairs=seed_labels.keys(),
            )
        sample = vectorize_pairs(table_a, table_b, sample_pairs, library)

        # The blocking forest grows to pure leaves (min_samples_leaf=1):
        # rule extraction wants sharp, specific paths, and the crowd
        # certification step already rejects imprecise rules, so the
        # matcher's noise regularization would only blunt the rules.
        blocking_config = self.config.replace(
            forest=dataclasses.replace(self.config.forest,
                                       min_samples_leaf=1)
        )
        matcher = ActiveLearningMatcher(blocking_config, self.service,
                                        self.rng)
        matcher_result = matcher.train(sample, seed_labels)

        candidates = extract_negative_rules(
            matcher_result.forest, library.names, library.costs
        )
        known = np.full(len(sample), -1, dtype=np.int8)
        known[list(matcher_result.labeled_rows)] = list(
            matcher_result.labeled_rows.values())
        ranked = select_top_k(
            candidates, sample.features, known,
            self.config.blocker.top_k_rules,
        )
        evaluations = evaluate_rules(
            [r.rule for r in ranked], sample, self.service, self.rng,
            batch_size=self.config.blocker.eval_batch_size,
            min_precision=self.config.blocker.min_precision,
            max_error_margin=self.config.blocker.max_error_margin,
            confidence=self.config.blocker.confidence,
            max_labels_per_rule=self.config.blocker.max_labels_per_rule,
        )
        accepted = [ev.rule for ev in evaluations if ev.accepted]

        chosen = self.select_rule_subset(accepted, sample, total)
        stats = None
        if chosen:
            from ..plan import PlanStats  # repro.plan imports this module

            stats = PlanStats()
        survivors = umbrella_pairs(table_a, table_b, chosen, library,
                                   self.config, shard_dir=self.shard_dir,
                                   bus=self.bus, stats=stats)

        spent = self.service.tracker.snapshot().minus(before)
        return BlockerResult(
            triggered=True,
            candidate_pairs=survivors,
            cartesian=total,
            sample_size=len(sample_pairs),
            applied_rules=chosen,
            evaluations=evaluations,
            n_candidate_rules=len(candidates),
            matcher_result=matcher_result,
            pairs_labeled=spent.pairs_labeled,
            dollars=spent.dollars,
            plan_stats=None if stats is None else stats.as_dict(),
        )

    def select_rule_subset(self, rules: list[Rule], sample: CandidateSet,
                           cartesian: int) -> list[Rule]:
        """Greedy subset selection with re-ranking (Section 4.3).

        Rules are repeatedly ranked on the *current* reduced sample by
        precision upper bound (desc), coverage (desc) and tuple cost
        (asc); the best is applied to the sample and the rest re-ranked,
        until the sample has shrunk to |S| * t_B / |A x B| or rules run
        out.  A rule covers a row or not whatever else is active, so each
        rule's coverage of the whole sample is computed once and sliced
        to the active rows every round.
        """
        if not rules:
            return []
        target = len(sample) * (self.config.blocker.t_b / cartesian)
        # Sample rows the crowd has labelled a match: what a negative
        # rule covering them gets wrong.
        positive = self.service.known_rows(sample) == 1
        coverages = {rule: rule.applies(sample.features) for rule in rules}

        remaining = list(rules)
        chosen: list[Rule] = []
        active_rows = np.arange(len(sample))

        while remaining and active_rows.size > target:
            scored = []
            active_positive = positive[active_rows]
            for rule in remaining:
                mask = coverages[rule][active_rows]
                coverage = int(mask.sum())
                if coverage == 0:
                    continue
                contrary = np.count_nonzero(mask & active_positive)
                precision = (coverage - contrary) / coverage
                scored.append((precision, coverage, -rule.cost, rule, mask))
            if not scored:
                break
            scored.sort(key=lambda item: item[:3], reverse=True)
            _, _, _, best_rule, best_mask = scored[0]
            chosen.append(best_rule)
            remaining.remove(best_rule)
            active_rows = active_rows[~best_mask]
        return chosen


def umbrella_pairs(table_a: Table, table_b: Table, rules: list[Rule],
                   library: FeatureLibrary, config: CorleoneConfig,
                   shard_dir=None, bus=None, stats=None) -> PairRows:
    """The umbrella set ``rules`` leave of A x B, in blocking order.

    With no rule that is all of A x B.  Otherwise the sharded plan
    executor (:func:`repro.exec.apply_rules_sharded`) applies them,
    its pool sized by ``blocker.n_workers`` (1 runs every shard
    in-process) and ``blocker.shard_size``; the survivors are the same
    either way (``tests/blocking_oracle.py`` pins them).  ``shard_dir``,
    when the run is durable, makes completed shards survive a kill: a
    later call on the same inputs loads the shard files that verify and
    recomputes the rest.  ``bus`` receives the shard events and
    ``stats`` the plan's cell accounting.

    :meth:`Blocker.run` calls this with the rules it chose, and a
    resumed run with the rules its checkpoint logged, so both hold the
    same set.
    """
    if not rules:
        return cartesian_rows(table_a, table_b)
    from ..exec import apply_rules_sharded  # repro.exec imports this module

    return apply_rules_sharded(
        table_a, table_b, rules, library,
        n_workers=config.blocker.n_workers,
        shard_size=config.blocker.shard_size,
        shard_dir=shard_dir, bus=bus, stats=stats,
    )


def apply_rules_streaming(table_a: Table, table_b: Table,
                          rules: list[Rule],
                          library: FeatureLibrary) -> PairRows:
    """:func:`repro.exec.apply_rules_sharded` with one worker.

    Kept under this name because ``benchmarks/e2e/tracing.py`` wraps it
    by name and the benchmark's self-test fails on a missing target.
    The parity tests' full-matrix oracle is ``tests/blocking_oracle.py``.
    """
    from ..exec import apply_rules_sharded  # repro.exec imports this module

    return apply_rules_sharded(table_a, table_b, rules, library)
