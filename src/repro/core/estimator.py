"""Crowdsourced accuracy estimation (Section 6).

Naive estimation of precision/recall by random sampling needs tens of
thousands of labels when matches are rare (Section 6.1's skew problem).
Corleone instead interleaves *probing* (label a small uniform sample) with
*reduction* (apply crowd-certified negative rules, extracted from the
matcher's own forest, to strip away sure negatives and concentrate the
positives), re-optimizing after every step, until the precision and
recall margins of Eqs. 2-3 fall under epsilon_max.

Statistical notes on the implementation:

* Estimation statistics are computed only over the *uniformly sampled*
  rows — labels gathered during active learning are biased toward hard
  examples and are deliberately excluded (they still serve for free via
  the cache when the uniform sampler happens to draw them).
* A uniform sample of C restricted to the survivors of a deterministic
  reduction rule is still a uniform sample of the reduced set, so probe
  labels carry over across reductions.
* The paper assumes certified rules are (near-)100% precise, so that
  reduction removes no actual positives and recall transfers from the
  reduced set to C unchanged.  "Precise" is not "perfect", and the
  residue matters when matches are rare — so instead of assuming, the
  estimator *audits* the removed region with two small stratified
  samples (removed predicted-positives and predicted-negatives, capped
  at ``removed_audit_cap`` labels each) and folds the measured match
  rates back into the precision numerator and recall denominator.
* Rules certified by earlier estimation rounds are accepted for free
  (the paper notes rules are reused across steps), which keeps later
  iterations from re-paying evaluation cost.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..config import CorleoneConfig
from ..crowd.service import LabelingService
from ..exceptions import BudgetExhaustedError
from ..data.pairs import CandidateSet
from ..forest.forest import RandomForest
from ..rules.evaluation import RuleEvaluation, evaluate_rules
from ..rules.extraction import extract_negative_rules
from ..rules.rule import Rule
from ..rules.selection import select_top_k
from ..rules.statistics import fpc_error_margin, required_sample_size


@dataclass
class AccuracyEstimate:
    """The estimator's verdict on a matcher's output over C."""

    precision: float
    recall: float
    eps_precision: float
    eps_recall: float
    n_labeled: int
    """Distinct pairs labelled by the crowd during estimation."""
    n_probes: int
    density: float
    """Estimated positive density of the (reduced) candidate set."""
    converged: bool
    """True when both margins reached epsilon_max."""
    applied_rules: list[Rule] = field(default_factory=list)
    rule_evaluations: list[RuleEvaluation] = field(default_factory=list)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


class AccuracyEstimator:
    """Estimates P/R of a prediction vector over a candidate set."""

    def __init__(self, config: CorleoneConfig, service: LabelingService,
                 rng: np.random.Generator) -> None:
        self.config = config
        self.service = service
        self.rng = rng

    def estimate(self, candidates: CandidateSet, predictions: np.ndarray,
                 forest: RandomForest | None = None,
                 certified: Sequence[RuleEvaluation] = ()) -> AccuracyEstimate:
        """Run the probe-eval-reduce loop until the margins are met.

        ``predictions`` is the matcher's boolean output aligned to
        ``candidates``.  ``forest`` supplies candidate reduction rules;
        without it the estimator degenerates to plain incremental random
        sampling (the Section 6.1 baseline).  ``certified`` carries rule
        evaluations accepted by earlier estimation rounds; their rules
        are applied immediately at zero crowd cost.
        """
        cfg = self.config.estimator
        predictions = np.asarray(predictions, dtype=bool)
        before = self.service.tracker.snapshot()

        # The rows still in the reduced set; the rest of C is the
        # removed region.
        active = np.ones(len(candidates), dtype=bool)
        # The crowd label of every row in the estimator's uniform
        # samples, -1 elsewhere: the probes of the active set and the
        # audit of the removed region (see _audit_removed).
        sampled = np.full(len(candidates), -1, dtype=np.int8)
        applied: list[Rule] = []
        all_evaluations: list[RuleEvaluation] = []
        rules = self._candidate_rules(candidates, forest)

        # Re-apply rules certified by earlier rounds for free.
        for evaluation in certified:
            if evaluation.accepted and self._remove(
                    candidates, evaluation.rule, active, sampled):
                applied.append(evaluation.rule)
        rules = [
            rule for rule in rules
            if rule not in {ev.rule for ev in certified}
        ]

        estimate = self._statistics(predictions, active, sampled)
        probes = 0
        while probes < cfg.max_probes:
            # --- Probe: label a fresh uniform batch of the active set.
            pool = np.flatnonzero(active & (sampled < 0))
            try:
                if pool.size:
                    take = min(cfg.probe_size, pool.size)
                    chosen = self.rng.choice(pool.size, size=take,
                                             replace=False)
                    self._label(candidates, pool[chosen], sampled)
                    probes += 1
                # --- Audit the removed region (see _audit_removed).
                self._audit_removed(candidates, predictions, active,
                                    sampled)
            except BudgetExhaustedError:
                # Out of money: report the best estimate we have.
                break

            estimate = self._statistics(predictions, active, sampled)
            if (estimate.eps_precision <= cfg.max_error_margin
                    and estimate.eps_recall <= cfg.max_error_margin):
                estimate.converged = True
                break
            if not pool.size and not rules:
                break  # every active row labelled, nothing left to try

            # --- Re-optimize: pick the cheapest option (possibly no rules).
            # One feature-major gather of the active rows serves both
            # the option search and the evaluation of its rules; while
            # every row is active, C itself does, uncopied.
            option: list[Rule] = []
            if rules:
                active_cs = (candidates if active.all()
                             else candidates.subset(np.flatnonzero(active)))
                option = self._select_option(active_cs, estimate, rules)
            if not option:
                if not pool.size:
                    break  # nothing left to label and no rule worth it
                continue  # cheapest plan is to keep sampling

            # --- Evaluate the option's rules and apply the precise ones.
            evaluations = evaluate_rules(
                option, active_cs, self.service, self.rng,
                batch_size=self.config.blocker.eval_batch_size,
                min_precision=self.config.blocker.min_precision,
                max_error_margin=cfg.max_error_margin,
                confidence=cfg.confidence,
                max_labels_per_rule=self.config.blocker.max_labels_per_rule,
            )
            all_evaluations.extend(evaluations)
            rules = [rule for rule in rules if rule not in set(option)]
            for evaluation in evaluations:
                if evaluation.accepted and self._remove(
                        candidates, evaluation.rule, active, sampled):
                    applied.append(evaluation.rule)

        estimate.applied_rules = applied
        estimate.rule_evaluations = all_evaluations
        estimate.n_labeled = (
            self.service.tracker.snapshot().minus(before).pairs_labeled
        )
        estimate.n_probes = probes
        return estimate

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _candidate_rules(self, candidates: CandidateSet,
                         forest: RandomForest | None) -> list[Rule]:
        """Top-k candidate reduction rules from the matcher's forest."""
        if forest is None:
            return []
        known = self.service.known_rows(candidates)
        negative = extract_negative_rules(
            forest, candidates.feature_names
        )
        ranked = select_top_k(
            negative, candidates.features, known,
            self.config.estimator.top_k_rules,
        )
        return [r.rule for r in ranked]

    def _label(self, candidates: CandidateSet, rows: np.ndarray,
               sampled: np.ndarray) -> None:
        """Label ``rows`` through the service (cache hits are free) and
        record the labels in ``sampled``."""
        pairs = [candidates.pairs[row] for row in rows]
        labels = self.service.label_all(pairs)
        sampled[rows] = [labels[pair] for pair in pairs]

    def _remove(self, candidates: CandidateSet, rule: Rule,
                active: np.ndarray, sampled: np.ndarray) -> bool:
        """Move the active rows ``rule`` covers to the removed region.

        Returns False when the rule covers no active row.  A moved row
        keeps its probe label, and any label the cache holds for it
        joins the removed-region audit for free: rule certification
        labelled dozens of rows per rule inside the very region the rule
        then removed, drawn uniformly from its coverage, so they are
        low-bias audit evidence.  (Active-learning labels also land
        here and skew toward boundary positives; that *overstates*
        removed matches, erring on the conservative side for recall,
        which beats a sparse audit that sees zero positives and reports
        recall = 1.)  Probes and rule evaluation only ever label active
        rows, so this one harvest, as a row leaves, sees every cached
        label the row will have until the audit labels it.
        """
        removing = rule.applies(candidates.features) & active
        if not removing.any():
            return False
        active &= ~removing
        rows = np.flatnonzero(removing & (sampled < 0))
        sampled[rows] = self.service.known_rows(candidates)[rows]
        return True

    def _audit_removed(self, candidates: CandidateSet,
                       predictions: np.ndarray, active: np.ndarray,
                       sampled: np.ndarray) -> None:
        """Label small stratified samples of the removed region.

        Reduction rules are certified precise, but "precise" is not
        "perfect": removed rows can hide actual positives that distort
        precision (removed predicted-positives) and recall (removed
        matches leave the denominator).  Rather than assuming anything,
        we *measure* both strata with small uniform samples — removed
        predicted-positives and removed predicted-negatives — topped up
        to ``removed_audit_cap`` labels each, counting the labels
        harvested by :meth:`_remove`.
        """
        cap = self.config.estimator.removed_audit_cap
        for stratum in (~active & predictions, ~active & ~predictions):
            have = int(np.count_nonzero(stratum & (sampled >= 0)))
            want = min(cap, int(np.count_nonzero(stratum))) - have
            if want <= 0:
                continue
            fresh = np.flatnonzero(stratum & (sampled < 0))
            chosen = self.rng.choice(fresh.size, size=want, replace=False)
            self._label(candidates, fresh[chosen], sampled)

    def _statistics(self, predictions: np.ndarray, active: np.ndarray,
                    sampled: np.ndarray) -> AccuracyEstimate:
        """P/R and margins over all of C.

        The core statistics come from the uniform sample of the active
        set; the audited removed region contributes measured corrections
        (see :meth:`_audit_removed`) so that the reported estimate
        refers to the full candidate set, not just the survivors.
        """
        cfg = self.config.estimator
        labelled = sampled >= 0
        positive = sampled == 1
        probed = active & labelled
        m = int(np.count_nonzero(active))
        n = int(np.count_nonzero(probed))

        npp_star = int(np.count_nonzero(predictions & active))  # exact
        if n == 0 or m == 0:
            return AccuracyEstimate(
                precision=0.0, recall=0.0, eps_precision=1.0,
                eps_recall=1.0, n_labeled=0, n_probes=0, density=0.0,
                converged=False,
            )

        n_pp = int(np.count_nonzero(probed & predictions))
        n_ap = int(np.count_nonzero(probed & positive))
        n_tp = int(np.count_nonzero(probed & predictions & positive))
        density = n_ap / n
        nap_star = max(n_ap, round(density * m))

        if n_pp > 0:
            p_active = n_tp / n_pp
            eps_p = fpc_error_margin(
                p_active, n_pp, max(npp_star, n_pp), cfg.confidence
            )
        else:
            # No predicted positives sampled yet: precision unknown.
            p_active, eps_p = 0.0, 0.0 if npp_star == 0 else 1.0

        if n_ap > 0:
            recall_active = n_tp / n_ap
            eps_r = fpc_error_margin(recall_active, n_ap, nap_star,
                                     cfg.confidence)
        else:
            # No actual positives found yet: recall unknown (unless the
            # density really is zero, which the margin reflects).
            recall_active, eps_r = 0.0, 1.0

        # Transfer to all of C using the audited removed region: each
        # stratum's audited positive rate is extrapolated to the stratum
        # size.  Removed predicted-positives that are actual positives
        # remain true positives of the matcher (removal only affects
        # estimation bookkeeping, not predictions).
        def stratum_positives(stratum: np.ndarray) -> float:
            audited = int(np.count_nonzero(stratum & labelled))
            if audited == 0:
                return 0.0
            return (int(np.count_nonzero(stratum & positive)) / audited
                    * int(np.count_nonzero(stratum)))

        removed_pp = ~active & predictions
        tp_removed = stratum_positives(removed_pp)
        ap_removed = tp_removed + stratum_positives(~active & ~predictions)
        tp_total = p_active * npp_star + tp_removed
        pp_total = npp_star + int(np.count_nonzero(removed_pp))
        precision = min(1.0, tp_total / pp_total) if pp_total else 0.0
        ap_total = nap_star + ap_removed
        recall = (
            min(1.0, (recall_active * nap_star + tp_removed) / ap_total)
            if ap_total else 0.0
        )

        return AccuracyEstimate(
            precision=precision, recall=recall,
            eps_precision=eps_p, eps_recall=eps_r,
            n_labeled=0, n_probes=0, density=density, converged=False,
        )

    def _select_option(self, active: CandidateSet,
                       estimate: AccuracyEstimate,
                       rules: list[Rule]) -> list[Rule]:
        """Pick the cheapest option: a (possibly empty) set of rules.

        ``active`` is the reduced set (the active rows of C).  The paper
        enumerates all 2^n subsets conceptually; we score the
        cost-effective prefix chain (rules ordered by coverage per unit
        evaluation cost), which contains the optimum whenever rule
        coverages are roughly disjoint — and costs O(n log n).
        """
        cfg = self.config.estimator
        m = len(active)
        if m == 0 or not rules:
            return []
        density = max(estimate.density, 1.0 / m)

        entries = []
        for rule in rules:
            mask = rule.applies(active.features)
            coverage = int(np.count_nonzero(mask))
            if coverage == 0:
                continue
            eval_cost = required_sample_size(
                self.config.blocker.min_precision, cfg.max_error_margin,
                coverage, cfg.confidence,
            )
            entries.append((coverage / max(eval_cost, 1), eval_cost, rule,
                            mask))
        entries.sort(key=lambda e: e[0], reverse=True)

        nap_needed = required_sample_size(
            max(min(estimate.recall, 0.99), 0.5), cfg.max_error_margin,
            max(1, round(density * m)), cfg.confidence,
        )

        def sampling_cost(m_reduced: int) -> float:
            """Labels needed to collect nap_needed actual positives."""
            if m_reduced <= 0:
                return 0.0
            d_reduced = min(1.0, density * m / m_reduced)
            if d_reduced <= 0:
                return float(m_reduced)
            return min(m_reduced, nap_needed / d_reduced)

        best_cost = sampling_cost(m)
        best_option: list[Rule] = []
        cum_eval = 0.0
        cum_mask = np.zeros(m, dtype=bool)
        for prefix, (_, eval_cost, _, mask) in enumerate(entries, 1):
            cum_eval += eval_cost
            cum_mask |= mask
            covered = int(np.count_nonzero(cum_mask))
            cost = cum_eval + sampling_cost(m - covered)
            if cost < best_cost:
                best_cost = cost
                best_option = [entry[2] for entry in entries[:prefix]]
        return best_option
