"""White-box tests for the estimator's option selection and corrections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CorleoneConfig, EstimatorConfig
from repro.core.estimator import AccuracyEstimate, AccuracyEstimator
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.rules.statistics import fpc_error_margin


def make_estimator(matches=frozenset(), **estimator_kwargs):
    config = CorleoneConfig(
        estimator=EstimatorConfig(**estimator_kwargs)
    )
    crowd = PerfectCrowd(matches, rng=np.random.default_rng(0))
    service = LabelingService(crowd, config.crowd)
    return AccuracyEstimator(config, service, np.random.default_rng(1))


def simple_candidates(n=200):
    values = np.linspace(0.0, 1.0, n, endpoint=False).reshape(-1, 1)
    pairs = [Pair(f"a{i}", f"b{i}") for i in range(n)]
    return CandidateSet(pairs, values, ["f0"])


def neg_rule(threshold: float) -> Rule:
    return Rule([Predicate(0, "f0", True, threshold)],
                predicts_match=False)


def blank_estimate(density=0.1, recall=0.8):
    return AccuracyEstimate(
        precision=0.0, recall=recall, eps_precision=1.0, eps_recall=1.0,
        n_labeled=0, n_probes=0, density=density, converged=False,
    )


class TestSelectOption:
    def test_no_rules_returns_empty(self):
        estimator = make_estimator()
        candidates = simple_candidates()
        option = estimator._select_option(
            candidates, blank_estimate(), [])
        assert option == []

    def test_big_cheap_rule_selected_on_skewed_data(self):
        """When density is tiny, removing most of the population beats
        raw sampling, so a wide rule gets picked."""
        estimator = make_estimator()
        candidates = simple_candidates(n=2000)
        rule = neg_rule(0.9)  # covers 90% of rows
        option = estimator._select_option(
            candidates, blank_estimate(density=0.005), [rule])
        assert option == [rule]

    def test_zero_coverage_rules_never_selected(self):
        estimator = make_estimator()
        candidates = simple_candidates()
        option = estimator._select_option(
            candidates, blank_estimate(density=0.005), [neg_rule(-1.0)])
        assert option == []

    def test_empty_active_set(self):
        estimator = make_estimator()
        candidates = simple_candidates()
        option = estimator._select_option(
            candidates.subset([]), blank_estimate(), [neg_rule(0.5)])
        assert option == []

    def test_small_rule_not_worth_evaluating_at_high_density(self):
        """A rule whose coverage barely changes the density cannot repay
        its own evaluation cost, so the empty option wins."""
        estimator = make_estimator()
        candidates = simple_candidates(n=300)
        option = estimator._select_option(
            candidates, blank_estimate(density=0.5), [neg_rule(0.1)])
        assert option == []


class TestRemovedCorrections:
    def test_extrapolation_per_stratum(self):
        estimator = make_estimator()
        n = 100
        predictions = np.zeros(n, bool)
        predictions[:40] = True  # rows 0-39 predicted positive
        active = np.zeros(n, bool)
        active[60:] = True       # 40 removed-pp rows + 20 removed-pn rows
        sampled = np.full(n, -1, np.int8)
        # Audit samples: 10 of the pp stratum (3 positive), 10 of the pn
        # stratum (1 positive).
        sampled[:10] = [i < 3 for i in range(10)]
        sampled[40:50] = [i < 1 for i in range(10)]
        # Every active row probed: 4 positives, none predicted, so the
        # active set alone has P = 0 over 0 predicted positives, R = 0.
        sampled[60:] = 0
        sampled[60:64] = 1

        estimate = estimator._statistics(predictions, active, sampled)
        tp_removed = 0.3 * 40               # 12
        ap_removed = tp_removed + 0.1 * 20  # + 2
        assert estimate.precision == pytest.approx(tp_removed / 40)
        assert estimate.recall == pytest.approx(tp_removed / (4 + ap_removed))

    def test_empty_region(self):
        estimator = make_estimator()
        predictions = np.zeros(10, bool)
        predictions[:5] = True
        sampled = np.zeros(10, np.int8)
        sampled[[0, 1, 2, 3, 5]] = 1
        estimate = estimator._statistics(predictions, np.ones(10, bool),
                                         sampled)
        # Only the active sample counts: 4 of 5 predicted positives are
        # matches, and 4 of 5 matches are predicted.
        assert estimate.precision == pytest.approx(0.8)
        assert estimate.recall == pytest.approx(0.8)

    def test_unsampled_stratum_contributes_zero(self):
        estimator = make_estimator()
        predictions = np.zeros(10, bool)
        predictions[5:] = True
        active = np.zeros(10, bool)
        active[5:] = True  # rows 0-4: a removed pn stratum, unaudited
        sampled = np.full(10, -1, np.int8)
        sampled[5:] = [1, 1, 0, 0, 0]
        estimate = estimator._statistics(predictions, active, sampled)
        assert estimate.precision == pytest.approx(0.4)
        assert estimate.recall == 1.0


def reference_statistics(predictions, active, sampled, confidence):
    """(P, R, eps_P, eps_R, density) the row-dict way: probe labels keyed
    by active row, audit labels keyed by removed row, and one Python pass
    over them per count.  ``_statistics`` must match it bit for bit."""
    probes = {int(r): bool(sampled[r])
              for r in np.flatnonzero(active & (sampled >= 0))}
    audit = {int(r): bool(sampled[r])
             for r in np.flatnonzero(~active & (sampled >= 0))}
    m, n = int(active.sum()), len(probes)
    npp_star = int(predictions[active].sum())
    if n == 0 or m == 0:
        return 0.0, 0.0, 1.0, 1.0, 0.0
    n_pp = sum(1 for row in probes if predictions[row])
    n_ap = sum(1 for row in probes if probes[row])
    n_tp = sum(1 for row in probes if predictions[row] and probes[row])
    density = n_ap / n
    nap_star = max(n_ap, round(density * m))
    if n_pp > 0:
        p_active = n_tp / n_pp
        eps_p = fpc_error_margin(p_active, n_pp, max(npp_star, n_pp),
                                 confidence)
    else:
        p_active, eps_p = 0.0, 0.0 if npp_star == 0 else 1.0
    if n_ap > 0:
        recall_active = n_tp / n_ap
        eps_r = fpc_error_margin(recall_active, n_ap, nap_star, confidence)
    else:
        recall_active, eps_r = 0.0, 1.0

    def stratum_positives(rows):
        labels = [audit[int(r)] for r in rows if int(r) in audit]
        return sum(labels) / len(labels) * rows.size if labels else 0.0

    pp_rows = np.flatnonzero(~active & predictions)
    tp_removed = stratum_positives(pp_rows)
    ap_removed = tp_removed + stratum_positives(
        np.flatnonzero(~active & ~predictions))
    tp_total = p_active * npp_star + tp_removed
    pp_total = npp_star + pp_rows.size
    precision = min(1.0, tp_total / pp_total) if pp_total else 0.0
    ap_total = nap_star + ap_removed
    recall = (min(1.0, (recall_active * nap_star + tp_removed) / ap_total)
              if ap_total else 0.0)
    return precision, recall, eps_p, eps_r, density


class TestStatisticsMatchRowDicts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans(),
                              st.sampled_from([-1, 0, 1])),
                    min_size=1, max_size=80))
    def test_bit_identical(self, rows):
        predictions = np.array([r[0] for r in rows], dtype=bool)
        active = np.array([r[1] for r in rows], dtype=bool)
        sampled = np.array([r[2] for r in rows], dtype=np.int8)
        estimator = make_estimator()
        estimate = estimator._statistics(predictions, active, sampled)
        assert (estimate.precision, estimate.recall, estimate.eps_precision,
                estimate.eps_recall, estimate.density) == (
            reference_statistics(predictions, active, sampled,
                                 estimator.config.estimator.confidence))


class TestAuditHarvest:
    def test_cached_labels_harvested_for_free(self):
        matches = {Pair("a0", "b0"), Pair("a5", "b5")}
        estimator = make_estimator(matches, removed_audit_cap=5)
        candidates = simple_candidates(n=20)
        # Pre-label some soon-to-be-removed rows through the service cache.
        estimator.service.label_all(
            [candidates.pairs[i] for i in range(8)]
        )
        answers_before = estimator.service.tracker.answers
        active = np.ones(20, bool)
        sampled = np.full(20, -1, np.int8)
        # Removing rows 0-9 harvests the cached labels of rows 0-7.
        assert estimator._remove(candidates, neg_rule(0.475), active,
                                 sampled)
        assert not active[:10].any() and active[10:].all()
        np.testing.assert_array_equal(sampled[:8], [1, 0, 0, 0, 0, 1, 0, 0])
        assert (sampled[8:] == -1).all()
        predictions = np.zeros(20, bool)
        estimator._audit_removed(candidates, predictions, active, sampled)
        # The 8 harvested labels already fill the cap of 5, so neither
        # the removal nor the audit bought a label.
        assert estimator.service.tracker.answers == answers_before

    def test_removing_nothing_changes_nothing(self):
        estimator = make_estimator()
        candidates = simple_candidates(n=20)
        active = np.ones(20, bool)
        sampled = np.full(20, -1, np.int8)
        assert not estimator._remove(candidates, neg_rule(-1.0), active,
                                     sampled)
        assert active.all() and (sampled == -1).all()


class TestActiveRowsUncopied:
    def test_round_with_every_row_active_makes_no_subset(self,
                                                         monkeypatch):
        """While no rule has removed a row, the option search and the
        evaluation of its rules read the candidate set itself; no round
        gathers a copy of every row."""
        import importlib.util
        from pathlib import Path

        from repro import scaled_config

        example = (Path(__file__).parent.parent / "examples"
                   / "accuracy_estimation.py")
        spec = importlib.util.spec_from_file_location("accuracy_estimation",
                                                      example)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        candidates, matches, _, forest = module.build_world()
        config = scaled_config()
        service = LabelingService(
            PerfectCrowd(matches, rng=np.random.default_rng(7)),
            config.crowd)
        estimator = AccuracyEstimator(config, service,
                                      np.random.default_rng(7))
        subsets = []
        subset = CandidateSet.subset

        def recording_subset(self, indices):
            subsets.append(len(indices))
            return subset(self, indices)

        searched = []
        select_option = estimator._select_option

        def recording_select(active, estimate, rules):
            searched.append(active)
            return select_option(active, estimate, rules)

        monkeypatch.setattr(CandidateSet, "subset", recording_subset)
        estimator._select_option = recording_select
        result = estimator.estimate(candidates,
                                    forest.predict(candidates.features),
                                    forest)
        assert searched and searched[0] is candidates
        assert result.applied_rules  # later rounds ran on a reduced set
        assert len(candidates) not in subsets
