"""JSON persistence of rules, forests, configs and run reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import CorleoneConfig, ForestConfig
from repro.exceptions import DataError
from repro.forest.forest import train_forest
from repro.persistence import (
    config_from_dict,
    config_to_dict,
    forest_from_dict,
    forest_to_dict,
    load_forest,
    load_report,
    load_rules,
    result_report,
    rule_from_dict,
    rule_to_dict,
    save_forest,
    save_report,
    save_rules,
)
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule


@pytest.fixture
def sample_rule() -> Rule:
    return Rule(
        [
            Predicate(0, "title_sim", True, 0.42, nan_satisfies=True),
            Predicate(3, "price_diff", False, 10.0),
        ],
        predicts_match=False,
        cost=7.5,
        source="tree3",
    )


@pytest.fixture
def sample_forest(rng):
    x = rng.random((200, 4))
    y = (x[:, 0] + x[:, 1]) > 1.0
    x[::13, 2] = np.nan
    return train_forest(x, y, ForestConfig(n_trees=4), rng), x


class TestRuleRoundTrip:
    def test_round_trip_identity(self, sample_rule):
        clone = rule_from_dict(rule_to_dict(sample_rule))
        assert clone == sample_rule
        assert clone.cost == sample_rule.cost
        assert clone.source == sample_rule.source
        assert clone.predicates[0].nan_satisfies is True

    def test_round_trip_behaviour(self, sample_rule, rng):
        matrix = rng.random((100, 5))
        matrix[::7, 0] = np.nan
        clone = rule_from_dict(rule_to_dict(sample_rule))
        np.testing.assert_array_equal(
            sample_rule.applies(matrix), clone.applies(matrix)
        )

    def test_file_round_trip(self, sample_rule, tmp_path):
        path = tmp_path / "rules.json"
        save_rules([sample_rule], path)
        loaded = load_rules(path)
        assert loaded == [sample_rule]

    def test_malformed_rule_rejected(self):
        with pytest.raises(DataError):
            rule_from_dict({"predicates": [{"bogus": 1}]})

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError):
            load_rules(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_rules(path)


class TestForestRoundTrip:
    def test_predictions_identical(self, sample_forest, tmp_path):
        forest, x = sample_forest
        path = tmp_path / "forest.json"
        save_forest(forest, path, feature_names=list("abcd"))
        clone = load_forest(path)
        np.testing.assert_array_equal(
            forest.predict(x), clone.predict(x)
        )
        np.testing.assert_allclose(
            forest.vote_fractions(x), clone.vote_fractions(x)
        )

    def test_paths_preserved(self, sample_forest):
        forest, _ = sample_forest
        clone = forest_from_dict(forest_to_dict(forest))
        original = {
            (p.conditions, p.label) for p in forest.paths()
        }
        restored = {
            (p.conditions, p.label) for p in clone.paths()
        }
        assert original == restored

    def test_feature_names_stored(self, sample_forest):
        forest, _ = sample_forest
        document = forest_to_dict(forest, feature_names=list("abcd"))
        assert document["feature_names"] == list("abcd")

    def test_empty_forest_rejected(self):
        with pytest.raises(DataError):
            forest_from_dict({"format": "corleone-forest", "trees": []})

    def test_wrong_format_rejected(self):
        with pytest.raises(DataError):
            forest_from_dict({"format": "nope", "trees": []})


class TestRunReport:
    @pytest.fixture(scope="class")
    def run_result(self):
        from repro.evaluation.experiment import run_corleone
        from repro.synth.restaurants import generate_restaurants
        from repro.config import (
            BlockerConfig, CorleoneConfig, EstimatorConfig, ForestConfig,
            LocatorConfig, MatcherConfig,
        )
        dataset = generate_restaurants(n_a=40, n_b=30, n_matches=10,
                                       seed=9)
        config = CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            blocker=BlockerConfig(t_b=2000, top_k_rules=8,
                                  max_labels_per_rule=40),
            matcher=MatcherConfig(batch_size=10, pool_size=40,
                                  n_converged=6, n_degrade=6,
                                  max_iterations=15),
            estimator=EstimatorConfig(probe_size=20, max_probes=20),
            locator=LocatorConfig(min_difficult_pairs=20),
            max_pipeline_iterations=1,
        )
        return run_corleone(dataset, config, seed=2,
                            mode="one_iteration").result

    def test_report_structure(self, run_result):
        report = result_report(run_result)
        assert report["format"] == "corleone-report"
        assert report["cost"]["pairs_labeled"] > 0
        assert len(report["predicted_matches"]) == len(
            run_result.predicted_matches
        )
        assert report["iterations"][0]["matcher_al_iterations"] > 0

    def test_report_is_json_serializable(self, run_result):
        json.dumps(result_report(run_result))

    def test_file_round_trip(self, run_result, tmp_path):
        path = tmp_path / "report.json"
        save_report(run_result, path)
        loaded = load_report(path)
        assert loaded["stop_reason"] == run_result.stop_reason


class TestCandidateRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        import numpy as np
        from repro.data.pairs import CandidateSet, Pair
        from repro.persistence import load_candidates, save_candidates
        pairs = [Pair(f"a{i}", f"b{i}") for i in range(25)]
        matrix = rng.random((25, 4))
        matrix[::5, 2] = np.nan
        original = CandidateSet(pairs, matrix, ["w", "x", "y", "z"])
        path = tmp_path / "candidates.npz"
        save_candidates(original, path)
        loaded = load_candidates(path)
        assert loaded.pairs == original.pairs
        assert loaded.feature_names == original.feature_names
        np.testing.assert_array_equal(loaded.features, original.features)

    def test_missing_file(self, tmp_path):
        import pytest
        from repro.exceptions import DataError
        from repro.persistence import load_candidates
        with pytest.raises(DataError):
            load_candidates(tmp_path / "nope.npz")

    def test_malformed_file(self, tmp_path):
        import numpy as np
        import pytest
        from repro.exceptions import DataError
        from repro.persistence import load_candidates
        path = tmp_path / "bad.npz"
        np.savez(path, wrong_key=np.zeros(3))
        with pytest.raises(DataError):
            load_candidates(path)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(("section", "key", "value"), [
        ("blocker", "executor", "sharded"),
        ("plan", "enabled", True),
    ])
    def test_removed_key_names_its_replacement(self, section, key, value):
        """A run.json written before the key was removed fails typed."""
        document = config_to_dict(CorleoneConfig())
        assert config_from_dict(document) == CorleoneConfig()
        document[section][key] = value
        with pytest.raises(DataError, match=rf"{section}\.{key}.*"
                           r"sharded plan executor.*blocker\.n_workers"):
            config_from_dict(document)
