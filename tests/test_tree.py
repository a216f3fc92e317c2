"""The CART decision tree: learning, prediction, NaN routing, paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import DataError
from repro.forest.tree import (
    DecisionTree,
    condition_satisfied,
    TreeCondition,
)

from .forest_oracle import OracleTree


def fit_tree(x, y, rng=None, **kwargs) -> DecisionTree:
    tree = DecisionTree(**kwargs)
    tree.fit(np.asarray(x, dtype=float), np.asarray(y, dtype=bool),
             rng=rng or np.random.default_rng(0))
    return tree


class TestFitting:
    def test_perfectly_separable(self):
        x = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([False, False, True, True])
        tree = fit_tree(x, y)
        np.testing.assert_array_equal(tree.predict(x), y)
        assert tree.n_leaves == 2

    def test_pure_node_stays_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([True, True, True])
        tree = fit_tree(x, y)
        assert tree.n_leaves == 1
        assert tree.predict(np.array([[5.0]]))[0]

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        x = rng.random((200, 4))
        y = rng.random(200) > 0.5
        tree = fit_tree(x, y, max_depth=3)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        x = rng.random((60, 3))
        y = x[:, 0] > 0.5
        tree = fit_tree(x, y, min_samples_leaf=10)
        for n_total in tree.n_total[tree.is_leaf]:
            assert n_total >= 10 or tree.n_leaves == 1

    def test_constant_feature_unsplittable(self):
        x = np.ones((10, 1))
        y = np.array([True] * 5 + [False] * 5)
        tree = fit_tree(x, y)
        assert tree.n_leaves == 1

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.empty((0, 2)), np.empty(0, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.zeros((3, 2)), np.zeros(4, dtype=bool))

    def test_one_dim_x_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.zeros(3), np.zeros(3, dtype=bool))


class TestPrediction:
    def test_predict_before_fit_raises(self):
        with pytest.raises(DataError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_wrong_width_raises(self):
        tree = fit_tree(np.array([[0.0], [1.0]]), [False, True])
        with pytest.raises(DataError):
            tree.predict(np.zeros((1, 2)))

    def test_nan_routing_consistent(self):
        # NaNs must go to one fixed side of every split.
        rng = np.random.default_rng(3)
        x = rng.random((100, 2))
        y = x[:, 0] > 0.5
        tree = fit_tree(x, y)
        probe = np.array([[np.nan, 0.3]])
        first = tree.predict(probe)[0]
        for _ in range(5):
            assert tree.predict(probe)[0] == first

    def test_training_with_nans(self):
        x = np.array([[0.1], [0.2], [np.nan], [0.8], [0.9], [np.nan]])
        y = np.array([False, False, False, True, True, True])
        tree = fit_tree(x, y)
        # Non-NaN extremes must still classify correctly.
        assert not tree.predict(np.array([[0.0]]))[0]
        assert tree.predict(np.array([[1.0]]))[0]


class TestPaths:
    def test_paths_partition_prediction(self):
        """Every example satisfies exactly one root-to-leaf path, and that
        path's label equals the tree's prediction."""
        rng = np.random.default_rng(5)
        x = rng.random((150, 3))
        x[::11, 1] = np.nan
        y = (np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 1])) > 1.0
        tree = fit_tree(x, y)
        paths = list(tree.paths())
        assert len(paths) == tree.n_leaves

        predictions = tree.predict(x)
        hits = np.zeros(len(x), dtype=int)
        for path in paths:
            mask = np.ones(len(x), dtype=bool)
            for condition in path.conditions:
                mask &= condition_satisfied(condition, x[:, condition.feature])
            hits += mask
            assert np.all(predictions[mask] == path.label)
        assert np.all(hits == 1)

    def test_single_leaf_tree_has_empty_path(self):
        tree = fit_tree(np.ones((5, 1)), [True] * 5)
        paths = list(tree.paths())
        assert len(paths) == 1
        assert paths[0].conditions == ()
        assert paths[0].label is True

    def test_path_counts_match_training(self):
        x = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([False, False, True, True])
        tree = fit_tree(x, y)
        total = sum(path.n_total for path in tree.paths())
        assert total == 4


class TestConditionSatisfied:
    def test_le_and_gt(self):
        values = np.array([0.2, 0.8, np.nan])
        le = TreeCondition(0, 0.5, le=True, nan_satisfies=False)
        gt = TreeCondition(0, 0.5, le=False, nan_satisfies=True)
        np.testing.assert_array_equal(
            condition_satisfied(le, values), [True, False, False]
        )
        np.testing.assert_array_equal(
            condition_satisfied(gt, values), [False, True, True]
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fit_predict_reaches_reasonable_accuracy(seed):
    """Trees should learn an axis-aligned concept on random data."""
    rng = np.random.default_rng(seed)
    x = rng.random((120, 3))
    y = x[:, 1] > 0.6
    tree = fit_tree(x, y, rng=rng)
    assert (tree.predict(x) == y).mean() >= 0.95


# A coarse grid, so ties between rows are common, plus missing values.
_GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, np.nan])


@st.composite
def _oracle_cases(draw):
    n_rows = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 8))
    x = draw(arrays(np.float64, (n_rows, n_features), elements=_GRID))
    constant = draw(arrays(bool, n_features))
    x[:, constant] = x[0, constant]
    y = draw(arrays(bool, n_rows))
    probe = draw(arrays(np.float64, (20, n_features), elements=_GRID))
    params = {
        "max_features": draw(st.none() | st.integers(1, n_features + 1)),
        "min_samples_leaf": draw(st.integers(1, 5)),
        "max_depth": draw(st.integers(1, 8)),
    }
    return x, y, probe, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_oracle_cases())
def test_matches_the_recursive_oracle(case):
    """The array tree is the recursive tree, node for node: the same
    fields in the same preorder, the same feature draws (so the same
    generator state after fit) and the same predictions, NaN included."""
    x, y, probe, params, seed = case
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    oracle = OracleTree(**params).fit(x, y, oracle_rng)
    tree = DecisionTree(**params).fit(x, y, rng)

    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    for field in ("feature", "left", "right", "nan_left", "label",
                  "n_total", "n_positive"):
        assert getattr(tree, field).tolist() == [
            getattr(node, field) for node in oracle.nodes
        ], field
    assert tree.threshold.tobytes() == np.array(
        [node.threshold for node in oracle.nodes], dtype=np.float64
    ).tobytes()
    np.testing.assert_array_equal(tree.predict(probe), oracle.predict(probe))
