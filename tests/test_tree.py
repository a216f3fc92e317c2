"""The CART decision tree: learning, prediction, NaN routing, paths,
and the forest's vote fractions against the recursive oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import ForestConfig
from repro.exceptions import DataError
from repro.forest.forest import RandomForest, train_forest
from repro.forest.tree import DecisionTree, TreeCondition

from .forest_oracle import (
    OracleTree,
    condition_satisfied,
    oracle_vote_fractions,
)


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


# Adjacent doubles: the midpoint of _ODD and _EVEN rounds onto _EVEN,
# the upper value (ties round to an even last bit), while that of 0.5
# and _ODD rounds down onto 0.5.
_ODD = float(np.nextafter(0.5, 1.0))
_EVEN = float(np.nextafter(_ODD, 1.0))

# A coarse grid, so ties between rows are common, plus missing values
# and the adjacent doubles above.
_GRID = st.sampled_from([0.0, 0.25, 0.5, _ODD, _EVEN, 0.75, 1.0, np.nan])


@st.composite
def _oracle_cases(draw):
    n_rows = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 8))
    x = draw(arrays(np.float64, (n_rows, n_features), elements=_GRID))
    constant = draw(arrays(bool, n_features))
    x[:, constant] = x[0, constant]
    # NaN-heavy columns: most rows missing, so NaN is routed with
    # whichever side the few valid rows favour.
    nan_heavy = draw(arrays(bool, n_features))
    missing = draw(arrays(bool, (n_rows, n_features),
                          elements=st.sampled_from([True, True, False])))
    x[missing & nan_heavy] = np.nan
    y = draw(arrays(bool, n_rows))
    probe = draw(arrays(np.float64, (20, n_features), elements=_GRID))
    params = {
        "max_features": draw(st.none() | st.integers(1, n_features + 1)),
        "min_samples_split": draw(st.integers(2, 6)),
        "min_samples_leaf": draw(st.integers(1, 5)),
        "max_depth": draw(st.integers(1, 8)),
    }
    return x, y, probe, params, draw(st.integers(0, 2**32 - 1))


def _assert_matches_oracle(x, y, probe, params, seed):
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
    return tree


@settings(max_examples=200, deadline=None)
@given(_oracle_cases())
def test_matches_the_recursive_oracle(case):
    """The array tree is the recursive tree, node for node: the same
    fields in the same preorder, the same feature draws (so the same
    generator state after fit) and the same predictions, NaN included."""
    _assert_matches_oracle(*case)


class TestOracleEdges:
    """Growth paths the hypothesis cases reach only by chance."""

    def test_midpoint_rounding_onto_the_upper_value(self):
        # The best cut is between _ODD and _EVEN, whose midpoint is
        # _EVEN itself, so the _EVEN row goes left with the _ODD rows.
        x = np.array([[_ODD], [_ODD], [_EVEN], [1.0], [1.0]])
        y = np.array([False, False, True, True, True])
        tree = _assert_matches_oracle(x, y, x, {}, 0)
        assert tree.threshold[0] == _EVEN
        assert tree.n_total[tree.left[0]] == 3

    def test_midpoint_rounding_down(self):
        x = np.array([[0.5], [0.5], [_ODD], [1.0]])
        y = np.array([False, False, True, True])
        tree = _assert_matches_oracle(x, y, x, {}, 0)
        assert tree.threshold[0] == 0.5
        assert tree.n_total[tree.left[0]] == 2

    @pytest.mark.parametrize("valid_left", [True, False])
    def test_nan_heavy_column_routed_either_way(self, valid_left):
        # Three valid rows, split 2:1 towards valid_left's side, and
        # eight missing ones that must follow that majority.
        low, high = ([0.1, 0.2], [0.9]) if valid_left else ([0.1], [0.8, 0.9])
        values = low + high + [np.nan] * 8
        x = np.array(values)[:, None]
        y = np.array([v <= 0.5 for v in low] + [False] * len(high)
                     + [True, False] * 4)
        tree = _assert_matches_oracle(x, y, x, {}, 0)
        assert not tree.is_leaf[0]
        assert bool(tree.nan_left[0]) is valid_left

    def test_constant_columns_never_split(self):
        x = np.tile([0.5, np.nan, 1.0], (12, 1))
        y = np.arange(12) % 2 == 0
        tree = _assert_matches_oracle(x, y, x, {"max_features": 2}, 3)
        assert tree.n_leaves == 1

    @pytest.mark.parametrize("min_samples_leaf", [1, 2])
    def test_min_samples_leaf(self, min_samples_leaf):
        rng = np.random.default_rng(min_samples_leaf)
        x = rng.choice([0.0, 0.5, 1.0, np.nan], size=(40, 4))
        y = rng.random(40) < 0.4
        _assert_matches_oracle(
            x, y, x, {"min_samples_leaf": min_samples_leaf,
                      "max_features": 2}, 11)

    def test_small_nodes_still_draw(self):
        # Every node under 2 * min_samples_leaf rows skips the search
        # but must still take its feature draw.
        rng = np.random.default_rng(5)
        x = rng.random((30, 6))
        y = rng.random(30) < 0.5
        _assert_matches_oracle(
            x, y, x, {"min_samples_leaf": 4, "min_samples_split": 2,
                      "max_features": 3}, 17)


def _tree(nodes, n_features=2) -> DecisionTree:
    """A tree from (feature, threshold, left, right, nan_left, label)
    rows; the training counts are made up."""
    tree = DecisionTree()
    tree.n_features_ = n_features
    columns = list(zip(*nodes))
    tree.set_nodes(*columns, [1] * len(nodes), [0] * len(nodes))
    return tree


# A root split on feature 0 whose subtrees vote all-negative (left)
# and all-positive (right), each still split once more.
_SETTLED = [
    (0, 0.5, 1, 4, True, False),
    (1, 0.3, 2, 3, False, False),
    (-1, 0.0, -1, -1, True, False),
    (-1, 0.0, -1, -1, True, False),
    (1, 0.7, 5, 6, True, True),
    (-1, 0.0, -1, -1, True, True),
    (-1, 0.0, -1, -1, True, True),
]
# Mixed leaves at depth two; NaN goes right at the root, left below.
_MIXED = [
    (1, 0.4, 1, 4, False, False),
    (0, 0.6, 2, 3, True, False),
    (-1, 0.0, -1, -1, True, True),
    (-1, 0.0, -1, -1, True, False),
    (0, 0.2, 5, 6, True, True),
    (-1, 0.0, -1, -1, True, False),
    (-1, 0.0, -1, -1, True, True),
]
_LEAF_NEGATIVE = [(-1, 0.0, -1, -1, True, False)]
_LEAF_POSITIVE = [(-1, 0.0, -1, -1, True, True)]
_ALL_NEGATIVE = [
    (0, 0.5, 1, 2, True, False),
    (-1, 0.0, -1, -1, True, False),
    (-1, 0.0, -1, -1, True, False),
]


class TestVoteParity:
    """``RandomForest.vote_fractions`` by node masks against each tree's
    recursive row partition (the oracle), compared by bytes."""

    @staticmethod
    def _probe(n_rows, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0, np.nan],
                       size=(n_rows, 2))
        return x

    def _assert_parity(self, trees, x):
        forest = RandomForest(trees)
        expected = oracle_vote_fractions(trees, x).tobytes()
        assert forest.vote_fractions(x).tobytes() == expected
        assert forest.vote_fractions(np.asfortranarray(x)).tobytes() == (
            expected)
        for tree in trees:
            np.testing.assert_array_equal(
                tree.predict(x), OracleTree.from_tree(tree).predict(x))

    @pytest.mark.parametrize("shapes", [
        [_SETTLED], [_MIXED], [_LEAF_NEGATIVE], [_LEAF_POSITIVE],
        [_ALL_NEGATIVE], [_ALL_NEGATIVE, _LEAF_NEGATIVE],
        [_SETTLED, _MIXED, _LEAF_POSITIVE, _ALL_NEGATIVE, _MIXED],
    ])
    def test_crafted_trees(self, shapes):
        trees = [_tree(nodes) for nodes in shapes]
        self._assert_parity(trees, self._probe(500))

    @pytest.mark.parametrize("shapes", [[_MIXED], [_LEAF_POSITIVE],
                                        [_SETTLED, _ALL_NEGATIVE]])
    def test_zero_rows(self, shapes):
        trees = [_tree(nodes) for nodes in shapes]
        votes = RandomForest(trees).vote_fractions(np.empty((0, 2)))
        assert votes.dtype == np.float64 and votes.shape == (0,)
        self._assert_parity(trees, np.empty((0, 2)))

    def test_single_row(self):
        trees = [_tree(_MIXED), _tree(_SETTLED)]
        for row in self._probe(40):
            self._assert_parity(trees, row[None, :])

    def test_row_major_and_feature_major_inputs(self):
        rng = np.random.default_rng(8)
        x = rng.random((300, 6))
        x[rng.random((300, 6)) < 0.2] = np.nan
        y = np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 3]) > 0.9
        forest = train_forest(x, y, ForestConfig(), rng)
        probe = rng.random((2000, 6))
        probe[rng.random((2000, 6)) < 0.3] = np.nan
        probe[:, 2] = 0.5  # a NaN-free column
        expected = oracle_vote_fractions(forest.trees, probe).tobytes()
        assert forest.vote_fractions(probe).tobytes() == expected
        assert forest.vote_fractions(
            np.asfortranarray(probe)).tobytes() == expected
        # A Fortran matrix's transpose is what the forest reads, uncopied.
        assert np.asfortranarray(probe).T.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(_oracle_cases(), st.integers(1, 4))
    def test_matches_the_oracle_on_random_forests(self, case, n_trees):
        x, y, probe, params, seed = case
        rng = np.random.default_rng(seed)
        trees = [DecisionTree(**params).fit(x, y, rng)
                 for _ in range(n_trees)]
        self._assert_parity(trees, probe)
        self._assert_parity(trees, x)
