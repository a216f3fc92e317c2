"""Random forest over the CART trees, with entropy/confidence (Eq. 1).

The forest trains k trees independently, each on a random 60% portion of
the training data sampled without replacement, with a random feature
subset of size m = log2(n)+1 examined at every split — the Weka defaults
named in Section 5.1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from ..config import ForestConfig
from ..exceptions import DataError
from ..obs.profiling import profile_section, record_trees_trained
from .tree import DecisionTree, TreePath


class RandomForest:
    """An ensemble of decision trees with majority-vote prediction."""

    def __init__(self, trees: Sequence[DecisionTree]) -> None:
        if not trees:
            raise DataError("forest must contain at least one tree")
        self.trees = tuple(trees)
        self.n_features_ = trees[0].n_features_

    def __len__(self) -> int:
        return len(self.trees)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def vote_fractions(self, x: np.ndarray) -> np.ndarray:
        """P+(e): fraction of trees voting positive, per row of ``x``."""
        x = np.asarray(x, dtype=np.float64)
        votes = np.zeros(x.shape[0], dtype=np.float64)
        for tree in self.trees:
            votes += tree.predict(x)
        return votes / len(self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote boolean predictions."""
        return self.vote_fractions(x) >= 0.5

    def entropy(self, x: np.ndarray) -> np.ndarray:
        """Disagreement entropy of Eq. 1, in nats, per row of ``x``.

        entropy(e) = -[P+ ln P+ + P- ln P-], with 0 ln 0 taken as 0.
        Ranges from 0 (unanimous) to ln 2 (an even split).
        """
        p_pos = self.vote_fractions(x)
        p_neg = 1.0 - p_pos
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p_pos > 0, p_pos * np.log(p_pos), 0.0)
            terms += np.where(p_neg > 0, p_neg * np.log(p_neg), 0.0)
        return -terms

    def confidence(self, x: np.ndarray) -> np.ndarray:
        """conf(e) = 1 - entropy(e) (Section 5.3)."""
        return 1.0 - self.entropy(x)

    def mean_confidence(self, x: np.ndarray) -> float:
        """conf(V): average confidence over a monitoring set."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            return 1.0
        return float(self.confidence(x).mean())

    # ------------------------------------------------------------------
    # Rule source
    # ------------------------------------------------------------------

    def paths(self) -> Iterator[TreePath]:
        """All root-to-leaf paths of all trees (candidate rules)."""
        for tree in self.trees:
            yield from tree.paths()

    @property
    def n_leaves(self) -> int:
        return sum(tree.n_leaves for tree in self.trees)

    def feature_importances(self) -> np.ndarray:
        """Mean decrease in Gini impurity per feature, normalized.

        For every split, the impurity decrease weighted by the fraction
        of training examples reaching the node is credited to the split
        feature; totals are averaged over trees and normalized to sum to
        1 (all zeros if no tree ever split).  The usual "which features
        drive this matcher?" introspection.
        """
        if self.n_features_ is None:
            raise DataError("forest has no feature count")
        totals = np.zeros(self.n_features_)
        for tree in self.trees:
            if not tree.nodes:
                continue
            root_total = tree.nodes[0].n_total
            for node in tree.nodes:
                if node.is_leaf:
                    continue
                left = tree.nodes[node.left]
                right = tree.nodes[node.right]
                parent_imp = _node_gini(node)
                child_imp = (
                    left.n_total * _node_gini(left)
                    + right.n_total * _node_gini(right)
                ) / node.n_total
                decrease = parent_imp - child_imp
                totals[node.feature] += decrease * node.n_total / root_total
        total = totals.sum()
        if total <= 0:
            return np.zeros(self.n_features_)
        return totals / total


def _node_gini(node) -> float:
    if node.n_total == 0:
        return 0.0
    p = node.n_positive / node.n_total
    return 2.0 * p * (1.0 - p)


def train_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig,
                 rng: np.random.Generator) -> RandomForest:
    """Train a random forest with the paper's scheme.

    Each of ``config.n_trees`` trees sees a random ``bagging_fraction``
    portion of the data drawn without replacement (at least one example,
    and at least one of each class when both are present, so every tree
    can learn a split).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    if x.shape[0] != y.shape[0]:
        raise DataError("x and y row counts differ")
    if x.shape[0] == 0:
        raise DataError("cannot train a forest on zero examples")

    n = x.shape[0]
    portion = max(1, int(math.ceil(config.bagging_fraction * n)))
    max_features = config.features_per_split(x.shape[1])
    positives = np.flatnonzero(y)
    negatives = np.flatnonzero(~y)

    trees = []
    with profile_section("forest.train_forest"):
        for _ in range(config.n_trees):
            rows = rng.choice(n, size=portion, replace=False)
            # Guarantee class coverage: a single-class portion would
            # yield a stump that never splits, wasting the tree.  The
            # negative injection must not reuse the slot a positive was
            # just placed in, or it would undo that injection (the
            # portion==1 case).
            injected: int | None = None
            if positives.size and not y[rows].any():
                injected = int(rng.integers(rows.size))
                rows[injected] = rng.choice(positives)
            if negatives.size and y[rows].all():
                slots = [i for i in range(rows.size) if i != injected]
                if slots:
                    rows[slots[rng.integers(len(slots))]] = (
                        rng.choice(negatives))
            tree = DecisionTree(
                max_depth=config.max_depth,
                min_samples_split=config.min_samples_split,
                min_samples_leaf=config.min_samples_leaf,
                max_features=max_features,
            )
            tree.fit(x[rows], y[rows], rng=rng)
            trees.append(tree)
    record_trees_trained(len(trees))
    return RandomForest(trees)
