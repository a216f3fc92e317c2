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
        # One feature-major view serves every tree (see
        # DecisionTree.add_votes); a candidate set's matrix is
        # Fortran-ordered, so this copies nothing.
        columns = np.ascontiguousarray(x.T)
        nan: dict[int, np.ndarray | None] = {}
        # The smallest unsigned type that counts every tree's vote.
        votes = np.zeros(x.shape[0],
                         dtype=np.min_scalar_type(len(self.trees)))
        for tree in self.trees:
            tree.add_votes(columns, nan, votes)
        return votes / len(self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote boolean predictions."""
        return self.vote_fractions(x) >= 0.5

    def entropy(self, x: np.ndarray) -> np.ndarray:
        """Disagreement entropy of Eq. 1, in nats, per row of ``x``."""
        return vote_entropy(self.vote_fractions(x))

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
            internal = np.flatnonzero(~tree.is_leaf)
            if internal.size == 0:
                continue
            n_total = tree.n_total
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(n_total > 0, tree.n_positive / n_total, 0.0)
            gini = 2.0 * p * (1.0 - p)
            left = tree.left[internal]
            right = tree.right[internal]
            child_imp = (
                n_total[left] * gini[left] + n_total[right] * gini[right]
            ) / n_total[internal]
            decrease = gini[internal] - child_imp
            # add.at accumulates in node order, repeated features included.
            np.add.at(totals, tree.feature[internal],
                      decrease * n_total[internal] / n_total[0])
        total = totals.sum()
        if total <= 0:
            return np.zeros(self.n_features_)
        return totals / total


def vote_entropy(p_pos: np.ndarray) -> np.ndarray:
    """Disagreement entropy of Eq. 1, in nats, from vote fractions P+.

    entropy(e) = -[P+ ln P+ + P- ln P-], with 0 ln 0 taken as 0.
    Ranges from 0 (unanimous) to ln 2 (an even split).  The one home of
    the arithmetic: :meth:`RandomForest.entropy` and the matcher, which
    reads several row sets off one :meth:`RandomForest.vote_fractions`
    pass, both call it, so their bytes cannot drift apart.
    """
    p_neg = 1.0 - p_pos
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p_pos > 0, p_pos * np.log(p_pos), 0.0)
        terms += np.where(p_neg > 0, p_neg * np.log(p_neg), 0.0)
    return -terms


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
