"""The recursive CART tree that ``repro.forest.tree`` replaced: the oracle.

``repro.forest.tree.DecisionTree`` grows into flat node arrays with an
explicit stack and scores all drawn features in one 2-D pass per node.
This module keeps the earlier implementation — a ``list[Node]`` grown
recursively, one argsort per drawn feature, recursive prediction — so
the parity tests can require the array tree to reproduce it exactly:
the same node fields, the same generator state after ``fit`` and the
same predictions.  ``oracle_vote_fractions`` sums those recursive
predictions the way the forest summed its votes before node masks, and
``condition_satisfied`` evaluates one path condition over a column, the
literal reading of a path that the path tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forest.tree import TreeCondition


@dataclass
class Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    nan_left: bool = True
    label: bool = False
    n_total: int = 0
    n_positive: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class OracleTree:
    """The recursive tree, with ``DecisionTree``'s constructor."""

    def __init__(self, max_depth: int = 32, min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | None = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.nodes: list[Node] = []

    def fit(self, x: np.ndarray, y: np.ndarray,
            rng: np.random.Generator) -> "OracleTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=bool)
        self.nodes = []
        self._grow(x, y, np.arange(x.shape[0]), depth=0, rng=rng)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
              depth: int, rng: np.random.Generator) -> int:
        node_id = len(self.nodes)
        labels = y[rows]
        n_total = int(rows.size)
        n_positive = int(labels.sum())
        node = Node(n_total=n_total, n_positive=n_positive,
                    label=n_positive * 2 >= n_total)
        self.nodes.append(node)

        pure = n_positive in (0, n_total)
        if (pure or depth >= self.max_depth
                or n_total < self.min_samples_split):
            return node_id

        split = self._best_split(x, y, rows, rng)
        if split is None:
            return node_id
        feature, threshold = split

        values = x[rows, feature]
        nan_mask = np.isnan(values)
        left_mask = values <= threshold
        nan_left = bool(left_mask.sum() >= (~left_mask & ~nan_mask).sum())
        if nan_left:
            left_mask = left_mask | nan_mask

        left_rows = rows[left_mask]
        right_rows = rows[~left_mask]
        if (left_rows.size < self.min_samples_leaf
                or right_rows.size < self.min_samples_leaf):
            return node_id

        node.feature = feature
        node.threshold = threshold
        node.nan_left = nan_left
        node.left = self._grow(x, y, left_rows, depth + 1, rng)
        node.right = self._grow(x, y, right_rows, depth + 1, rng)
        return node_id

    def _best_split(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
                    rng: np.random.Generator) -> tuple[int, float] | None:
        n_features = x.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(
                n_features, size=self.max_features, replace=False
            )

        labels = y[rows].astype(np.float64)
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        parent_impurity = _gini(labels.sum(), labels.size)

        for feature in candidates:
            values = x[rows, feature]
            valid = ~np.isnan(values)
            if valid.sum() < 2:
                continue
            v = values[valid]
            lv = labels[valid]
            order = np.argsort(v, kind="stable")
            v_sorted = v[order]
            l_sorted = lv[order]
            distinct = np.nonzero(np.diff(v_sorted) > 0)[0]
            if distinct.size == 0:
                continue
            pos_prefix = np.cumsum(l_sorted)
            total_pos = pos_prefix[-1]
            n = v_sorted.size
            left_counts = distinct + 1
            left_pos = pos_prefix[distinct]
            right_counts = n - left_counts
            right_pos = total_pos - left_pos
            left_imp = _gini_vec(left_pos, left_counts)
            right_imp = _gini_vec(right_pos, right_counts)
            weighted = (left_counts * left_imp + right_counts * right_imp) / n
            gains = parent_impurity - weighted
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                threshold = float(
                    (v_sorted[distinct[best_local]]
                     + v_sorted[distinct[best_local] + 1]) / 2.0
                )
                best = (int(feature), threshold)
        return best

    @classmethod
    def from_tree(cls, tree) -> "OracleTree":
        """The oracle reading a ``DecisionTree``'s node table."""
        oracle = cls()
        oracle.nodes = [Node(*fields) for fields in zip(
            tree.feature.tolist(), tree.threshold.tolist(),
            tree.left.tolist(), tree.right.tolist(),
            tree.nan_left.tolist(), tree.label.tolist(),
            tree.n_total.tolist(), tree.n_positive.tolist())]
        return oracle

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=bool)
        self._predict_into(0, np.arange(x.shape[0]), x, out)
        return out

    def _predict_into(self, node_id: int, rows: np.ndarray, x: np.ndarray,
                      out: np.ndarray) -> None:
        if rows.size == 0:
            return
        node = self.nodes[node_id]
        if node.is_leaf:
            out[rows] = node.label
            return
        values = x[rows, node.feature]
        left = values <= node.threshold
        if node.nan_left:
            left = left | np.isnan(values)
        self._predict_into(node.left, rows[left], x, out)
        self._predict_into(node.right, rows[~left], x, out)


def oracle_vote_fractions(trees, x: np.ndarray) -> np.ndarray:
    """P+(e) as the forest computed it before node masks: each tree's
    recursive row partition, summed in float64 and divided."""
    votes = np.zeros(np.shape(x)[0], dtype=np.float64)
    for tree in trees:
        votes += OracleTree.from_tree(tree).predict(x)
    return votes / len(trees)


def _gini(n_positive: float, n_total: float) -> float:
    if n_total == 0:
        return 0.0
    p = n_positive / n_total
    return 2.0 * p * (1.0 - p)


def _gini_vec(n_positive: np.ndarray, n_total: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n_total > 0, n_positive / n_total, 0.0)
    return 2.0 * p * (1.0 - p)


def condition_satisfied(condition: TreeCondition,
                        values: np.ndarray) -> np.ndarray:
    """Vectorized truth of one tree condition over a feature column.

    Follows the tree's NaN routing: missing values satisfy the condition
    iff ``nan_satisfies``.
    """
    values = np.asarray(values, dtype=np.float64)
    nan = np.isnan(values)
    if condition.le:
        satisfied = values <= condition.threshold
    else:
        satisfied = values > condition.threshold
    if condition.nan_satisfies:
        return satisfied | nan
    return satisfied & ~nan
