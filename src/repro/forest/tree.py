"""A CART decision tree with Gini impurity and explicit NaN routing.

The tree is binary: internal nodes test ``feature <= threshold`` and route
left on success.  Missing feature values (NaN) are routed to whichever
child received more training examples, and the direction is recorded on
the node so that rules extracted from tree paths reproduce the tree's
behaviour exactly (important for blocking-rule application, Section 4.3).

A fitted tree is eight parallel arrays indexed by node id, in
depth-first preorder: a node, then its left subtree, then its right
subtree.  The order is part of the contract, because each split draws
its random feature subset in it: the same inputs and generator state
give the same tree, node for node.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ..exceptions import DataError

# A split must lower the Gini impurity by more than this to be taken.
_MIN_GAIN = 1e-12


class TreeCondition(NamedTuple):
    """One edge of a root-to-leaf path: a test on a single feature.

    ``le`` is True for ``feature <= threshold`` (the left branch) and
    False for ``feature > threshold``.  ``nan_satisfies`` tells whether a
    missing value follows this edge, mirroring the node's NaN routing.
    """

    feature: int
    threshold: float
    le: bool
    nan_satisfies: bool


class TreePath(NamedTuple):
    """A root-to-leaf path: the conjunction of its conditions implies
    ``label`` for any example that satisfies all of them."""

    conditions: tuple[TreeCondition, ...]
    label: bool
    n_total: int
    n_positive: int


class DecisionTree:
    """Binary CART classifier over float feature matrices.

    Parameters mirror :class:`repro.config.ForestConfig`.  ``max_features``
    is the number of randomly chosen candidate features per split (the
    random-forest ingredient); pass ``None`` to consider all features.

    The nodes are eight parallel arrays, one entry per node, root first
    and in depth-first preorder:

    - ``feature`` (intp): the tested feature, -1 at a leaf;
    - ``threshold`` (float64): rows with ``value <= threshold`` go left;
    - ``left``, ``right`` (intp): the children's ids, -1 at a leaf;
    - ``nan_left`` (bool): whether NaN goes left (True at a leaf);
    - ``label`` (bool): the prediction, the training majority with ties
      positive;
    - ``n_total``, ``n_positive`` (intp): the training examples that
      reached the node, and how many of them were positive.
    """

    def __init__(self, max_depth: int = 32, min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | None = None) -> None:
        if max_depth < 1:
            raise DataError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.n_features_: int | None = None
        self.set_nodes([], [], [], [], [], [], [], [])

    def set_nodes(self, feature: Sequence[int], threshold: Sequence[float],
                  left: Sequence[int], right: Sequence[int],
                  nan_left: Sequence[bool], label: Sequence[bool],
                  n_total: Sequence[int], n_positive: Sequence[int]) -> None:
        """Install a node table: eight equal-length sequences in the
        layout the class docstring gives.

        :meth:`fit` ends here, and
        :func:`repro.persistence.tree_from_dict` rebuilds a saved tree
        through it.  Raises :class:`DataError` when the columns differ
        in length or an internal node's child does not come after it,
        which also rules out cycles.
        """
        arrays = (
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(nan_left, dtype=bool),
            np.asarray(label, dtype=bool),
            np.asarray(n_total, dtype=np.intp),
            np.asarray(n_positive, dtype=np.intp),
        )
        n_nodes = arrays[0].size
        if any(array.shape != (n_nodes,) for array in arrays):
            raise DataError("node columns must be 1-D and equally long")
        internal = np.flatnonzero(arrays[0] >= 0)
        for children in (arrays[2][internal], arrays[3][internal]):
            if np.any(children <= internal) or np.any(children >= n_nodes):
                raise DataError("a child must follow its parent in the "
                                "node table")
        (self.feature, self.threshold, self.left, self.right,
         self.nan_left, self.label, self.n_total,
         self.n_positive) = arrays

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray,
            rng: np.random.Generator | None = None) -> "DecisionTree":
        """Grow the tree on feature matrix ``x`` and boolean labels ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=bool)
        if x.ndim != 2:
            raise DataError("x must be 2-dimensional")
        if x.shape[0] != y.shape[0]:
            raise DataError("x and y row counts differ")
        if x.shape[0] == 0:
            raise DataError("cannot fit a tree on zero examples")
        if rng is None:
            # Deterministic default (CL001): an unseeded fallback would
            # make refits irreproducible; callers wanting variation
            # thread their own Generator (RandomForest always does).
            rng = np.random.default_rng(0)
        self.n_features_ = x.shape[1]
        # Feature-major copy: a node gathers each feature's values from
        # one contiguous row.
        columns = np.ascontiguousarray(x.T)
        labels = y.astype(np.float64)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        nan_left: list[bool] = []
        n_total: list[int] = []
        n_positive: list[int] = []
        # (rows, depth, parent id, is the left child).  Pushing the right
        # child first pops the left one first, so node ids and feature
        # draws follow depth-first preorder.
        stack = [(np.arange(x.shape[0]), 0, -1, True)]
        while stack:
            rows, depth, parent, is_left = stack.pop()
            node = len(feature)
            if parent >= 0:
                (left if is_left else right)[parent] = node
            total = rows.size
            positive = int(np.count_nonzero(y[rows]))
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            nan_left.append(True)
            n_total.append(total)
            n_positive.append(positive)

            if (positive in (0, total) or depth >= self.max_depth
                    or total < self.min_samples_split):
                continue
            split = self._best_split(columns, labels, rows, positive, rng)
            if split is None:
                continue
            split_feature, split_threshold = split

            values = columns[split_feature][rows]
            goes_left = values <= split_threshold  # NaN compares False
            nan = np.isnan(values)
            n_left = np.count_nonzero(goes_left)
            # Route NaNs with the majority of non-NaN examples.
            routes_nan_left = bool(
                n_left >= total - n_left - np.count_nonzero(nan))
            if routes_nan_left:
                goes_left |= nan
            left_rows = rows.compress(goes_left)
            right_rows = rows.compress(~goes_left)
            if (left_rows.size < self.min_samples_leaf
                    or right_rows.size < self.min_samples_leaf):
                continue

            feature[node] = split_feature
            threshold[node] = split_threshold
            nan_left[node] = routes_nan_left
            stack.append((right_rows, depth + 1, node, False))
            stack.append((left_rows, depth + 1, node, True))

        label = [2 * pos >= tot for pos, tot in zip(n_positive, n_total)]
        self.set_nodes(feature, threshold, left, right, nan_left, label,
                       n_total, n_positive)
        return self

    def _best_split(self, columns: np.ndarray, labels: np.ndarray,
                    rows: np.ndarray, n_positive: int,
                    rng: np.random.Generator) -> tuple[int, float] | None:
        """Best (feature, threshold) by Gini gain over a random feature
        subset, or None if no split improves impurity.

        One 2-D pass scores every drawn feature at once: a row of the
        work arrays per feature, a column per split position.
        """
        n_features = columns.shape[0]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(
                n_features, size=self.max_features, replace=False
            )

        # The calls below are the method and ufunc forms: on arrays this
        # small, the np.* wrappers cost as much as the work.
        n = rows.size
        values = columns.take(candidates, axis=0).take(rows, axis=1)
        # NaN sorts last, and a stable sort orders each row's valid
        # prefix exactly as sorting its valid values alone would.
        order = values.argsort(axis=1, kind="stable")
        row_index = np.arange(candidates.size)
        ordered = values[row_index[:, None], order]
        pos_prefix = np.add.accumulate(labels[rows][order], axis=1)
        n_valid = n - np.add.reduce(np.isnan(values), axis=1)

        # Splitting after position i sends ordered[:, :i + 1] left.  The
        # candidates are the positions whose next value is larger, which
        # rules out ties and the NaN tail.
        distinct = ordered[:, 1:] > ordered[:, :-1]
        left_counts = np.arange(1.0, n)
        left_pos = pos_prefix[:, :-1]
        valid_counts = n_valid[:, None]
        right_counts = valid_counts - left_counts
        total_pos = pos_prefix[row_index, n_valid - 1]
        right_pos = total_pos[:, None] - left_pos
        p = n_positive / n
        parent_impurity = 2.0 * p * (1.0 - p)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Positions that are not candidates may divide by zero; the
            # mask below discards them.
            p_left = left_pos / left_counts
            p_right = right_pos / right_counts
            weighted = (
                left_counts * (2.0 * p_left * (1.0 - p_left))
                + right_counts * (2.0 * p_right * (1.0 - p_right))
            ) / valid_counts
        gains = parent_impurity - weighted
        gains[~distinct] = -np.inf
        # The first maximum in row-major order is the first drawn
        # feature reaching the best gain, at its first such position.
        best = int(gains.argmax())
        row, position = divmod(best, n - 1)
        if not gains[row, position] > _MIN_GAIN:
            return None
        threshold = float(
            (ordered[row, position] + ordered[row, position + 1]) / 2.0)
        return int(candidates[row]), threshold

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Boolean predictions for every row of ``x`` (vectorized)."""
        x = np.asarray(x, dtype=np.float64)
        return self.predict_columns(np.ascontiguousarray(x.T))

    def predict_columns(self, columns: np.ndarray) -> np.ndarray:
        """Predictions from ``x``'s transpose, one contiguous row per
        feature.

        :meth:`RandomForest.vote_fractions
        <repro.forest.forest.RandomForest.vote_fractions>` makes that
        copy once and hands it to every tree, so each node gathers its
        rows' values from one contiguous array.
        """
        if self.feature.size == 0:
            raise DataError("tree has not been fitted")
        if columns.ndim != 2 or columns.shape[0] != self.n_features_:
            raise DataError("x has wrong shape for this tree")
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        nan_left = self.nan_left.tolist()
        out = np.empty(columns.shape[1], dtype=bool)
        stack = [(0, np.arange(columns.shape[1]))]
        while stack:
            node, rows = stack.pop()
            split_feature = feature[node]
            if split_feature < 0:
                out[rows] = self.label[node]
                continue
            values = columns[split_feature][rows]
            goes_left = values <= threshold[node]
            if nan_left[node]:
                goes_left |= np.isnan(values)
            # compress, not a boolean index: on a large irregular mask
            # it is several times faster.
            for child, child_rows in (
                    (self.left[node], rows.compress(goes_left)),
                    (self.right[node], rows.compress(~goes_left))):
                if child_rows.size:
                    stack.append((child, child_rows))
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> np.ndarray:
        """Per node, whether it is a leaf."""
        return self.feature < 0

    @property
    def n_leaves(self) -> int:
        """Number of leaves."""
        return int(np.count_nonzero(self.is_leaf))

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a single-leaf tree)."""
        depths = np.zeros(self.feature.size, dtype=np.intp)
        # Parents precede their children, so one forward pass suffices.
        for node in np.flatnonzero(~self.is_leaf):
            depths[self.left[node]] = depths[self.right[node]] = (
                depths[node] + 1)
        return int(depths.max()) if depths.size else 0

    def paths(self) -> Iterator[TreePath]:
        """Yield every root-to-leaf path (Figure 2's rule source), left
        before right."""
        if self.feature.size == 0:
            return
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        left = self.left.tolist()
        right = self.right.tolist()
        nan_left = self.nan_left.tolist()
        label = self.label.tolist()
        n_total = self.n_total.tolist()
        n_positive = self.n_positive.tolist()
        stack: list[tuple[int, tuple[TreeCondition, ...]]] = [(0, ())]
        while stack:
            node, conditions = stack.pop()
            if feature[node] < 0:
                yield TreePath(conditions, label[node],
                               n_total[node], n_positive[node])
                continue
            left_condition = TreeCondition(
                feature[node], threshold[node], le=True,
                nan_satisfies=nan_left[node],
            )
            right_condition = TreeCondition(
                feature[node], threshold[node], le=False,
                nan_satisfies=not nan_left[node],
            )
            stack.append((right[node], conditions + (right_condition,)))
            stack.append((left[node], conditions + (left_condition,)))


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
