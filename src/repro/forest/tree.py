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
        self._install([], [], [], [], [], [], [], [])

    def set_nodes(self, feature: Sequence[int], threshold: Sequence[float],
                  left: Sequence[int], right: Sequence[int],
                  nan_left: Sequence[bool], label: Sequence[bool],
                  n_total: Sequence[int], n_positive: Sequence[int]) -> None:
        """Install a node table: eight equal-length sequences in the
        layout the class docstring gives.

        :func:`repro.persistence.tree_from_dict` rebuilds a saved tree
        through it.  Raises :class:`DataError` when the columns differ
        in length or an internal node's child does not come after it,
        which also rules out cycles.
        """
        arrays = _node_arrays(feature, threshold, left, right, nan_left,
                              label, n_total, n_positive)
        n_nodes = arrays[0].size
        if any(array.shape != (n_nodes,) for array in arrays):
            raise DataError("node columns must be 1-D and equally long")
        internal = np.flatnonzero(arrays[0] >= 0)
        for children in (arrays[2][internal], arrays[3][internal]):
            if np.any(children <= internal) or np.any(children >= n_nodes):
                raise DataError("a child must follow its parent in the "
                                "node table")
        self._install(*arrays)

    def _install(self, *columns: Sequence) -> None:
        """Take a node table without checking it: :meth:`fit` and
        ``__init__`` build theirs well-formed, and :meth:`set_nodes`
        checks any other."""
        (self.feature, self.threshold, self.left, self.right,
         self.nan_left, self.label, self.n_total,
         self.n_positive) = _node_arrays(*columns)
        # Per node, the vote every leaf below it casts, or -1 where they
        # differ: prediction walks only the subtrees marked -1.
        self._vote = _subtree_votes(self.feature.tolist(),
                                    self.left.tolist(), self.right.tolist(),
                                    self.label.tolist())

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
        n_rows, n_features = x.shape
        self.n_features_ = n_features
        # Feature-major copy: a node gathers each feature's values from
        # one contiguous row.
        columns = np.ascontiguousarray(x.T)
        labels = y.astype(np.float64)
        draws = (self.max_features is not None
                 and self.max_features < n_features)
        # The split search's per-tree constants; without draws every
        # feature is a candidate, in index order.
        drawn_index = np.arange(self.max_features if draws else n_features)
        left_counts = np.arange(1.0, n_rows)
        min_leaf = self.min_samples_leaf

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        nan_left: list[bool] = []
        n_total: list[int] = []
        n_positive: list[int] = []
        # (rows, positives among them, depth, parent id, is the left
        # child).  Pushing the right child first pops the left one
        # first, so node ids and feature draws follow depth-first
        # preorder.
        stack = [(np.arange(n_rows), int(np.count_nonzero(y)), 0, -1, True)]
        # Split positions that are not candidates may divide by zero;
        # the search masks them.
        with np.errstate(divide="ignore", invalid="ignore"):
            while stack:
                rows, positive, depth, parent, is_left = stack.pop()
                node = len(feature)
                if parent >= 0:
                    (left if is_left else right)[parent] = node
                total = rows.size
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
                drawn = (rng.choice(n_features, size=self.max_features,
                                    replace=False)
                         if draws else drawn_index)
                if total < 2 * min_leaf:
                    # Every split leaves a child under min_samples_leaf;
                    # the draw above still keeps the generator in step.
                    continue
                split = self._best_split(columns, labels, rows, positive,
                                         drawn, drawn_index, left_counts)
                if split is None:
                    continue
                (split_feature, split_threshold, sorted_rows, cut,
                 n_valid, cut_positive, valid_positive) = split

                # Route NaNs with the majority of non-NaN examples.
                routes_nan_left = cut >= n_valid - cut
                n_left = cut + (total - n_valid if routes_nan_left else 0)
                if n_left < min_leaf or total - n_left < min_leaf:
                    continue
                if routes_nan_left and n_valid < total:
                    left_rows = np.concatenate(
                        (sorted_rows[:cut], sorted_rows[n_valid:]))
                    right_rows = sorted_rows[cut:n_valid]
                    left_positive = cut_positive + positive - valid_positive
                else:
                    left_rows = sorted_rows[:cut]
                    right_rows = sorted_rows[cut:]
                    left_positive = cut_positive

                feature[node] = split_feature
                threshold[node] = split_threshold
                nan_left[node] = routes_nan_left
                stack.append((right_rows, positive - left_positive,
                              depth + 1, node, False))
                stack.append((left_rows, left_positive, depth + 1, node,
                              True))

        label = [2 * pos >= tot for pos, tot in zip(n_positive, n_total)]
        self._install(feature, threshold, left, right, nan_left, label,
                      n_total, n_positive)
        return self

    def _best_split(self, columns: np.ndarray, labels: np.ndarray,
                    rows: np.ndarray, n_positive: int, drawn: np.ndarray,
                    drawn_index: np.ndarray, left_counts: np.ndarray,
                    ) -> tuple[int, float, np.ndarray, int, int, int,
                               int] | None:
        """Best split by Gini gain over the ``drawn`` features, or None
        if no split improves impurity.

        One 2-D pass scores every drawn feature at once: a row of the
        work arrays per feature, a column per split position.
        ``drawn_index`` is ``arange(drawn.size)`` and ``left_counts``
        ``arange(1.0, n)`` for the tree's n rows, both built once per
        tree, and the caller ignores division warnings.

        Returns ``(feature, threshold, sorted_rows, cut, n_valid,
        cut_positive, valid_positive)``.  ``sorted_rows`` is ``rows`` in
        the split feature's stable sort order, NaN last.  Its first
        ``cut`` rows are those with ``value <= threshold`` and its
        first ``n_valid`` those with a value; ``cut_positive`` and
        ``valid_positive`` count the positives among each.
        """
        # The calls below are the method and ufunc forms: on arrays this
        # small, the np.* wrappers cost as much as the work.
        n = rows.size
        values = columns.take(drawn, axis=0).take(rows, axis=1)
        # NaN sorts last, and a stable sort orders each row's valid
        # prefix exactly as sorting its valid values alone would.
        order = values.argsort(axis=1, kind="stable")
        ordered = values[drawn_index[:, None], order]
        pos_prefix = np.add.accumulate(labels[rows][order], axis=1)
        n_valid = n - np.add.reduce(np.isnan(values), axis=1)

        # Splitting after position i sends ordered[:, :i + 1] left.  The
        # candidates are the positions whose next value is larger, which
        # rules out ties and the NaN tail.
        distinct = ordered[:, 1:] > ordered[:, :-1]
        left_counts = left_counts[:n - 1]
        left_pos = pos_prefix[:, :-1]
        valid_counts = n_valid[:, None]
        right_counts = valid_counts - left_counts
        total_pos = pos_prefix[drawn_index, n_valid - 1]
        right_pos = total_pos[:, None] - left_pos
        # Gini impurity is 2p(1 - p); everything below is at half scale.
        # Doubling is exact in binary floating point, so each gain is
        # exactly half of (parent - (n_l·gini_l + n_r·gini_r) / n_valid):
        # the same argmax, tested against half of _MIN_GAIN.
        p = n_positive / n
        half_parent = p * (1.0 - p)
        p_left = left_pos / left_counts
        weighted = np.subtract(1.0, p_left)
        weighted *= p_left
        weighted *= left_counts
        p_right = np.divide(right_pos, right_counts, out=right_pos)
        right_term = np.subtract(1.0, p_right)
        right_term *= p_right
        right_term *= right_counts
        weighted += right_term
        weighted /= valid_counts
        gains = np.subtract(half_parent, weighted, out=weighted)
        gains[~distinct] = -np.inf
        # The first maximum in row-major order is the first drawn
        # feature reaching the best gain, at its first such position.
        best = int(gains.argmax())
        row, position = divmod(best, n - 1)
        if not gains[row, position] > _MIN_GAIN / 2:
            return None
        upper = ordered[row, position + 1]
        threshold = float((ordered[row, position] + upper) / 2.0)
        valid = int(n_valid[row])
        cut = position + 1
        if not threshold < upper:
            # The midpoint rounded onto the next value (adjacent
            # doubles), so the rows holding that value go left too.
            cut = int(np.count_nonzero(ordered[row, :valid] <= threshold))
        # The gains, the pick and the midpoint depend only on the node's
        # (value, label) multiset, so the children's row order, taken
        # from this sort, never changes a tree.
        return (int(drawn[row]), threshold, rows.take(order[row]), cut,
                valid, int(pos_prefix[row, cut - 1]) if cut else 0,
                int(total_pos[row]))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Boolean predictions for every row of ``x`` (vectorized)."""
        columns = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
        self._check_columns(columns)
        votes = np.zeros(columns.shape[1], dtype=bool)
        self.add_votes(columns, {}, votes)
        return votes

    def add_votes(self, columns: np.ndarray,
                  nan: dict[int, np.ndarray | None],
                  votes: np.ndarray) -> None:
        """Add this tree's prediction, 1 for a match, to ``votes`` for
        every row of ``x``, from its transpose ``columns``.

        Each internal node tests its feature's whole column once, and a
        child's rows are a mask: its parent's mask AND the test, or AND
        NOT it.  A subtree whose leaves all vote alike is not walked:
        a positive one adds its mask to ``votes``, a negative one
        nothing.  ``nan`` caches a column's NaN mask (None when the
        column has no NaN) for the nodes that send NaN left; the trees
        of :meth:`RandomForest.vote_fractions
        <repro.forest.forest.RandomForest.vote_fractions>` share one.
        """
        self._check_columns(columns)
        vote = self._vote.tolist()
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        nan_left = self.nan_left.tolist()
        children = tuple(zip(self.left.tolist(), self.right.tolist()))
        # (node, its rows as a mask), only for nodes with a positive
        # leaf below them.
        stack = [(0, np.ones(columns.shape[1], dtype=bool))] if vote[0] else []
        while stack:
            node, rows = stack.pop()
            if vote[node] > 0:
                np.add(votes, rows, out=votes)
                continue
            split_feature = feature[node]
            goes_left = np.less_equal(columns[split_feature],
                                      threshold[node])
            if nan_left[node]:
                if split_feature not in nan:
                    column_nan = np.isnan(columns[split_feature])
                    nan[split_feature] = (column_nan if column_nan.any()
                                          else None)
                if nan[split_feature] is not None:
                    goes_left |= nan[split_feature]
            left_child, right_child = children[node]
            if vote[left_child]:
                stack.append((left_child, np.logical_and(rows, goes_left)))
            if vote[right_child]:
                # rows AND NOT goes_left: True > False is the one true
                # comparison of two booleans.
                stack.append((right_child, np.greater(rows, goes_left)))

    def _check_columns(self, columns: np.ndarray) -> None:
        if self.feature.size == 0:
            raise DataError("tree has not been fitted")
        if columns.ndim != 2 or columns.shape[0] != self.n_features_:
            raise DataError("x has wrong shape for this tree")

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


def _node_arrays(feature: Sequence[int], threshold: Sequence[float],
                 left: Sequence[int], right: Sequence[int],
                 nan_left: Sequence[bool], label: Sequence[bool],
                 n_total: Sequence[int], n_positive: Sequence[int],
                 ) -> tuple[np.ndarray, ...]:
    """The eight node columns as arrays of their dtypes."""
    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(nan_left, dtype=bool),
        np.asarray(label, dtype=bool),
        np.asarray(n_total, dtype=np.intp),
        np.asarray(n_positive, dtype=np.intp),
    )


def _subtree_votes(feature: list[int], left: list[int], right: list[int],
                   label: list[bool]) -> np.ndarray:
    """Per node, 1 when every leaf below it predicts a match, 0 when
    none does and -1 otherwise."""
    votes = [0] * len(feature)
    # Children follow their parents, so a backward pass sees them first.
    for node in range(len(feature) - 1, -1, -1):
        if feature[node] < 0:
            votes[node] = int(label[node])
        else:
            below = votes[left[node]]
            votes[node] = below if below == votes[right[node]] else -1
    return np.array(votes, dtype=np.int8)
