"""Tuple pairs and featurized candidate sets.

After blocking, Corleone operates on a *candidate set* C of tuple pairs,
each converted into a feature vector (Section 5.1).  :class:`CandidateSet`
bundles the pairs with their feature matrix so that every downstream module
(matcher, estimator, locator) shares one representation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ..exceptions import DataError


class Pair(NamedTuple):
    """An (a_id, b_id) tuple pair across the two input tables."""

    a_id: str
    b_id: str


class CandidateSet:
    """An immutable set of pairs with an aligned feature matrix.

    Rows of ``features`` correspond one-to-one with ``pairs``.  Feature
    values are floats; missing feature values are encoded as ``numpy.nan``
    and handled by the decision-tree learner.
    """

    def __init__(self, pairs: Sequence[Pair], features: np.ndarray,
                 feature_names: Sequence[str]) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise DataError("feature matrix must be 2-dimensional")
        if features.shape[0] != len(pairs):
            raise DataError(
                f"{len(pairs)} pairs but {features.shape[0]} feature rows"
            )
        if features.shape[1] != len(feature_names):
            raise DataError(
                f"{len(feature_names)} feature names but "
                f"{features.shape[1]} feature columns"
            )
        # Building a Pair costs more than checking one; most callers
        # already pass Pairs.
        self._pairs: tuple[Pair, ...] = tuple(
            p if type(p) is Pair else Pair(*p) for p in pairs)
        self._features = features
        self._features.setflags(write=False)
        self._feature_names: tuple[str, ...] = tuple(feature_names)
        self._index: dict[Pair, int] = dict(
            zip(self._pairs, range(len(self._pairs))))
        if len(self._index) != len(self._pairs):
            raise DataError("candidate set contains duplicate pairs")

    @classmethod
    def empty(cls, feature_names: Sequence[str]) -> "CandidateSet":
        """An empty candidate set with the given feature space."""
        return cls((), np.empty((0, len(feature_names))), feature_names)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return self._pairs

    @property
    def features(self) -> np.ndarray:
        """The (read-only) n_pairs x n_features matrix."""
        return self._features

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._feature_names

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._index

    def index_of(self, pair: Pair) -> int:
        """Row index of ``pair``; raises :class:`DataError` if absent."""
        try:
            return self._index[pair]
        except KeyError:
            raise DataError(f"pair {pair} not in candidate set") from None

    def feature_index(self, name: str) -> int:
        """Column index of feature ``name``."""
        try:
            return self._feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None

    def vector(self, pair: Pair) -> np.ndarray:
        """The feature vector of one pair."""
        return self._features[self.index_of(pair)]

    def subset(self, indices: Sequence[int]) -> "CandidateSet":
        """A new candidate set with the rows at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return CandidateSet(
            [self._pairs[i] for i in idx],
            self._features[idx],
            self._feature_names,
        )

    def subset_pairs(self, pairs: Iterable[Pair]) -> "CandidateSet":
        """A new candidate set restricted to the given pairs (in order)."""
        return self.subset([self.index_of(Pair(*p)) for p in pairs])

    def without(self, pairs: Iterable[Pair]) -> "CandidateSet":
        """A new candidate set with the given pairs removed."""
        drop = {Pair(*p) for p in pairs}
        keep = [i for i, pair in enumerate(self._pairs) if pair not in drop]
        return self.subset(keep)

    def split(self, first_indices: Sequence[int]) -> tuple["CandidateSet", "CandidateSet"]:
        """Partition into (rows at ``first_indices``, remaining rows)."""
        chosen = set(int(i) for i in first_indices)
        if not all(0 <= i < len(self) for i in chosen):
            raise DataError("split index out of range")
        rest = [i for i in range(len(self)) if i not in chosen]
        return self.subset(sorted(chosen)), self.subset(rest)

    def concat(self, other: "CandidateSet") -> "CandidateSet":
        """Concatenate two candidate sets over the same feature space."""
        if self._feature_names != other._feature_names:
            raise DataError("cannot concat candidate sets with different features")
        return CandidateSet(
            self._pairs + other._pairs,
            np.vstack([self._features, other._features]),
            self._feature_names,
        )

    def __repr__(self) -> str:
        return (
            f"CandidateSet({len(self)} pairs, "
            f"{len(self._feature_names)} features)"
        )
