"""The tuple-of-Pairs candidate set that pair rows replaced: the oracle.

``repro.data.pairs.CandidateSet`` holds its pairs as two int64 row
arrays over each table's ids (:class:`repro.data.pairs.PairRows`) and
looks pairs up through sorted ``a_row * |B| + b_row`` codes.  This
module keeps the earlier container — a tuple of :class:`Pair` objects
and a ``Pair -> row`` dict — and the label walk
``LabelingService.known_rows`` made against that dict, so the parity
tests can require the row-indexed set to reproduce them exactly: the
same pairs in the same order, the same lookups and errors, the same
known-label vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.crowd.aggregation import VoteScheme
from repro.crowd.service import CachedLabel, LabelingService, _satisfies
from repro.data.pairs import Pair
from repro.exceptions import DataError


class OracleCandidateSet:
    """An immutable set of pairs with an aligned feature matrix.

    Rows of ``features`` correspond one-to-one with ``pairs``.  Feature
    values are floats; missing feature values are encoded as ``numpy.nan``
    and handled by the decision-tree learner.

    The matrix is stored feature-major (Fortran order): ``features[:, j]``
    is one contiguous column, which is what a rule predicate reads, and
    ``features.T`` is the C-contiguous per-feature layout the forest
    scores without a copy.  A Fortran-ordered input is kept as it is, so
    a spilled memory map stays mapped; any other layout is copied once.
    Every derived set (:meth:`subset`, :meth:`concat`, :meth:`empty`)
    is built feature-major directly.
    """

    def __init__(self, pairs: Sequence[Pair], features: np.ndarray,
                 feature_names: Sequence[str]) -> None:
        features = np.asfortranarray(features, dtype=np.float64)
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
        self._assign(tuple(p if type(p) is Pair else Pair(*p) for p in pairs),
                     features, feature_names)
        if len(self._lookup()) != len(self._pairs):
            raise DataError("candidate set contains duplicate pairs")

    def _assign(self, pairs: tuple[Pair, ...], features: np.ndarray,
                feature_names: Sequence[str]) -> None:
        self._pairs = pairs
        self._features = features
        self._features.setflags(write=False)
        self._feature_names: tuple[str, ...] = tuple(feature_names)
        self._index: dict[Pair, int] | None = None

    def _lookup(self) -> dict[Pair, int]:
        """Pair -> row, built on first use: the estimator's per-round
        subsets never look a pair up."""
        if self._index is None:
            self._index = dict(zip(self._pairs, range(len(self._pairs))))
        return self._index

    @classmethod
    def empty(cls, feature_names: Sequence[str]) -> "OracleCandidateSet":
        """An empty candidate set with the given feature space."""
        return cls((), np.empty((0, len(feature_names)), order="F"),
                   feature_names)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return self._pairs

    @property
    def features(self) -> np.ndarray:
        """The (read-only) n_pairs x n_features matrix, Fortran-ordered."""
        return self._features

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._feature_names

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._lookup()

    def pair_index(self) -> dict[Pair, int]:
        """Pair -> row for every pair of the set (built on first use and
        kept; callers must not modify it)."""
        return self._lookup()

    def index_of(self, pair: Pair) -> int:
        """Row index of ``pair``; raises :class:`DataError` if absent."""
        try:
            return self._lookup()[pair]
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

    def subset(self, indices: Sequence[int]) -> "OracleCandidateSet":
        """A new candidate set with the rows at ``indices`` (in order).

        The rows are gathered along the pair axis of the feature-major
        transpose, so the new matrix is Fortran-ordered without a
        row-major intermediate.  Distinct rows of this set hold distinct
        Pairs, so only the indices need the duplicate check.
        """
        idx = np.asarray(indices, dtype=np.intp)
        features = self._features.T.take(idx, axis=1).T
        taken = np.zeros(len(self), dtype=bool)
        taken[idx] = True
        if np.count_nonzero(taken) != idx.size:
            raise DataError("candidate set contains duplicate pairs")
        subset = OracleCandidateSet.__new__(OracleCandidateSet)
        subset._assign(tuple(self._pairs[i] for i in idx.tolist()),
                       features, self._feature_names)
        return subset

    def subset_pairs(self, pairs: Iterable[Pair]) -> "OracleCandidateSet":
        """A new candidate set restricted to the given pairs (in order)."""
        return self.subset([self.index_of(Pair(*p)) for p in pairs])

    def without(self, pairs: Iterable[Pair]) -> "OracleCandidateSet":
        """A new candidate set with the given pairs removed."""
        drop = {Pair(*p) for p in pairs}
        keep = [i for i, pair in enumerate(self._pairs) if pair not in drop]
        return self.subset(keep)

    def split(self, first_indices: Sequence[int]) -> tuple["OracleCandidateSet", "OracleCandidateSet"]:
        """Partition into (rows at ``first_indices``, remaining rows)."""
        chosen = set(int(i) for i in first_indices)
        if not all(0 <= i < len(self) for i in chosen):
            raise DataError("split index out of range")
        rest = [i for i in range(len(self)) if i not in chosen]
        return self.subset(sorted(chosen)), self.subset(rest)

    def concat(self, other: "OracleCandidateSet") -> "OracleCandidateSet":
        """Concatenate two candidate sets over the same feature space."""
        if self._feature_names != other._feature_names:
            raise DataError("cannot concat candidate sets with different features")
        return OracleCandidateSet(
            self._pairs + other._pairs,
            np.concatenate((self._features.T, other._features.T),
                           axis=1).T,
            self._feature_names,
        )

    def __repr__(self) -> str:
        return (
            f"OracleCandidateSet({len(self)} pairs, "
            f"{len(self._feature_names)} features)"
        )


def oracle_known_rows(service: LabelingService,
                      candidates: OracleCandidateSet,
                      scheme: VoteScheme | None = None) -> np.ndarray:
    """``LabelingService.known_rows`` as it walked the label cache
    against the set's ``Pair -> row`` dict."""
    index = candidates.pair_index()
    rows: list[int] = []
    values: list[bool] = []
    for a_id, b_id, label, strong in service.cache_state():
        row = index.get(Pair(a_id, b_id))
        entry = CachedLabel(label, strong=strong)
        if row is not None and (scheme is None
                                or _satisfies(entry, scheme)):
            rows.append(row)
            values.append(entry.label)
    labels = np.full(len(candidates), -1, dtype=np.int8)
    labels[rows] = values
    return labels
