"""Tuple pairs, pair sequences held as table rows, and candidate sets.

After blocking, Corleone operates on a *candidate set* C of tuple pairs,
each converted into a feature vector (Section 5.1).  :class:`CandidateSet`
bundles the pairs with their feature matrix so that every downstream module
(matcher, estimator, locator) shares one representation.

A run holds many pairs at once — the blocker's sample S, the blocking
survivors, the candidate set — so a pair is stored as two table rows,
not as a Python object: :class:`PairRows` keeps two aligned int64 row
arrays and each table's ids, held once and shared, and builds a
:class:`Pair` only when one is read (a crowd question, a predicted
match, a report line).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ..exceptions import DataError
from .table import RecordIds

_ITER_BLOCK = 65_536
"""Rows converted to Python ints at a time while iterating pairs."""


class Pair(NamedTuple):
    """An (a_id, b_id) tuple pair across the two input tables."""

    a_id: str
    b_id: str


def _frozen_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise DataError("pair rows must be 1-dimensional")
    rows.setflags(write=False)
    return rows


class PairRows(Sequence[Pair]):
    """A read-only sequence of pairs held as two aligned row arrays.

    Pair ``i`` is ``Pair(ids_a[rows_a[i]], ids_b[rows_b[i]])``, built
    when it is read.  Each side's ids are a :class:`~repro.data.table.
    RecordIds`, shared, never copied, by every sequence derived from
    this one (:meth:`take`, :meth:`concat`, slices); a producer passes a
    table's :attr:`~repro.data.table.Table.ids`, so all pairs over a
    table share its ids and their id -> row map.  Rows stay valid
    because tables only grow.

    Looking pairs up (:meth:`indices`, ``in``) goes
    through one lookup built on first use: the codes ``a_row *
    len(ids_b) + b_row``, sorted, searched with
    :func:`numpy.searchsorted`.  A sequence already in code order —
    what the A-major producers emit — keeps its codes as the lookup
    without an order array.
    """

    __slots__ = ("_rows_a", "_rows_b", "_a", "_b", "_sorted")

    def __init__(self, rows_a: np.ndarray, rows_b: np.ndarray,
                 ids_a: Sequence[str], ids_b: Sequence[str]) -> None:
        self._rows_a = _frozen_rows(rows_a)
        self._rows_b = _frozen_rows(rows_b)
        if self._rows_a.size != self._rows_b.size:
            raise DataError(f"{self._rows_a.size} A rows but "
                            f"{self._rows_b.size} B rows")
        self._a = ids_a if isinstance(ids_a, RecordIds) else RecordIds(ids_a)
        self._b = ids_b if isinstance(ids_b, RecordIds) else RecordIds(ids_b)
        self._sorted: tuple[np.ndarray, np.ndarray | None] | None = None

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "PairRows":
        """``pairs`` as rows: a :class:`PairRows` as it is; any other
        iterable of ``(a_id, b_id)`` pairs converted once, each side's
        ids numbered in order of first appearance."""
        if isinstance(pairs, PairRows):
            return pairs
        row_a: dict[str, int] = {}
        row_b: dict[str, int] = {}
        rows_a: list[int] = []
        rows_b: list[int] = []
        for a_id, b_id in pairs:
            rows_a.append(row_a.setdefault(a_id, len(row_a)))
            rows_b.append(row_b.setdefault(b_id, len(row_b)))
        return cls(np.array(rows_a, dtype=np.int64),
                   np.array(rows_b, dtype=np.int64), RecordIds(row_a),
                   RecordIds(row_b))

    @classmethod
    def empty(cls) -> "PairRows":
        """A sequence of no pairs."""
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, (), ())

    @property
    def rows_a(self) -> np.ndarray:
        """Each pair's row in ``ids_a`` (read-only int64)."""
        return self._rows_a

    @property
    def rows_b(self) -> np.ndarray:
        """Each pair's row in ``ids_b`` (read-only int64)."""
        return self._rows_b

    @property
    def ids_a(self) -> RecordIds:
        return self._a

    @property
    def ids_b(self) -> RecordIds:
        return self._b

    def __len__(self) -> int:
        return self._rows_a.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PairRows(self._rows_a[index], self._rows_b[index],
                            self._a, self._b)
        index = operator.index(index)
        return Pair(self._a[self._rows_a[index]], self._b[self._rows_b[index]])

    def __iter__(self) -> Iterator[Pair]:
        ids_a, ids_b = self._a, self._b
        for start in range(0, len(self), _ITER_BLOCK):
            block = slice(start, start + _ITER_BLOCK)
            yield from map(Pair,
                           map(ids_a.__getitem__,
                               self._rows_a[block].tolist()),
                           map(ids_b.__getitem__,
                               self._rows_b[block].tolist()))

    def __contains__(self, pair: object) -> bool:
        try:
            return bool(self.indices((pair,))[0] >= 0)
        except (TypeError, IndexError):
            return False

    def indices(self, pairs: Iterable) -> np.ndarray:
        """The position of each of ``pairs`` here, -1 for a pair that is
        not: one int64 entry per pair, in the order given."""
        if not isinstance(pairs, Sequence):
            pairs = list(pairs)
        rows_a = self._a.rows(pair[0] for pair in pairs)
        rows_b = self._b.rows(pair[1] for pair in pairs)
        found = np.full(rows_a.size, -1, dtype=np.int64)
        known = np.flatnonzero((rows_a >= 0) & (rows_b >= 0))
        if not len(self) or not known.size:
            return found
        codes = rows_a[known] * len(self._b) + rows_b[known]
        sorted_codes, order = self._lookup()
        at = np.searchsorted(sorted_codes, codes)
        at[at == sorted_codes.size] = 0
        hit = sorted_codes[at] == codes
        at = at[hit]
        found[known[hit]] = at if order is None else order[at]
        return found

    def _lookup(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(the codes in sorted order, each one's position — None when
        the codes already are in order), built on first use."""
        if self._sorted is None:
            codes = self._rows_a * len(self._b) + self._rows_b
            if codes.size < 2 or bool(np.all(codes[1:] > codes[:-1])):
                self._sorted = (codes, None)
            else:
                order = np.argsort(codes, kind="stable")
                self._sorted = (codes[order], order)
        return self._sorted

    def has_duplicates(self) -> bool:
        """Whether some pair occurs more than once."""
        sorted_codes, order = self._lookup()
        return order is not None and bool(
            np.any(sorted_codes[1:] == sorted_codes[:-1]))

    def take(self, positions: Sequence[int] | np.ndarray) -> "PairRows":
        """The pairs at ``positions``, in that order, over the same ids."""
        positions = np.asarray(positions, dtype=np.intp)
        return PairRows(self._rows_a[positions], self._rows_b[positions],
                        self._a, self._b)

    def concat(self, other: "PairRows") -> "PairRows":
        """This sequence followed by ``other``."""
        if self._a == other._a and self._b == other._b:
            return PairRows(np.concatenate((self._rows_a, other._rows_a)),
                            np.concatenate((self._rows_b, other._rows_b)),
                            self._a, self._b)
        return PairRows.from_pairs(itertools.chain(self, other))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairRows):
            if len(self) != len(other):
                return False
            if self._a == other._a and self._b == other._b:
                return bool(np.array_equal(self._rows_a, other._rows_a)
                            and np.array_equal(self._rows_b, other._rows_b))
            return all(map(operator.eq, self, other))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PairRows({len(self)} pairs)"


class CandidateSet:
    """An immutable set of pairs with an aligned feature matrix.

    Rows of ``features`` correspond one-to-one with ``pairs``, a
    :class:`PairRows`.  Feature values are floats; missing feature
    values are encoded as ``numpy.nan`` and handled by the decision-tree
    learner.  Any other sequence of pairs given to the constructor is
    converted once (:meth:`PairRows.from_pairs`); a :class:`PairRows`
    is kept as it is, shared with whoever produced it.

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
        rows = PairRows.from_pairs(pairs)
        if rows.has_duplicates():
            raise DataError("candidate set contains duplicate pairs")
        self._assign(rows, features, feature_names)

    def _assign(self, pairs: PairRows, features: np.ndarray,
                feature_names: Sequence[str]) -> None:
        self._pairs = pairs
        self._features = features
        self._features.setflags(write=False)
        self._feature_names: tuple[str, ...] = tuple(feature_names)

    @classmethod
    def empty(cls, feature_names: Sequence[str]) -> "CandidateSet":
        """An empty candidate set with the given feature space."""
        return cls(PairRows.empty(),
                   np.empty((0, len(feature_names)), order="F"),
                   feature_names)

    @property
    def pairs(self) -> PairRows:
        """The pairs, in row order (a read-only sequence)."""
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
        return pair in self._pairs

    def index_of(self, pair: Pair) -> int:
        """Row index of ``pair``; raises :class:`DataError` if absent."""
        row = int(self._pairs.indices((pair,))[0])
        if row < 0:
            raise DataError(f"pair {pair} not in candidate set")
        return row

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
        """A new candidate set with the rows at ``indices`` (in order).

        The rows are gathered along the pair axis of the feature-major
        transpose, so the new matrix is Fortran-ordered without a
        row-major intermediate.  Distinct rows of this set hold distinct
        pairs, so only the indices need the duplicate check.
        """
        idx = np.asarray(indices, dtype=np.intp)
        features = self._features.T.take(idx, axis=1).T
        taken = np.zeros(len(self), dtype=bool)
        taken[idx] = True
        if np.count_nonzero(taken) != idx.size:
            raise DataError("candidate set contains duplicate pairs")
        subset = CandidateSet.__new__(CandidateSet)
        subset._assign(self._pairs.take(idx), features, self._feature_names)
        return subset

    def subset_pairs(self, pairs: Iterable[Pair]) -> "CandidateSet":
        """A new candidate set restricted to the given pairs (in order)."""
        pairs = list(pairs)
        rows = self._pairs.indices(pairs)
        absent = np.flatnonzero(rows < 0)
        if absent.size:
            raise DataError(
                f"pair {Pair(*pairs[absent[0]])} not in candidate set")
        return self.subset(rows)

    def without(self, pairs: Iterable[Pair]) -> "CandidateSet":
        """A new candidate set with the given pairs removed."""
        rows = self._pairs.indices(pairs)
        keep = np.ones(len(self), dtype=bool)
        keep[rows[rows >= 0]] = False
        return self.subset(np.flatnonzero(keep))

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
            self._pairs.concat(other._pairs),
            np.concatenate((self._features.T, other._features.T),
                           axis=1).T,
            self._feature_names,
        )

    def __repr__(self) -> str:
        return (
            f"CandidateSet({len(self)} pairs, "
            f"{len(self._feature_names)} features)"
        )
