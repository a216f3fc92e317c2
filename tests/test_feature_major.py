"""Feature-major candidate sets: one layout from every construction path.

A candidate set stores its matrix in Fortran order, so a rule predicate
reads one contiguous column and the forest scores ``features.T``
without a copy.  These tests pin the layout on every way a candidate
set is built, and hold rules and the forest byte-equal across layouts
and subsets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ForestConfig
from repro.data.pairs import CandidateSet, Pair
from repro.data.sampling import iter_cartesian
from repro.exceptions import DataError
from repro.features.library import build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.forest.forest import train_forest
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.restaurants import generate_restaurants


def assert_feature_major(candidates: CandidateSet) -> None:
    """Fortran-ordered, and the forest's per-feature view is a view."""
    features = candidates.features
    assert features.flags.f_contiguous
    columns = features.T
    assert np.ascontiguousarray(columns) is columns


@pytest.fixture(scope="module")
def restaurants():
    dataset = generate_restaurants(n_a=20, n_b=15, n_matches=6, seed=3)
    library = build_feature_library(dataset.table_a, dataset.table_b)
    pairs = list(iter_cartesian(dataset.table_a, dataset.table_b))[:120]
    return dataset, library, pairs


@pytest.fixture(scope="module")
def candidates(restaurants):
    dataset, library, pairs = restaurants
    return vectorize_pairs(dataset.table_a, dataset.table_b, pairs, library)


class TestEveryConstructionIsFeatureMajor:
    def test_vectorize_without_out(self, candidates):
        assert_feature_major(candidates)

    def test_vectorize_into_fortran_out(self, restaurants, candidates):
        dataset, library, pairs = restaurants
        out = np.empty((len(pairs), len(library)), order="F")
        filled = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                                 library, out=out)
        assert_feature_major(filled)
        assert np.shares_memory(filled.features, out)
        assert np.array_equal(filled.features, candidates.features,
                              equal_nan=True)

    def test_vectorize_rejects_row_major_out(self, restaurants):
        dataset, library, pairs = restaurants
        out = np.empty((len(pairs), len(library)))
        with pytest.raises(DataError, match="Fortran"):
            vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                            library, out=out)

    def test_row_major_input_is_copied_once(self):
        rows = np.arange(12.0).reshape(4, 3)
        candidates = CandidateSet(
            [Pair(f"a{i}", "b") for i in range(4)], rows, ["x", "y", "z"])
        assert_feature_major(candidates)
        assert not np.shares_memory(candidates.features, rows)
        assert np.array_equal(candidates.features, rows)

    def test_subset_and_friends(self, candidates):
        pairs = candidates.pairs
        first, rest = candidates.split([5, 1, 9])
        for derived in (
            candidates.subset([7, 3, 0, 11]),
            candidates.subset(np.arange(len(candidates))[::2]),
            candidates.subset_pairs([pairs[4], pairs[2]]),
            candidates.without(pairs[:10]),
            first,
            rest,
            first.concat(rest),
            CandidateSet.empty(candidates.feature_names),
            candidates.subset([]),
        ):
            assert_feature_major(derived)

    def test_subset_rejects_repeated_rows(self, candidates):
        with pytest.raises(DataError, match="duplicate"):
            candidates.subset([3, 4, 3])
        with pytest.raises(DataError, match="duplicate"):
            candidates.subset([len(candidates) - 1, -1])


@st.composite
def matrices(draw):
    """Small matrices with NaN cells and at least one constant column."""
    n_rows = draw(st.integers(2, 30))
    n_cols = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = np.round(rng.random((n_rows, n_cols)), 1)
    matrix[rng.random((n_rows, n_cols)) < draw(st.sampled_from(
        [0.0, 0.1, 0.4]))] = np.nan
    constant = draw(st.integers(0, n_cols - 1))
    matrix[:, constant] = draw(st.sampled_from([0.0, 0.5, np.nan]))
    return matrix, rng


@settings(max_examples=40, deadline=None)
@given(case=matrices())
def test_rules_and_forest_agree_across_layouts(case):
    """Rule coverage, vote fractions and entropy are byte-equal on a
    C-ordered copy, a Fortran-ordered copy and a candidate subset."""
    matrix, rng = case
    n_rows, n_cols = matrix.shape
    row_major = np.ascontiguousarray(matrix)
    feature_major = np.asfortranarray(matrix)
    names = [f"f{j}" for j in range(n_cols)]
    candidates = CandidateSet([Pair(f"a{i}", "b") for i in range(n_rows)],
                              row_major, names)
    rows = rng.permutation(n_rows)[:max(1, n_rows // 2)]
    subset = candidates.subset(rows)

    rule = Rule([Predicate(int(j), names[j], bool(rng.random() < 0.5),
                           float(np.round(rng.random(), 1)),
                           nan_satisfies=bool(rng.random() < 0.5))
                 for j in rng.choice(n_cols, size=2, replace=False)],
                predicts_match=False)
    covered = rule.applies(row_major)
    assert np.array_equal(rule.applies(feature_major), covered)
    assert np.array_equal(rule.applies(candidates.features), covered)
    assert np.array_equal(rule.applies(subset.features), covered[rows])

    labels = np.nan_to_num(matrix[:, 0]) > 0.5
    labels[0] = not labels[1]
    forest = train_forest(row_major, labels, ForestConfig(n_trees=4), rng)
    votes = forest.vote_fractions(row_major)
    assert forest.vote_fractions(feature_major).tobytes() == votes.tobytes()
    assert forest.vote_fractions(subset.features).tobytes() == \
        votes[rows].tobytes()
    entropy = forest.entropy(row_major)
    assert forest.entropy(feature_major).tobytes() == entropy.tobytes()
    assert forest.entropy(subset.features).tobytes() == \
        forest.entropy(row_major[rows]).tobytes()
