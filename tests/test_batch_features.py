"""Scalar-vs-batched feature parity: the batch engine's core contract.

``Feature.batch_value`` must reproduce the per-pair ``Feature.value``
loop bit for bit — including NaN positions for missing values — on every
measure and every dataset family.  The scalar path is the parity oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.pairs import Pair
from repro.data.table import AttrType, Record, Schema, Table
from repro.exceptions import FeatureError
from repro.features.library import Feature, build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants
from repro.synth.songs import generate_songs

_GENERATORS = {
    "restaurants": generate_restaurants,
    "citations": generate_citations,
    "products": generate_products,
    "songs": generate_songs,
}


def _random_pairs(table_a: Table, table_b: Table, count: int,
                  seed: int) -> list[Pair]:
    """``count`` distinct random pairs of the two tables."""
    a_ids = [record.record_id for record in table_a]
    b_ids = [record.record_id for record in table_b]
    total = len(a_ids) * len(b_ids)
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=min(count, total), replace=False)
    return [
        Pair(a_ids[index // len(b_ids)], b_ids[index % len(b_ids)])
        for index in flat
    ]


def _scalar_matrix(table_a: Table, table_b: Table, pairs,
                   library) -> np.ndarray:
    """The parity oracle: one ``Feature.value`` call per pair and column."""
    matrix = np.empty((len(pairs), len(library)), dtype=np.float64)
    for row, pair in enumerate(pairs):
        record_a = table_a[pair.a_id]
        record_b = table_b[pair.b_id]
        for col, feature in enumerate(library):
            matrix[row, col] = feature.value(record_a, record_b)
    return matrix


def _assert_parity(table_a: Table, table_b: Table, pairs, library) -> None:
    scalar = _scalar_matrix(table_a, table_b, pairs, library)
    batched = vectorize_pairs(table_a, table_b, pairs, library).features
    assert np.array_equal(scalar, batched, equal_nan=True)


def test_parity_suite_covers_every_library_measure():
    """The datasets above exercise the full measure registry.

    The parity tests are only as strong as the measures the four
    synthetic schemas generate: if a library measure never appears in
    any extended feature library, batched/scalar parity for it is
    untested.  Assert the union of generated measures equals the
    registry backing ``build_feature_library`` (the same registry the
    CL003 kernel-parity lint rule diffs against the batched kernels).
    """
    from repro.features.library import _MEASURE_COSTS

    generated: set[str] = set()
    for generate in _GENERATORS.values():
        dataset = generate(n_a=12, n_b=10, n_matches=4, seed=3)
        library = build_feature_library(dataset.table_a, dataset.table_b,
                                        extended=True)
        generated.update(feature.measure for feature in library)
    missing = set(_MEASURE_COSTS) - generated
    assert not missing, (
        f"library measures never exercised by the parity suite: "
        f"{sorted(missing)}"
    )


class TestDatasetParity:
    """Exact parity across every synthetic dataset family and measure."""

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_batched_equals_scalar(self, name, extended):
        dataset = _GENERATORS[name](n_a=40, n_b=30, n_matches=10, seed=3)
        library = build_feature_library(dataset.table_a, dataset.table_b,
                                        extended=extended)
        pairs = _random_pairs(dataset.table_a, dataset.table_b, 400, seed=5)
        _assert_parity(dataset.table_a, dataset.table_b, pairs, library)

    def test_repeat_call_uses_warm_cache(self):
        """A second batched run (warm per-table caches) stays identical."""
        dataset = generate_restaurants(n_a=30, n_b=20, n_matches=8, seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        pairs = _random_pairs(dataset.table_a, dataset.table_b, 200, seed=1)
        first = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                                library).features
        second = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                                 library).features
        np.testing.assert_array_equal(first, second)


class TestMissingValues:
    def test_nan_positions_match_scalar(self, book_tables):
        """Missing values NaN out in exactly the scalar positions —
        including for records added after the table cache was warmed."""
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        # Warm the per-table caches, then grow the table.
        vectorize_pairs(table_a, table_b, pairs, library)
        table_a.add(Record("a9", {"title": None, "author": "late arrival",
                                  "pages": None}))
        pairs += [Pair("a9", b.record_id) for b in table_b]
        _assert_parity(table_a, table_b, pairs, library)
        out = vectorize_pairs(table_a, table_b, pairs, library)
        title_col = out.feature_index("title_levenshtein")
        assert math.isnan(out.features[-1, title_col])


class TestFallbackAndErrors:
    def test_feature_without_kernel_falls_back_to_scalar(self, book_tables):
        table_a, table_b = book_tables
        feature = Feature(
            name="title_length_parity", attribute="title",
            measure="length_parity", cost=1.0,
            compute=lambda a, b: float(len(str(a)) == len(str(b))),
        )
        assert feature.batch_compute is None
        records_a = list(table_a)
        records_b = list(table_b)
        expected = [feature.value(a, b)
                    for a, b in zip(records_a, records_b)]
        np.testing.assert_array_equal(
            feature.batch_value(records_a, records_b), expected
        )

    def test_mismatched_lengths_rejected(self, book_tables):
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b)
        feature = library.features[0]
        with pytest.raises(FeatureError):
            feature.batch_value(list(table_a), list(table_b)[:1])


_VALUE_TEXT = st.one_of(
    st.none(),
    st.text(alphabet="abc XY1.-", max_size=12),
)
_VALUE_NUM = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5).map(float),
)
_ROWS = st.lists(st.tuples(_VALUE_TEXT, _VALUE_TEXT, _VALUE_NUM),
                 min_size=1, max_size=5)


class TestPropertyParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_a=_ROWS, rows_b=_ROWS)
    def test_arbitrary_values(self, rows_a, rows_b):
        """Parity holds on arbitrary (messy, partly missing) tables."""
        schema = Schema.from_pairs([
            ("code", AttrType.STRING),
            ("blurb", AttrType.TEXT),
            ("amount", AttrType.NUMERIC),
        ])

        def build(name, rows):
            return Table(name, schema, [
                Record(f"{name}{i}",
                       {"code": code, "blurb": blurb, "amount": amount})
                for i, (code, blurb, amount) in enumerate(rows)
            ])

        table_a = build("a", rows_a)
        table_b = build("b", rows_b)
        library = build_feature_library(table_a, table_b, extended=True)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        _assert_parity(table_a, table_b, pairs, library)
