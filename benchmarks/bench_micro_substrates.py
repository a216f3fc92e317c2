"""Microbenchmarks of the hot substrate paths.

Unlike the table/figure benches (single-shot pipeline runs), these are
honest multi-round pytest-benchmark measurements of the operations that
dominate wall-clock: similarity features, pair vectorization, forest
training/prediction, and rule application.  Useful for catching
performance regressions when the substrates change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ForestConfig
from repro.features.similarity import (
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
)
from repro.forest.forest import train_forest


class TestSimilarityMicro:
    S = "kingston hyperx 4gb kit 2 x 2gb ddr3 memory"
    T = "kingston 4gb hyperx ddr3 kit 1800mhz"

    def test_levenshtein(self, benchmark):
        value = benchmark(levenshtein_similarity, self.S, self.T)
        assert 0.0 <= value <= 1.0

    def test_jaro_winkler(self, benchmark):
        value = benchmark(jaro_winkler, self.S, self.T)
        assert 0.0 <= value <= 1.0

    def test_monge_elkan_cached(self, benchmark):
        """After the word-level cache warms, Monge-Elkan is cheap."""
        monge_elkan(self.S, self.T)  # warm the jaro-winkler cache
        value = benchmark(monge_elkan, self.S, self.T)
        assert value > 0.5


class TestVectorizationMicro:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.features.library import build_feature_library
        from repro.synth.restaurants import generate_restaurants
        dataset = generate_restaurants(n_a=80, n_b=60, n_matches=20,
                                       seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        pairs = [
            (a.record_id, b.record_id)
            for a in dataset.table_a for b in dataset.table_b
        ][:1000]
        return dataset, library, pairs

    def test_vectorize_1k_pairs(self, benchmark, world):
        from repro.data.pairs import Pair
        from repro.features.vectorize import vectorize_pairs
        dataset, library, pairs = world
        result = benchmark.pedantic(
            lambda: vectorize_pairs(
                dataset.table_a, dataset.table_b,
                [Pair(*p) for p in pairs], library,
            ),
            rounds=3, iterations=1,
        )
        assert len(result) == 1000


class TestEngineThroughput:
    """Scalar vs batched vectorization on products at 10k pairs.

    The pair of timings (same pairs, same library) is the headline
    number for the batched feature-evaluation engine: ``scalar`` is a
    per-pair ``Feature.value`` loop, ``batched`` is ``vectorize_pairs``.
    ``collect_results.py --substrates`` distills their ratio into the
    ``BENCH_substrates.json`` baseline.
    """

    N_PAIRS = 10_000

    @pytest.fixture(scope="class")
    def products_world(self):
        from repro.data.pairs import Pair
        from repro.features.library import build_feature_library
        from repro.synth.products import generate_products
        dataset = generate_products(n_a=250, n_b=2200, n_matches=115,
                                    seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        a_ids = [r.record_id for r in dataset.table_a]
        b_ids = [r.record_id for r in dataset.table_b]
        rng = np.random.default_rng(2)
        flat = rng.choice(len(a_ids) * len(b_ids), size=self.N_PAIRS,
                          replace=False)
        pairs = [
            Pair(a_ids[index // len(b_ids)], b_ids[index % len(b_ids)])
            for index in flat
        ]
        return dataset, library, pairs

    @staticmethod
    def _scalar(dataset, library, pairs) -> np.ndarray:
        matrix = np.empty((len(pairs), len(library)), dtype=np.float64)
        for row, pair in enumerate(pairs):
            record_a = dataset.table_a[pair.a_id]
            record_b = dataset.table_b[pair.b_id]
            for col, feature in enumerate(library):
                matrix[row, col] = feature.value(record_a, record_b)
        return matrix

    def _run(self, benchmark, products_world, engine, rounds):
        from repro.features.vectorize import vectorize_pairs
        dataset, library, pairs = products_world
        if engine == "scalar":
            def run():
                return self._scalar(dataset, library, pairs)
        else:
            def run():
                return vectorize_pairs(dataset.table_a, dataset.table_b,
                                       pairs, library)
        result = benchmark.pedantic(run, rounds=rounds, iterations=1,
                                    warmup_rounds=1)
        benchmark.extra_info["engine"] = engine
        benchmark.extra_info["pairs"] = self.N_PAIRS
        assert len(result) == self.N_PAIRS

    def test_vectorize_products_10k_scalar(self, benchmark,
                                           products_world):
        self._run(benchmark, products_world, "scalar", rounds=2)

    def test_vectorize_products_10k_batched(self, benchmark,
                                            products_world):
        self._run(benchmark, products_world, "batched", rounds=5)


class TestStringKernelMicro:
    """String and token-set kernels over a whole A x B, as one e2e
    instance meets them (``benchmarks/e2e`` workloads ``restaurants``
    and ``citations``).

    Each round starts from fresh copies of the tables, so it builds
    every prepared array (Monge-Elkan's word table included), because
    every e2e instance is a fresh process.
    """

    @staticmethod
    def _fresh_cross(dataset):
        """Setup for ``benchmark.pedantic``: unwarmed copies of both
        tables and all of A x B as row arrays."""
        from repro.data.table import Table

        def setup():
            table_a, table_b = (Table(table.name, table.schema, list(table))
                                for table in (dataset.table_a,
                                              dataset.table_b))
            rows_a, rows_b = np.divmod(
                np.arange(len(table_a) * len(table_b)), len(table_b))
            return (table_a, rows_a, table_b, rows_b), {}
        return setup

    def _restaurants_columns(self, benchmark, measures):
        from repro.features.library import build_feature_library
        from repro.synth.restaurants import generate_restaurants
        dataset = generate_restaurants(180, 120, 40)
        features = [
            feature for feature in build_feature_library(
                dataset.table_a, dataset.table_b)
            if feature.measure in measures
        ]

        def run(table_a, rows_a, table_b, rows_b):
            return [feature.batch_value(table_a, rows_a, table_b, rows_b)
                    for feature in features]

        columns = benchmark.pedantic(run, setup=self._fresh_cross(dataset),
                                     rounds=3, iterations=1)
        benchmark.extra_info["features"] = len(features)
        benchmark.extra_info["pairs"] = len(dataset.table_a) * len(
            dataset.table_b)
        return columns

    def test_levenshtein_jaro_winkler_restaurants_axb(self, benchmark):
        """Every Levenshtein and Jaro-Winkler feature, 180 x 120 pairs."""
        columns = self._restaurants_columns(
            benchmark, ("levenshtein", "jaro_winkler"))
        assert len(columns) == 10

    def test_jaccard_restaurants_axb(self, benchmark):
        """Every word and 3-gram Jaccard feature, 180 x 120 pairs."""
        columns = self._restaurants_columns(
            benchmark, ("jaccard_word", "jaccard_qgram"))
        assert len(columns) == 10

    def test_monge_elkan_citations_title_axb(self, benchmark):
        """``title_monge_elkan`` over 100 x 1000 pairs, cold word table."""
        from repro.features.library import build_feature_library
        from repro.synth.citations import generate_citations
        dataset = generate_citations(100, 1000, 200)
        feature = build_feature_library(
            dataset.table_a, dataset.table_b)["title_monge_elkan"]
        column = benchmark.pedantic(
            feature.batch_value, setup=self._fresh_cross(dataset),
            rounds=3, iterations=1,
        )
        benchmark.extra_info["pairs"] = column.size
        assert column.shape == (100_000,)


class TestForestMicro:
    @pytest.fixture(scope="class")
    def training_data(self):
        rng = np.random.default_rng(3)
        x = rng.random((400, 16))
        y = (x[:, 0] + x[:, 1]) > 1.0
        probe = rng.random((20_000, 16))
        return x, y, probe

    def test_train_400x16(self, benchmark, training_data):
        x, y, _ = training_data
        forest = benchmark.pedantic(
            lambda: train_forest(x, y, ForestConfig(),
                                 np.random.default_rng(1)),
            rounds=3, iterations=1,
        )
        assert len(forest) == 10

    def test_predict_20k(self, benchmark, training_data):
        x, y, probe = training_data
        forest = train_forest(x, y, ForestConfig(),
                              np.random.default_rng(1))
        predictions = benchmark.pedantic(
            lambda: forest.predict(probe), rounds=3, iterations=1
        )
        assert predictions.shape == (20_000,)

    def test_entropy_20k(self, benchmark, training_data):
        x, y, probe = training_data
        forest = train_forest(x, y, ForestConfig(),
                              np.random.default_rng(1))
        entropy = benchmark.pedantic(
            lambda: forest.entropy(probe), rounds=3, iterations=1
        )
        assert entropy.shape == (20_000,)


class TestRuleMicro:
    def test_rule_application_100k_rows(self, benchmark):
        from repro.rules.predicates import Predicate
        from repro.rules.rule import Rule
        rng = np.random.default_rng(5)
        matrix = rng.random((100_000, 8))
        matrix[::17, 3] = np.nan
        rule = Rule(
            [
                Predicate(0, "f0", True, 0.4),
                Predicate(3, "f3", False, 0.2, nan_satisfies=True),
            ],
            predicts_match=False,
        )
        mask = benchmark(rule.applies, matrix)
        assert mask.shape == (100_000,)
