"""Microbenchmarks of the hot substrate paths.

Unlike the table/figure benches (single-shot pipeline runs), these are
honest multi-round pytest-benchmark measurements of the operations that
dominate wall-clock: similarity features, pair vectorization, forest
training/prediction, and rule application.  Useful for catching
performance regressions when the substrates change.
``TestKernelMemoryMicro`` also asserts the transient memory of the
batched feature kernels, and ``TestPairMemoryMicro`` the bytes a run
keeps per pair, so even an untimed ``--benchmark-disable`` pass fails
when a kernel's temporaries grow back or pairs become objects again.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.config import ForestConfig
from repro.features.similarity import (
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
)
from repro.forest.forest import train_forest

# The scalar arm's per-pair oracle lives in the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.feature_oracle import ScalarLibrary  # noqa: E402


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
    number for the batched feature-evaluation engine: ``scalar`` is the
    per-pair oracle of ``tests/feature_oracle.py``, ``batched`` is
    ``vectorize_pairs``.
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

    def _run(self, benchmark, products_world, engine, rounds):
        from repro.features.vectorize import vectorize_pairs
        dataset, library, pairs = products_world
        if engine == "scalar":
            scalar = ScalarLibrary(dataset.table_a, dataset.table_b)

            def run():
                return scalar.matrix(dataset.table_a, dataset.table_b,
                                     pairs)
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


def _transient_peak_mb(call) -> float:
    """The tracemalloc peak of one ``call()`` above the memory traced
    when it starts, in MB (10**6 bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 1e6


def _fresh_tables(dataset):
    """Unwarmed copies of a dataset's tables: no prepared column yet."""
    from repro.data.table import Table
    return tuple(Table(table.name, table.schema, list(table))
                 for table in (dataset.table_a, dataset.table_b))


@pytest.fixture(scope="module")
def kernel_datasets():
    from repro.synth.citations import generate_citations
    from repro.synth.restaurants import generate_restaurants
    return {"restaurants": generate_restaurants(180, 120, 40),
            "citations": generate_citations(100, 1000, 200)}


class TestKernelMemoryMicro:
    """Transient memory of one batched kernel call over a whole A x B
    (restaurants 180 x 120, citations 100 x 1000), and of building a
    1000 x 1000 Monge-Elkan word table.

    Each call starts from fresh table copies, as in a fresh e2e
    instance, after one untraced call has interned the strings.  The
    tracemalloc peak is recorded as ``extra_info["peak_mb"]`` and must
    stay within ``bound_mb``: the kernels size their temporaries from
    one element budget (``repro.features.batch._BLOCK_ELEMENTS``), so
    the peaks do not grow with the pair count, the string lengths or
    the vocabularies.  The timed rounds run untraced.
    """

    @pytest.mark.parametrize("dataset, feature, bound_mb", [
        pytest.param(dataset, feature, bound_mb, id=f"{dataset}-{feature}")
        for dataset, feature, bound_mb in [
            ("restaurants", "addr_jaro_winkler", 8.0),
            ("restaurants", "addr_levenshtein", 8.0),
            ("restaurants", "name_jaccard_qgram", 8.0),
            ("citations", "title_cosine_tfidf", 10.0),
            ("citations", "title_monge_elkan", 12.0),
            ("citations", "venue_jaccard_qgram", 8.0),
        ]
    ])
    def test_kernel_axb(self, benchmark, kernel_datasets, dataset, feature,
                        bound_mb):
        from repro.features.library import build_feature_library
        data = kernel_datasets[dataset]
        kernel = build_feature_library(data.table_a, data.table_b)[feature]

        def setup():
            table_a, table_b = _fresh_tables(data)
            rows_a, rows_b = np.divmod(
                np.arange(len(table_a) * len(table_b)), len(table_b))
            return (table_a, rows_a, table_b, rows_b), {}

        args, _ = setup()
        kernel.batch_value(*args)
        args, _ = setup()
        peak_mb = _transient_peak_mb(lambda: kernel.batch_value(*args))
        column = benchmark.pedantic(kernel.batch_value, setup=setup,
                                    rounds=5, iterations=1)
        benchmark.extra_info.update(pairs=column.size, bound_mb=bound_mb,
                                    peak_mb=round(peak_mb, 2))
        assert peak_mb <= bound_mb, (feature, peak_mb)

    def test_word_table_1000x1000(self, benchmark):
        """Build the Jaro-Winkler table of two 1000-word vocabularies:
        1M word pairs, an 8 MB table."""
        from repro.data.table import AttrType, Record, Schema, Table
        from repro.features import batch

        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        rng = np.random.default_rng(11)
        words = set()
        while len(words) < 2000:
            words.add("".join(rng.choice(letters, rng.integers(3, 13))))
        words = sorted(words)
        schema = Schema.from_pairs([("word", AttrType.TEXT)])

        def setup():
            table_a, table_b = (
                Table(name, schema, [Record(f"{name}{i}", {"word": word})
                                     for i, word in enumerate(chunk)])
                for name, chunk in (("a", words[::2]), ("b", words[1::2])))
            column_a = batch.prepared_column(table_a, "word")
            column_b = batch.prepared_column(table_b, "word")
            column_a.words(), column_b.words()
            return (column_a, column_b), {}

        def build(column_a, column_b):
            return column_a.word_table(column_b)

        args, _ = setup()
        peak_mb = _transient_peak_mb(lambda: build(*args))
        table = benchmark.pedantic(build, setup=setup, rounds=3,
                                   iterations=1)
        benchmark.extra_info.update(word_pairs=table.values.size,
                                    bound_mb=50.0, peak_mb=round(peak_mb, 2))
        assert table.values.shape == (1000, 1000)
        assert peak_mb <= 50.0, peak_mb


def _retained_bytes(call):
    """``call()``'s result and the bytes tracemalloc still traces once it
    has returned, above the traced memory when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = call()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return kept, retained


class TestPairMemoryMicro:
    """Bytes a run keeps per pair, features excluded: the restaurants
    180 x 120 never-blocked candidate set, and the survivors of a
    citations 100 x 1000 blocking pass.

    A pair is two table rows (``repro.data.pairs.PairRows``: two int64
    arrays, plus the sorted codes its lookup keeps), where a ``Pair``
    object in a list, a tuple and a dict cost 139 bytes.  Each is
    measured with tracemalloc on warmed tables (prepared columns and
    id tuples built by an untraced first call), recorded as
    ``extra_info["bytes_per_pair"]`` and must stay within ``BOUND``,
    also under ``--benchmark-disable``.  The timed rounds run untraced.
    """

    BOUND = 40.0

    def test_never_blocked_candidate_set(self, benchmark, kernel_datasets):
        from repro.config import CorleoneConfig, CrowdConfig
        from repro.core.blocker import Blocker
        from repro.crowd.service import LabelingService
        from repro.crowd.simulated import PerfectCrowd
        from repro.features.library import build_feature_library
        from repro.features.vectorize import vectorize_pairs

        data = kernel_datasets["restaurants"]
        library = build_feature_library(data.table_a, data.table_b)
        service = LabelingService(PerfectCrowd(frozenset()), CrowdConfig())

        def build():
            """Blocking skipped (|A x B| <= t_B), then vectorized, with
            the lookup every label query reads."""
            blocker = Blocker(CorleoneConfig(), service,
                              np.random.default_rng(0))
            result = blocker.run(data.table_a, data.table_b, library, {})
            candidates = vectorize_pairs(data.table_a, data.table_b,
                                         result.candidate_pairs, library)
            service.known_rows(candidates)
            return result, candidates

        build()
        (result, candidates), retained = _retained_bytes(build)
        per_pair = (retained - candidates.features.nbytes) / len(candidates)
        benchmark.pedantic(build, rounds=3, iterations=1)
        benchmark.extra_info.update(pairs=len(candidates),
                                    bytes_per_pair=round(per_pair, 1),
                                    bound=self.BOUND)
        assert not result.triggered
        assert len(candidates) == len(data.table_a) * len(data.table_b)
        assert per_pair <= self.BOUND, per_pair

    def test_blocking_survivors(self, benchmark, kernel_datasets):
        from repro.exec import apply_rules_sharded
        from repro.features.library import build_feature_library
        from repro.rules.predicates import Predicate
        from repro.rules.rule import Rule

        data = kernel_datasets["citations"]
        library = build_feature_library(data.table_a, data.table_b)
        # About 11% of A x B survives, as with t_B = 12,000.
        name = "title_jaccard_word"
        rules = [Rule([Predicate(library.names.index(name), name, True,
                                 0.1)], predicts_match=False)]

        def block():
            """One blocking pass, with the lookup the candidate set
            built from its survivors reads."""
            survivors = apply_rules_sharded(data.table_a, data.table_b,
                                            rules, library)
            survivors.indices(survivors[:1])
            return survivors

        block()
        survivors, retained = _retained_bytes(block)
        per_pair = retained / len(survivors)
        benchmark.pedantic(block, rounds=3, iterations=1)
        benchmark.extra_info.update(pairs=len(survivors),
                                    bytes_per_pair=round(per_pair, 1),
                                    bound=self.BOUND)
        assert 1000 < len(survivors) < len(data.table_a) * len(data.table_b)
        assert per_pair <= self.BOUND, per_pair


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

    def test_score_feature_major_21600x25(self, benchmark):
        """Score a restaurants-shaped candidate set: 21,600 pairs of 25
        features in Fortran order, as an active-learning step does,
        with five columns holding NaN, so the node masks route it."""
        rng = np.random.default_rng(7)
        nan_columns = np.arange(5)
        x = rng.random((400, 25))
        x[:, nan_columns] = np.where(rng.random((400, 5)) < 0.3, np.nan,
                                     x[:, nan_columns])
        y = np.nan_to_num(x[:, 0], nan=1.0) + x[:, 5] > 1.0
        forest = train_forest(x, y, ForestConfig(), np.random.default_rng(2))
        matrix = np.asfortranarray(rng.random((21_600, 25)))
        matrix[:, nan_columns] = np.where(
            rng.random((21_600, 5)) < 0.3, np.nan, matrix[:, nan_columns])
        votes = benchmark.pedantic(
            lambda: forest.vote_fractions(matrix), rounds=5, iterations=1
        )
        assert votes.shape == (21_600,)
        # Some split sends NaN left on a column that holds NaN.
        assert any(np.isin(tree.feature[tree.nan_left & ~tree.is_leaf],
                           nan_columns).any() for tree in forest.trees)

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

    def test_select_top_k_restaurants_axb(self, benchmark):
        """Rank a trained forest's negative rules over the restaurants
        180 x 120 candidate set, as the estimator and locator do."""
        from repro.data.sampling import iter_cartesian
        from repro.features.library import build_feature_library
        from repro.features.vectorize import vectorize_pairs
        from repro.rules.extraction import extract_negative_rules
        from repro.rules.selection import select_top_k
        from repro.synth.restaurants import generate_restaurants
        dataset = generate_restaurants(180, 120, 40)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        candidates = vectorize_pairs(
            dataset.table_a, dataset.table_b,
            list(iter_cartesian(dataset.table_a, dataset.table_b)), library)
        # Each predicate reads one contiguous column only while the
        # matrix is feature-major.
        assert candidates.features.flags.f_contiguous
        truth = np.array([pair in dataset.matches
                          for pair in candidates.pairs])
        rng = np.random.default_rng(4)
        train = np.union1d(np.flatnonzero(truth),
                           rng.choice(len(candidates), 400, replace=False))
        forest = train_forest(candidates.features[train], truth[train],
                              ForestConfig(), rng)
        rules = extract_negative_rules(forest, library.names)
        known = np.full(len(candidates), -1, dtype=np.int8)
        known[train] = truth[train]
        ranked = benchmark.pedantic(
            lambda: select_top_k(rules, candidates.features, known, 20),
            rounds=5, iterations=1,
        )
        benchmark.extra_info["rules"] = len(rules)
        benchmark.extra_info["pairs"] = len(candidates)
        assert len(ranked) == min(20, len(rules))
