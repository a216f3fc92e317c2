"""Scalar-vs-batched feature parity: the batch engine's core contract.

``Feature.batch_value`` must reproduce the per-pair scalar oracle of
``tests/feature_oracle.py`` bit for bit — including NaN positions for
missing values — on every measure and every dataset family.
"""

from __future__ import annotations

import builtins
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.data.pairs import Pair
from repro.data.table import AttrType, Record, Schema, Table
from repro.exceptions import FeatureError
from repro.exec.executor import _prewarm
from repro.features import batch
from repro.features.batch import cache_stats, reset_cache_stats
from repro.features.library import build_feature_library
from repro.features.similarity import jaro_winkler, monge_elkan
from repro.features.vectorize import vectorize_pairs
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants
from repro.synth.songs import generate_songs

from .feature_oracle import ScalarLibrary

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


def _libraries(table_a: Table, table_b: Table, extended: bool = False):
    """The feature library and its scalar oracle over the same tables."""
    return (build_feature_library(table_a, table_b, extended=extended),
            ScalarLibrary(table_a, table_b, extended=extended))


def _assert_parity(table_a: Table, table_b: Table, pairs, library,
                   oracle: ScalarLibrary) -> None:
    assert oracle.names == library.names
    scalar = oracle.matrix(table_a, table_b, pairs)
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
        library, oracle = _libraries(dataset.table_a, dataset.table_b,
                                     extended)
        pairs = _random_pairs(dataset.table_a, dataset.table_b, 400, seed=5)
        _assert_parity(dataset.table_a, dataset.table_b, pairs, library,
                       oracle)

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
        library, oracle = _libraries(table_a, table_b)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        # Warm the per-table caches, then grow the table.
        vectorize_pairs(table_a, table_b, pairs, library)
        table_a.add(Record("a9", {"title": None, "author": "late arrival",
                                  "pages": None}))
        pairs += [Pair("a9", b.record_id) for b in table_b]
        _assert_parity(table_a, table_b, pairs, library, oracle)
        out = vectorize_pairs(table_a, table_b, pairs, library)
        title_col = out.feature_index("title_levenshtein")
        assert math.isnan(out.features[-1, title_col])


class TestFallbackAndErrors:
    def test_measure_without_kernel_rejected(self, book_tables,
                                             monkeypatch):
        """A feature is its kernel: ``kernel_for``, and so the library
        build, raise for a measure that has none."""
        with pytest.raises(FeatureError, match="length_parity"):
            batch.kernel_for("length_parity", AttrType.STRING)
        monkeypatch.delitem(batch._KERNELS, "levenshtein")
        with pytest.raises(FeatureError, match="levenshtein"):
            build_feature_library(*book_tables)

    def test_mismatched_lengths_rejected(self, book_tables):
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b)
        feature = library.features[0]
        with pytest.raises(FeatureError):
            feature.batch_value(table_a, np.arange(len(table_a)),
                                table_b, np.arange(1))

    @pytest.mark.parametrize("bad", [
        np.array([0, -1]),              # numpy would wrap to the last row
        np.array([0, 3]),               # len(table)
        np.array([0.0, 1.0]),           # not integers
        np.array([[0, 1]]),             # not 1-D
        [0, 1],                         # not an array
    ], ids=["negative", "past_end", "float", "2d", "list"])
    @pytest.mark.parametrize("measure", ["levenshtein"])
    def test_rows_outside_the_table_rejected(self, book_tables, bad,
                                             measure):
        table_a, table_b = book_tables
        feature = build_feature_library(table_a, table_b)[f"title_{measure}"]
        good = np.array([0, 1])
        with pytest.raises(FeatureError):
            feature.batch_value(table_a, bad, table_b, good)
        with pytest.raises(FeatureError):
            feature.batch_value(table_a, good, table_b, bad)


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
        library, oracle = _libraries(table_a, table_b, extended=True)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        _assert_parity(table_a, table_b, pairs, library, oracle)

    def test_bit_vector_boundaries(self):
        """Inputs at the 64-character word of the bit-parallel kernels.

        Strings of 63, 64, 65 and 130 characters meet each other on both
        sides (a side longer than 64 takes the scalar path), beside code
        points outside the BMP, characters found on one side only, equal
        and empty strings, and a word longer than 64 characters for
        Monge-Elkan.
        """
        text = "".join(chr(97 + (7 * i + i // 5) % 26) for i in range(130))
        swapped = text[1] + text[0] + text[2:60] + "\U0001f600" + text[61:]
        long_word = "x" + text[:69]
        rows_a = [
            (text[:63], f"{long_word} entity graph"),
            (text[:64], "icde entity entity vldb graph smith"),
            (text[:65], long_word[:66]),
            (text, ""),
            ("na\u00efve \U0001f600 caf\u00e9", "caf\u00e9 \U0001f600"),
            ("qqqq", "qqqq"),
            ("", None),
        ]
        rows_b = [
            (text[:64], "icde query icde join paper jones"),
            (swapped[:63], f"graph {long_word[:68]}y"),
            (swapped[:65], long_word[:66]),
            (swapped, "entity"),
            ("\U0001f600\U0001f600 cafe", ""),
            ("zzzz", "zzzz qqqq"),
            ("", "x"),
        ]
        schema = Schema.from_pairs([
            ("code", AttrType.STRING),
            ("blurb", AttrType.TEXT),
        ])

        def build(name, rows):
            return Table(name, schema, [
                Record(f"{name}{i}", {"code": code, "blurb": blurb})
                for i, (code, blurb) in enumerate(rows)
            ])

        table_a = build("a", rows_a)
        table_b = build("b", rows_b)
        library, oracle = _libraries(table_a, table_b, extended=True)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        _assert_parity(table_a, table_b, pairs, library, oracle)


def test_monge_elkan_means_add_like_the_scalar_loop(monkeypatch):
    """Batched Monge-Elkan adds its means like scalar ``directed()``.

    Since Python 3.12 the builtin ``sum`` compensates rounding, while
    the scalar loop's ``+=`` does not; on this pair they differ in the
    last bit.  A compensated ``sum`` stands in for 3.12's here.
    """
    monkeypatch.setattr(builtins, "sum",
                        lambda values, start=0: math.fsum(values) + start)
    s = "icde entity entity vldb graph smith"
    t = "icde query icde join paper jones"
    schema = Schema.from_pairs([("title", AttrType.TEXT)])
    table_a = Table("a", schema, [Record("a0", {"title": s})])
    table_b = Table("b", schema, [Record("b0", {"title": t})])
    feature = build_feature_library(table_a, table_b)["title_monge_elkan"]
    first = np.zeros(1, dtype=np.int64)
    batched = feature.batch_value(table_a, first, table_b, first)
    assert batched[0] == monge_elkan(s, t)


def test_cosine_tfidf_adds_like_the_scalar_loop(monkeypatch):
    """Batched TF/IDF cosine adds its dot products and norms like the
    scalar loops, left to right.

    A compensated ``sum`` stands in for the builtin of Python 3.12+.
    On this sample it changes the dot product of 77 title pairs and 6
    author pairs, and 30 title norms, had the scalar path kept using
    ``sum``.
    """
    monkeypatch.setattr(builtins, "sum",
                        lambda values, start=0: math.fsum(values) + start)
    dataset = generate_citations(n_a=100, n_b=1000, n_matches=200, seed=0)
    table_a, table_b = dataset.table_a, dataset.table_b
    library, oracle = _libraries(table_a, table_b)
    rows_a, rows_b = np.divmod(np.arange(20 * len(table_b)), len(table_b))
    for name in ("title_cosine_tfidf", "authors_cosine_tfidf"):
        scalar = [oracle.value(name, table_a.at(i), table_b.at(j))
                  for i, j in zip(rows_a.tolist(), rows_b.tolist())]
        batched = library[name].batch_value(table_a, rows_a,
                                            table_b, rows_b)
        assert np.array_equal(batched, scalar, equal_nan=True), name


@pytest.mark.parametrize("name, text", [("citations", "title"),
                                        ("products", "name")])
def test_block_splits_keep_parity(monkeypatch, name, text):
    """Kernels stay bit-identical when every bound forces a split.

    With the block budget, the word-table retention cap and the scan
    chunk at a few dozen, the set, TF/IDF and Monge-Elkan kernels size
    their blocks to a few pairs and halve them down to single pairs,
    Monge-Elkan builds a banded word table per block instead of one per
    column pair, and the bit-parallel kernels advance a few rows at a
    time, on shuffled pairs (grouped by B row) and on pairs in A-row
    order alike.  A column pair's kept word table, built in bands of one
    A word cut across B's vocabulary, equals the scalar Jaro-Winkler of
    every word pair.
    """
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 48)
    monkeypatch.setattr(batch, "_WORD_TABLE_ELEMENTS", 48)
    monkeypatch.setattr(batch, "_KERNEL_ROWS", 24)
    dataset = _GENERATORS[name](n_a=30, n_b=40, n_matches=10, seed=4)
    library, oracle = _libraries(dataset.table_a, dataset.table_b,
                                 extended=True)
    pairs = _random_pairs(dataset.table_a, dataset.table_b, 300, seed=2)
    _assert_parity(dataset.table_a, dataset.table_b, pairs, library, oracle)
    a_order = dataset.table_a.record_ids
    _assert_parity(dataset.table_a, dataset.table_b,
                   sorted(pairs, key=lambda pair: a_order.index(pair.a_id)),
                   library, oracle)
    column_a = batch.prepared_column(dataset.table_a, text)
    column_b = batch.prepared_column(dataset.table_b, text)
    assert column_a.word_table(column_b) is None

    monkeypatch.setattr(batch, "_WORD_TABLE_ELEMENTS", 1 << 22)
    kept = batch._word_table(column_a.words(), column_b.words())
    vocabulary_a = np.unique(column_a.words().codes)
    vocabulary_b = np.unique(column_b.words().codes)
    assert vocabulary_b.size > 48  # bands cut across B's vocabulary
    strings = batch._DICTIONARY.strings
    scalar = [[jaro_winkler(strings[a], strings[b])
               for b in vocabulary_b.tolist()] for a in vocabulary_a.tolist()]
    assert np.array_equal(kept.values, scalar)


def test_cell_indices_past_int32_raise(monkeypatch):
    """A block whose membership matrix has more cells than int32 can
    index raises instead of wrapping.  Under the block budget no block
    gets there, so the budget is lifted here; the check runs before the
    matrix (2**31 cells) is allocated."""
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 1 << 40)
    # 32 A rows of 1024 distinct codes each, 65,536 B rows of one code.
    lists_a = batch.CodeLists(np.arange(33, dtype=np.int64) * 1024,
                              np.arange(32 * 1024, dtype=np.int64))
    lists_b = batch.CodeLists(np.arange(65_537, dtype=np.int64),
                              np.zeros(65_536, dtype=np.int64))
    rows_b = np.arange(65_536)
    with pytest.raises(FeatureError, match="int32"):
        batch._pick(lists_a, rows_b % 32, lists_b, rows_b)


def test_word_tables_do_not_keep_a_gone_table_alive():
    """A column's Monge-Elkan word tables hold the other column weakly,
    so matching one table against a stream of others retains none."""
    dataset = generate_citations(n_a=10, n_b=20, n_matches=4, seed=1)
    feature = build_feature_library(dataset.table_a,
                                    dataset.table_b)["title_monge_elkan"]
    rows = np.arange(10)
    other = generate_citations(n_a=10, n_b=20, n_matches=4, seed=2).table_b
    feature.batch_value(dataset.table_a, rows, other, rows)
    column = weakref.ref(batch.prepared_column(other, "title"))
    del other
    gc.collect()
    assert column() is None


def test_prewarm_builds_every_array_the_kernels_read():
    """After the sharded executor's prewarm, evaluating any feature on
    any rows builds nothing: forked workers only read shared arrays."""
    dataset = generate_citations(n_a=20, n_b=30, n_matches=5, seed=6)
    table_a, table_b = dataset.table_a, dataset.table_b
    features = list(build_feature_library(table_a, table_b, extended=True))
    assert {feature.measure for feature in features} >= set(
        batch._KERNELS) | {"exact", "cosine_tfidf"}
    _prewarm(table_a, table_b, features)
    reset_cache_stats()
    rows_a = np.array([3, 0, 19, 7, 7])
    rows_b = np.array([29, 5, 0, 11, 12])
    for feature in features:
        feature.batch_value(table_a, rows_a, table_b, rows_b)
    assert cache_stats() == {}


_VECTORIZE_DIGEST = """
import hashlib
from repro.data.pairs import Pair
from repro.features.library import build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.synth.citations import generate_citations

dataset = generate_citations(n_a=40, n_b=100, n_matches=20, seed=3)
library = build_feature_library(dataset.table_a, dataset.table_b)
pairs = [Pair(a.record_id, b.record_id)
         for a in dataset.table_a for b in dataset.table_b]
matrix = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                         library).features
print(hashlib.sha256(matrix.tobytes()).hexdigest())
"""


def test_feature_bytes_do_not_depend_on_the_hash_seed():
    """Two interpreters with different string hashes vectorize a
    citations sample (TF/IDF cosine on TEXT attributes) to equal bytes."""
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _VECTORIZE_DIGEST],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
