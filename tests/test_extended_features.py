"""Extended similarity measures and the opt-in library mode."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.features.extended import (
    containment,
    longest_common_substring_ratio,
    prefix_similarity,
    smith_waterman,
    soundex,
    soundex_similarity,
)
from repro.features.library import build_feature_library

words = st.text(alphabet="abcdef ", min_size=0, max_size=16)


class TestContainment:
    def test_subset_is_one(self):
        assert containment(["a", "b"], ["a", "b", "c", "d"]) == 1.0

    def test_symmetric_max(self):
        assert containment(["a", "b", "c", "d"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert containment(["a"], ["b"]) == 0.0

    def test_empties(self):
        assert containment([], []) == 1.0
        assert containment(["a"], []) == 0.0

    token_lists = st.lists(st.sampled_from("abcde"), max_size=6)

    @given(token_lists, token_lists)
    def test_at_least_jaccard(self, ta, tb):
        from repro.features.similarity import jaccard
        assert containment(ta, tb) >= jaccard(ta, tb) - 1e-12


class TestPrefixSimilarity:
    def test_identical_prefix(self):
        assert prefix_similarity("KHX1800C9", "KHX1800XX") == 1.0

    def test_no_agreement(self):
        assert prefix_similarity("abcd", "wxyz") == 0.0

    def test_partial(self):
        assert prefix_similarity("abcd", "abxy") == 0.5

    def test_empty(self):
        assert prefix_similarity("", "") == 1.0

    @given(words, words)
    def test_unit_interval(self, s, t):
        assert 0.0 <= prefix_similarity(s, t) <= 1.0


class TestLcsRatio:
    def test_known(self):
        # 'bcd' is the longest common substring.
        assert longest_common_substring_ratio("abcd", "xbcdy") == \
            pytest.approx(3 / 5)

    def test_identical(self):
        assert longest_common_substring_ratio("same", "same") == 1.0

    def test_disjoint(self):
        assert longest_common_substring_ratio("aaa", "bbb") == 0.0

    @given(words, words)
    def test_symmetry_and_range(self, s, t):
        value = longest_common_substring_ratio(s, t)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(
            longest_common_substring_ratio(t, s)
        )


class TestSmithWaterman:
    def test_substring_alignment_perfect(self):
        assert smith_waterman("hyperx", "kingston hyperx kit") == 1.0

    def test_disjoint(self):
        assert smith_waterman("aaa", "bbb") == 0.0

    def test_typo_tolerant(self):
        clean = smith_waterman("corleone", "corleone")
        typo = smith_waterman("corleone", "corleome")
        assert clean == 1.0
        assert 0.5 < typo < 1.0

    @given(words, words)
    def test_unit_interval(self, s, t):
        assert 0.0 <= smith_waterman(s, t) <= 1.0 + 1e-12


class TestSoundex:
    @pytest.mark.parametrize("word, code", [
        ("robert", "R163"),
        ("rupert", "R163"),
        ("ashcraft", "A261"),
        ("ashcroft", "A261"),
        ("tymczak", "T522"),
        ("pfister", "P236"),
        ("honeyman", "H555"),
    ])
    def test_classic_vectors(self, word, code):
        assert soundex(word) == code

    def test_empty(self):
        assert soundex("") == ""
        assert soundex("123") == ""

    def test_padding(self):
        assert soundex("lee") == "L000"

    def test_similarity_phonetic_match(self):
        assert soundex_similarity("robert smith", "rupert smyth") == 1.0

    def test_similarity_disjoint(self):
        assert soundex_similarity("robert", "claire") == 0.0

    def test_similarity_empty(self):
        assert soundex_similarity("", "") == 1.0
        assert soundex_similarity("word", "") == 0.0


class TestExtendedLibrary:
    def test_extended_adds_measures(self, book_tables):
        table_a, table_b = book_tables
        plain = build_feature_library(table_a, table_b)
        extended = build_feature_library(table_a, table_b, extended=True)
        assert len(extended) > len(plain)
        plain_measures = {f.measure for f in plain}
        extended_measures = {f.measure for f in extended}
        assert "smith_waterman" in extended_measures - plain_measures
        assert "prefix" in extended_measures - plain_measures

    def test_extended_features_computable(self, book_tables):
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b, extended=True)
        first = np.zeros(1, dtype=np.int64)  # a0 and b0
        for feature in library:
            value = feature.batch_value(table_a, first, table_b, first)[0]
            assert value == value  # not NaN (no missing values in a0/b0)
