"""Schema-driven feature generation and the Feature abstraction."""

from __future__ import annotations

import math

import pytest

from repro.data.table import AttrType, Record, Schema, Table
from repro.exceptions import FeatureError
from repro.features.library import FeatureLibrary, build_feature_library


@pytest.fixture
def library(book_tables):
    table_a, table_b = book_tables
    return build_feature_library(table_a, table_b)


class TestGeneration:
    def test_numeric_attribute_gets_no_text_features(self, library):
        page_features = [f for f in library if f.attribute == "pages"]
        measures = {f.measure for f in page_features}
        assert measures == {"exact", "abs_diff", "rel_diff"}

    def test_string_attribute_measures(self, library):
        title_measures = {
            f.measure for f in library if f.attribute == "title"
        }
        assert "levenshtein" in title_measures
        assert "jaro_winkler" in title_measures
        assert "jaccard_qgram" in title_measures
        assert "jaccard_word" in title_measures
        assert "cosine_tfidf" not in title_measures  # STRING, not TEXT

    def test_text_attribute_gets_tfidf(self):
        schema = Schema.from_pairs([("desc", AttrType.TEXT)])
        table_a = Table("a", schema, [Record("a0", {"desc": "x y z"})])
        table_b = Table("b", schema, [Record("b0", {"desc": "x y"})])
        library = build_feature_library(table_a, table_b)
        measures = {f.measure for f in library}
        assert "cosine_tfidf" in measures
        assert "monge_elkan" in measures

    def test_schema_mismatch_rejected(self, book_tables):
        table_a, _ = book_tables
        other_schema = Schema.from_pairs([("zzz", AttrType.STRING)])
        table_c = Table("c", other_schema, [Record("c0", {"zzz": "x"})])
        with pytest.raises(FeatureError):
            build_feature_library(table_a, table_c)

    def test_feature_names_unique(self, library):
        assert len(set(library.names)) == len(library)

    def test_costs_positive(self, library):
        assert all(cost > 0 for cost in library.costs)


def _value(feature, table_a, id_a, table_b, id_b) -> float:
    """``feature`` on one pair of records, through its kernel."""
    return float(feature.batch_value(table_a, table_a.positions([id_a]),
                                     table_b, table_b.positions([id_b]))[0])


class TestFeatureValue:
    def test_similarity_of_identical_values(self, library, book_tables):
        table_a, table_b = book_tables
        feature = library["title_levenshtein"]
        # a0 and b0 share the exact title.
        assert _value(feature, table_a, "a0", table_b, "b0") == 1.0

    def test_missing_value_gives_nan(self, library, book_schema):
        table_a = Table("a", book_schema, [
            Record("x", {"title": None, "author": "someone",
                         "pages": 3.0})])
        table_b = Table("b", book_schema, [
            Record("y", {"title": "abc", "author": "someone",
                         "pages": 3.0})])
        assert math.isnan(_value(library["title_levenshtein"],
                                 table_a, "x", table_b, "y"))

    def test_numeric_features(self, library, book_tables):
        table_a, table_b = book_tables
        # a2 has 310 pages, b2 has 410.
        assert _value(library["pages_abs_diff"],
                      table_a, "a2", table_b, "b2") == 100.0
        assert _value(library["pages_exact"],
                      table_a, "a0", table_b, "b0") == 1.0


class TestLibraryContainer:
    def test_lookup(self, library):
        feature = library["author_jaro_winkler"]
        assert feature.attribute == "author"
        assert "author_jaro_winkler" in library
        assert "bogus" not in library

    def test_unknown_lookup_raises(self, library):
        with pytest.raises(FeatureError):
            library["bogus"]

    def test_empty_library_rejected(self):
        with pytest.raises(FeatureError):
            FeatureLibrary([])

    def test_duplicate_names_rejected(self, library):
        feature = library.features[0]
        with pytest.raises(FeatureError):
            FeatureLibrary([feature, feature])
