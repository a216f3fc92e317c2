"""The per-pair scalar feature path the batch kernels replaced: the oracle.

A ``repro.features.library.Feature`` is its measure's batch kernel
only.  This module keeps the scalar closures the library used to carry
beside the kernels, one call per pair of records through the public
functions of ``repro.features.similarity`` and
``repro.features.extended``, so the parity tests can require every
kernel to reproduce them bit for bit, NaN positions included.  The
token and q-gram memo caches stay with the closures, so the scalar arm
of ``benchmarks/bench_micro_substrates.py`` measures the same work.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache

import numpy as np

from repro.data.pairs import Pair
from repro.data.table import AttrType, Record, Table
from repro.features import extended as ext
from repro.features import similarity as sim
from repro.features.tokenize import qgrams, word_tokens

Measure = Callable[[object, object], float]


@lru_cache(maxsize=1 << 16)
def _tokens(text: str) -> tuple[str, ...]:
    """Memoized :func:`word_tokens` (tuple-valued, hashable input)."""
    return tuple(word_tokens(text))


@lru_cache(maxsize=1 << 16)
def _qgrams3(text: str) -> tuple[str, ...]:
    """Memoized 3-gram :func:`qgrams` (tuple-valued, hashable input)."""
    return tuple(qgrams(text, 3))


def _string_measures(extended: bool) -> dict[str, Measure]:
    measures: dict[str, Measure] = {
        "exact": sim.exact_match,
        "levenshtein": lambda a, b: sim.levenshtein_similarity(str(a), str(b)),
        "jaro_winkler": lambda a, b: sim.jaro_winkler(str(a), str(b)),
        "jaccard_qgram": lambda a, b: sim.jaccard(_qgrams3(str(a)),
                                                  _qgrams3(str(b))),
        "jaccard_word": lambda a, b: sim.jaccard(_tokens(str(a)),
                                                 _tokens(str(b))),
    }
    if extended:
        measures["prefix"] = (
            lambda a, b: ext.prefix_similarity(str(a), str(b)))
        measures["smith_waterman"] = (
            lambda a, b: ext.smith_waterman(str(a), str(b)))
    return measures


def _text_measures(idf: Mapping[str, float],
                   extended: bool) -> dict[str, Measure]:
    measures: dict[str, Measure] = {
        "jaccard_word": lambda a, b: sim.jaccard(_tokens(str(a)),
                                                 _tokens(str(b))),
        "overlap": lambda a, b: sim.overlap_coefficient(
            _tokens(str(a)), _tokens(str(b))),
        "cosine_tfidf": lambda a, b: sim.cosine_tfidf(
            _tokens(str(a)), _tokens(str(b)), idf),
        "monge_elkan": lambda a, b: sim.monge_elkan(str(a), str(b)),
    }
    if extended:
        measures["containment"] = (
            lambda a, b: ext.containment(_tokens(str(a)), _tokens(str(b))))
        measures["soundex"] = (
            lambda a, b: ext.soundex_similarity(str(a), str(b)))
    return measures


def _numeric_measures() -> dict[str, Measure]:
    return {
        "exact": sim.exact_match,
        "abs_diff": lambda a, b: sim.abs_diff(float(a), float(b)),
        "rel_diff": lambda a, b: sim.rel_diff(float(a), float(b)),
    }


class ScalarLibrary:
    """The scalar twin of ``build_feature_library(table_a, table_b,
    extended)``: one closure per feature, in the library's column order.

    Build it from the same tables as the library: TF/IDF weights are
    fit over both tables' values as they stand.
    """

    def __init__(self, table_a: Table, table_b: Table,
                 extended: bool = False) -> None:
        self._features: dict[str, tuple[str, Measure]] = {}
        for attr in table_a.schema:
            if attr.attr_type is AttrType.NUMERIC:
                measures = _numeric_measures()
            elif attr.attr_type is AttrType.TEXT:
                idf = sim.build_idf([
                    word_tokens(str(value))
                    for table in (table_a, table_b)
                    for record in table
                    if (value := record.get(attr.name)) is not None
                ])
                measures = _text_measures(idf, extended)
            else:
                measures = _string_measures(extended)
            for measure, compute in measures.items():
                self._features[f"{attr.name}_{measure}"] = (attr.name,
                                                            compute)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._features)

    def value(self, name: str, record_a: Record, record_b: Record) -> float:
        """Feature ``name`` on a pair of records; NaN when either side's
        attribute is missing."""
        attribute, compute = self._features[name]
        a = record_a.get(attribute)
        b = record_b.get(attribute)
        if a is None or b is None:
            return math.nan
        return float(compute(a, b))

    def matrix(self, table_a: Table, table_b: Table,
               pairs: Sequence[Pair]) -> np.ndarray:
        """One scalar call per pair and feature, in library order."""
        matrix = np.empty((len(pairs), len(self._features)),
                          dtype=np.float64)
        for row, pair in enumerate(pairs):
            record_a = table_a[pair.a_id]
            record_b = table_b[pair.b_id]
            for col, name in enumerate(self._features):
                matrix[row, col] = self.value(name, record_a, record_b)
        return matrix
