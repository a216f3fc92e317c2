"""Schema-driven feature generation (Section 4.1, step 3).

Given the two input tables, :func:`build_feature_library` produces a
:class:`FeatureLibrary`: one :class:`Feature` per (attribute, measure)
combination appropriate for the attribute's type — e.g. no TF/IDF features
for numeric attributes, exactly as the paper prescribes.  Every feature
carries a relative compute cost, which the Blocker's greedy rule-selection
uses as the "tuple pair cost" (Section 4.3).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..data.table import AttrType, Table
from ..exceptions import FeatureError
from . import batch as batch_engine
from . import similarity as sim
from .tokenize import word_tokens


@dataclass(frozen=True)
class Feature:
    """A named similarity feature over one attribute of a tuple pair.

    ``kernel`` evaluates the measure over a pair column, with the
    :data:`repro.features.batch.BatchKernel` signature: the built-in
    measures take theirs from :func:`repro.features.batch.kernel_for`,
    and a custom measure supplies its own.  ``cost`` is a relative
    compute-cost estimate in arbitrary units used to rank blocking
    rules by cheapness.
    """

    name: str
    attribute: str
    measure: str
    cost: float
    kernel: batch_engine.BatchKernel = field(compare=False, repr=False)

    def batch_value(self, table_a: Table, rows_a: np.ndarray,
                    table_b: Table, rows_b: np.ndarray) -> np.ndarray:
        """Evaluate this feature over a pair column at once.

        Pair ``i`` is row ``rows_a[i]`` of ``table_a`` with row
        ``rows_b[i]`` of ``table_b`` (positions, as in
        :meth:`Table.at`).  Returns the measure's value per pair as a
        float64 array, NaN wherever either side's attribute is missing
        so the forest can route it explicitly.  Kernels read the
        tables' shared prepared columns
        (:func:`repro.features.batch.prepared_column`).

        Raises :class:`FeatureError` unless both row arrays are 1-D
        integer arrays of equal length whose rows lie inside their
        tables.
        """
        _check_rows(rows_a, table_a)
        _check_rows(rows_b, table_b)
        if rows_a.size != rows_b.size:
            raise FeatureError(
                f"batch_value got {rows_a.size} A rows but "
                f"{rows_b.size} B rows"
            )
        column_a = batch_engine.prepared_column(table_a, self.attribute)
        column_b = batch_engine.prepared_column(table_b, self.attribute)
        values = self.kernel(column_a, rows_a, column_b, rows_b)
        missing = column_a.missing()[rows_a] | column_b.missing()[rows_b]
        if missing.any():
            values[missing] = math.nan
        return values


def _check_rows(rows: np.ndarray, table: Table) -> None:
    """Raise :class:`FeatureError` unless ``rows`` is a 1-D integer
    array of positions in ``table``."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 1
            and rows.dtype.kind in "iu"):
        raise FeatureError(
            f"rows of table {table.name!r} must be a 1-D integer array, "
            f"got {type(rows).__name__} "
            f"{getattr(rows, 'dtype', '')} {getattr(rows, 'shape', '')}"
        )
    if rows.size and (rows.min() < 0 or rows.max() >= len(table)):
        raise FeatureError(
            f"rows of table {table.name!r} must lie in [0, {len(table)}), "
            f"got [{rows.min()}, {rows.max()}]"
        )


class FeatureLibrary:
    """An ordered collection of features with name-based lookup."""

    def __init__(self, features: Sequence[Feature]) -> None:
        if not features:
            raise FeatureError("feature library must not be empty")
        self._features = tuple(features)
        self._by_name = {feature.name: feature for feature in self._features}
        if len(self._by_name) != len(self._features):
            raise FeatureError("duplicate feature names in library")

    @property
    def features(self) -> tuple[Feature, ...]:
        return self._features

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(feature.name for feature in self._features)

    @property
    def costs(self) -> tuple[float, ...]:
        return tuple(feature.cost for feature in self._features)

    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._features)

    def __getitem__(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise FeatureError(f"unknown feature {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


# Relative compute costs per measure (arbitrary units; used only to rank
# blocking rules by how cheap they are to apply at A x B scale).
_MEASURE_COSTS: Mapping[str, float] = {
    "exact": 1.0,
    "abs_diff": 1.0,
    "rel_diff": 1.0,
    "jaccard_word": 3.0,
    "jaccard_qgram": 4.0,
    "overlap": 3.0,
    "jaro_winkler": 4.0,
    "levenshtein": 6.0,
    "cosine_tfidf": 5.0,
    "monge_elkan": 8.0,
    # Extended measures (opt-in via build_feature_library(extended=True)).
    "containment": 3.0,
    "prefix": 1.0,
    "soundex": 3.0,
    "smith_waterman": 7.0,
}


# The measures of each attribute type, in feature-column order; multi-
# word short strings (e.g. names) also get a token-level view.
_MEASURES: Mapping[AttrType, tuple[str, ...]] = {
    AttrType.NUMERIC: ("exact", "abs_diff", "rel_diff"),
    AttrType.STRING: ("exact", "levenshtein", "jaro_winkler",
                      "jaccard_qgram", "jaccard_word"),
    AttrType.TEXT: ("jaccard_word", "overlap", "cosine_tfidf",
                    "monge_elkan"),
}
_EXTENDED_MEASURES: Mapping[AttrType, tuple[str, ...]] = {
    AttrType.NUMERIC: (),
    AttrType.STRING: ("prefix", "smith_waterman"),
    AttrType.TEXT: ("containment", "soundex"),
}


def build_feature_library(table_a: Table, table_b: Table,
                          extended: bool = False) -> FeatureLibrary:
    """Generate all applicable features for the shared schema of A and B.

    TF/IDF weights are fit over the union of both tables' values for each
    text attribute, so cosine features see corpus-wide term rarity.
    ``extended=True`` adds the measures from
    :mod:`repro.features.extended` (containment, prefix, Soundex,
    Smith-Waterman) — useful on code-heavy or phonetically noisy data at
    extra vectorization cost.

    Raises :class:`FeatureError` if the two schemas differ, or if a
    measure has no batch kernel (:func:`repro.features.batch.
    kernel_for`).  The per-pair scalar functions every kernel must
    reproduce bit for bit are the parity oracle in
    ``tests/feature_oracle.py``.
    """
    if table_a.schema != table_b.schema:
        raise FeatureError(
            "tables must share a schema "
            f"({table_a.schema!r} != {table_b.schema!r})"
        )
    features: list[Feature] = []
    for attr in table_a.schema:
        measures = _MEASURES[attr.attr_type]
        if extended:
            measures += _EXTENDED_MEASURES[attr.attr_type]
        idf: dict[str, float] | None = None
        if attr.attr_type is AttrType.TEXT:
            idf = sim.build_idf([
                word_tokens(str(value))
                for table in (table_a, table_b)
                for record in table
                if (value := record.get(attr.name)) is not None
            ])
        for measure in measures:
            features.append(Feature(
                name=f"{attr.name}_{measure}",
                attribute=attr.name,
                measure=measure,
                cost=_MEASURE_COSTS[measure],
                kernel=batch_engine.kernel_for(measure, attr.attr_type,
                                               idf=idf),
            ))
    return FeatureLibrary(features)
