"""Convert tuple pairs into feature vectors (Section 5.1).

Every surviving pair after blocking is converted immediately into a
feature vector; all downstream modules then work on the numeric matrix.
The matrix is feature-major and filled one contiguous column per
feature through the batched feature engine
(:mod:`repro.features.batch`): the pairs' table rows go to the kernels
as they are (a producer's :class:`~repro.data.pairs.PairRows`) or are
looked up once per side (any other pair sequence), tokenization comes
from the tables' shared prepared columns, and each feature evaluates
the whole pair column in one call.  The
tests hold it bit-identical to the per-pair scalar oracle in
``tests/feature_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.pairs import CandidateSet, Pair, PairRows
from ..data.table import Table
from ..exceptions import DataError
from ..obs.profiling import profile_section
from .library import FeatureLibrary


def vectorize_pairs(table_a: Table, table_b: Table, pairs: Sequence[Pair],
                    library: FeatureLibrary,
                    out: np.ndarray | None = None) -> CandidateSet:
    """Build a :class:`CandidateSet` for ``pairs`` using ``library``.

    A :class:`PairRows` over the tables' own ids (what the samplers, the
    blocker and :func:`repro.exec.apply_rules_sharded` return) is used
    as it is and becomes the set's pairs.  Any other pairs are looked
    up in their tables once; unknown ids raise
    :class:`repro.exceptions.DataError` via :meth:`Table.positions`.
    Missing attribute values produce NaN feature entries.  Each feature
    is evaluated column-wise over all pairs at once and written as one
    contiguous column of a feature-major (Fortran-ordered) matrix, the
    layout :class:`CandidateSet` stores.

    ``out`` (optional) is a preallocated Fortran-ordered
    ``(len(pairs), len(library))`` float64 array the matrix is written
    into — the spill hook: the engine passes a memory-mapped array from
    :class:`repro.plan.SpillManager` so the feature matrix never has to
    fit in RAM.  Any other shape, dtype or layout raises
    :class:`DataError`.
    """
    shape = (len(pairs), len(library))
    if out is None:
        matrix = np.empty(shape, dtype=np.float64, order="F")
    else:
        if (out.shape != shape or out.dtype != np.float64
                or not out.flags.f_contiguous):
            layout = "Fortran" if out.flags.f_contiguous else "row-major"
            raise DataError(
                f"out must be a Fortran-ordered float64 array of shape "
                f"{shape}, got {layout} {out.dtype} {out.shape}"
            )
        matrix = out
    if not pairs:
        return CandidateSet(PairRows.from_pairs(pairs), matrix,
                            library.names)

    with profile_section("features.vectorize_pairs"):
        pairs = _table_rows(table_a, table_b, pairs)
        for col, feature in enumerate(library):
            matrix[:, col] = feature.batch_value(table_a, pairs.rows_a,
                                                 table_b, pairs.rows_b)
    return CandidateSet(pairs, matrix, library.names)


def _table_rows(table_a: Table, table_b: Table,
                pairs: Sequence[Pair]) -> PairRows:
    """``pairs`` as rows over ``table_a.ids`` and ``table_b.ids``: a
    :class:`PairRows` over those ids as it is, any other pairs looked
    up once per side."""
    if (isinstance(pairs, PairRows) and pairs.ids_a == table_a.ids
            and pairs.ids_b == table_b.ids):
        return pairs
    return PairRows(table_a.positions([pair[0] for pair in pairs]),
                    table_b.positions([pair[1] for pair in pairs]),
                    table_a.ids, table_b.ids)
