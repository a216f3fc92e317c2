"""Convert tuple pairs into feature vectors (Section 5.1).

Every surviving pair after blocking is converted immediately into a
feature vector; all downstream modules then work on the numeric matrix.
The matrix is feature-major and filled one contiguous column per
feature through the batched feature engine
(:mod:`repro.features.batch`): pair ids become table row positions once
per side, tokenization comes from the tables' shared prepared columns,
and each feature evaluates the whole pair column in one call.  The
tests hold it bit-identical to a per-pair ``Feature.value`` loop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.pairs import CandidateSet, Pair
from ..data.table import Table
from ..exceptions import DataError
from ..obs.profiling import profile_section
from .library import FeatureLibrary


def vectorize_pairs(table_a: Table, table_b: Table, pairs: Sequence[Pair],
                    library: FeatureLibrary,
                    out: np.ndarray | None = None) -> CandidateSet:
    """Build a :class:`CandidateSet` for ``pairs`` using ``library``.

    Ids are looked up in their respective tables; unknown ids raise
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
        return CandidateSet(list(pairs), matrix, library.names)

    with profile_section("features.vectorize_pairs"):
        ids_a, ids_b = zip(*pairs)
        rows_a = table_a.positions(ids_a)
        rows_b = table_b.positions(ids_b)
        for col, feature in enumerate(library):
            matrix[:, col] = feature.batch_value(table_a, rows_a,
                                                 table_b, rows_b)
    return CandidateSet(list(pairs), matrix, library.names)
