"""Sampling strategies over the Cartesian product A x B.

Implements the Blocker's density-aware sampling of Section 4.1 (step 2):
rather than sampling random pairs (which would contain almost no matches),
Corleone samples ``t_B / |A|`` tuples from the larger table B and crosses
them with *all* of the smaller table A.  If matches are spread roughly
uniformly through B, the sample inherits the full product's positive
density while fitting in memory.  Samples and the full product are
returned as :class:`~repro.data.pairs.PairRows` — two row arrays over
the tables' ids — never as one Python object per pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..exceptions import DataError
from .pairs import Pair, PairRows
from .table import Table

__all__ = [
    "blocker_sample",
    "cartesian_rows",
    "cartesian_size",
    "iter_cartesian",
    "random_pairs",
    "weighted_blocker_sample",
]


def cartesian_size(table_a: Table, table_b: Table) -> int:
    """|A x B|: the number of pairs before any blocking."""
    return len(table_a) * len(table_b)


def iter_cartesian(table_a: Table, table_b: Table) -> Iterator[Pair]:
    """Stream every pair of A x B without materializing the product."""
    b_ids = table_b.ids
    for a_id in table_a.ids:
        for b_id in b_ids:
            yield Pair(a_id, b_id)


def cartesian_rows(table_a: Table, table_b: Table) -> PairRows:
    """Every pair of A x B in :func:`iter_cartesian` order, as rows:
    pair ``k`` is row ``k // |B|`` of A with row ``k % |B|`` of B."""
    rows_a, rows_b = np.divmod(
        np.arange(cartesian_size(table_a, table_b), dtype=np.int64),
        max(1, len(table_b)))
    return PairRows(rows_a, rows_b, table_a.ids, table_b.ids)


def blocker_sample(table_a: Table, table_b: Table, t_b: int,
                   rng: np.random.Generator,
                   seed_pairs: Iterable[Pair] = ()) -> PairRows:
    """Draw the Blocker's learning sample S from A x B (Section 4.1).

    Let A be the smaller table (the roles are swapped internally if
    needed).  We sample ``ceil(t_b / |A|)`` tuples from B uniformly without
    replacement and return their Cartesian product with all of A, giving
    roughly ``t_b`` pairs.  The user-supplied ``seed_pairs`` (two positive
    and two negative examples in the paper) are appended if not already
    present; they are expressed as (a_id, b_id) in the *original* table
    orientation regardless of any internal swap.

    Raises :class:`DataError` if either table is empty.
    """
    if len(table_a) == 0 or len(table_b) == 0:
        raise DataError("cannot sample from an empty table")
    if t_b < 1:
        raise DataError("t_b must be >= 1")

    small, large = table_a, table_b
    swapped = False
    if len(large) < len(small):
        small, large = large, small
        swapped = True

    n_large = min(len(large), max(1, -(-t_b // len(small))))  # ceil division
    chosen = rng.choice(len(large), size=n_large, replace=False)
    return _crossed_sample(table_a, table_b, len(small), chosen, swapped,
                           seed_pairs)


def weighted_blocker_sample(table_a: Table, table_b: Table, t_b: int,
                            rng: np.random.Generator,
                            attribute: str | None = None,
                            seed_pairs: Iterable[Pair] = ()) -> PairRows:
    """A density-boosting variant of :func:`blocker_sample` (§10).

    The paper's sampler assumes matched rows are spread uniformly
    through B; when they are not, the sample can go match-starved.  This
    variant biases the choice of B rows toward rows that share a *rare*
    token with some row of A on a textual attribute — rows much more
    likely to have a match — while keeping half of the draw uniform so
    negatives stay representative.

    ``attribute`` defaults to the first textual attribute of the schema.
    Exposed as the "better sampling strategies" extension and ablated in
    the Section 9.4 benchmark.
    """
    from ..features.tokenize import word_tokens  # local: avoid cycle

    if len(table_a) == 0 or len(table_b) == 0:
        raise DataError("cannot sample from an empty table")
    if t_b < 1:
        raise DataError("t_b must be >= 1")

    small, large = table_a, table_b
    swapped = False
    if len(large) < len(small):
        small, large = large, small
        swapped = True

    if attribute is None:
        attribute = _first_textual_attribute(small)

    # Token -> document frequency over the small table.
    small_df: dict[str, int] = {}
    for record in small:
        value = record.get(attribute)
        if value is None:
            continue
        for token in set(word_tokens(str(value))):
            small_df[token] = small_df.get(token, 0) + 1

    # Score each large-table row by the total rarity of its shared
    # tokens: a true match shares *many* (mostly rare) tokens with its
    # counterpart, while a hard negative shares only a few and a random
    # row only common ones.  Summing is robust where max-of-rarity is
    # not (one rare collision should not dominate).
    scores = np.zeros(len(large))
    for index in range(len(large)):
        value = large.at(index).get(attribute)
        if value is None:
            continue
        total = 0.0
        for token in set(word_tokens(str(value))):
            df = small_df.get(token)
            if df:
                total += 1.0 / df
        scores[index] = total

    n_rows = min(len(large), max(1, -(-t_b // len(small))))
    n_biased = n_rows // 2  # the other half stays uniform

    chosen: list[int] = []
    if n_biased and scores.sum() > 0:
        weights = scores / scores.sum()
        n_biased = min(n_biased, int((scores > 0).sum()))
        chosen.extend(int(i) for i in rng.choice(
            len(large), size=n_biased, replace=False, p=weights
        ))
    # Fill the rest of the row budget uniformly from the unchosen rows.
    pool = np.setdiff1d(np.arange(len(large)), np.array(chosen, dtype=int))
    take = min(n_rows - len(chosen), pool.size)
    chosen.extend(int(i) for i in rng.choice(pool, size=take,
                                             replace=False))

    return _crossed_sample(table_a, table_b, len(small),
                           np.array(chosen, dtype=np.int64), swapped,
                           seed_pairs)


def _crossed_sample(table_a: Table, table_b: Table, n_small: int,
                    chosen: np.ndarray, swapped: bool,
                    seed_pairs: Iterable[Pair]) -> PairRows:
    """Every row of the small table crossed with the ``chosen`` rows of
    the large one (small-table-major, ``chosen`` in the order drawn),
    then each seed pair not already there, in order, by row.  Seed
    pairs are (a_id, b_id) in the original orientation; an id not in
    its table raises :class:`DataError`."""
    small_rows = np.repeat(np.arange(n_small, dtype=np.int64), chosen.size)
    large_rows = np.tile(chosen.astype(np.int64), n_small)
    rows_a, rows_b = ((large_rows, small_rows) if swapped
                      else (small_rows, large_rows))
    sample = PairRows(rows_a, rows_b, table_a.ids, table_b.ids)
    seeds = list(dict.fromkeys(Pair(*pair) for pair in seed_pairs))
    extra = [pair for pair, at in zip(seeds, sample.indices(seeds))
             if at < 0]
    if not extra:
        return sample
    return PairRows(
        np.concatenate((rows_a, table_a.positions(p.a_id for p in extra))),
        np.concatenate((rows_b, table_b.positions(p.b_id for p in extra))),
        table_a.ids, table_b.ids)


def _first_textual_attribute(table: Table) -> str:
    from .table import AttrType
    for attr in table.schema:
        if attr.attr_type is not AttrType.NUMERIC:
            return attr.name
    raise DataError("no textual attribute available for weighted sampling")


def random_pairs(table_a: Table, table_b: Table, n: int,
                 rng: np.random.Generator) -> list[Pair]:
    """Uniform random pairs from A x B, without replacement.

    Used by baselines and tests; contrast with :func:`blocker_sample`.
    """
    total = cartesian_size(table_a, table_b)
    if total == 0:
        raise DataError("cannot sample from an empty product")
    n = min(n, total)
    flat = rng.choice(total, size=n, replace=False)
    n_b = len(table_b)
    return [
        Pair(table_a.at(int(i) // n_b).record_id,
             table_b.at(int(i) % n_b).record_id)
        for i in flat
    ]
