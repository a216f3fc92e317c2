"""The row-indexed CandidateSet against the tuple-of-Pairs oracle.

``tests/candidate_oracle.py`` keeps the container the row arrays
replaced.  Every operation must give the same pairs in the same order,
the same matrix bytes and the same errors, whether the set was built
from a list of pairs or from rows over table ids.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CrowdConfig
from repro.crowd.aggregation import VoteScheme
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.pairs import CandidateSet, Pair, PairRows
from repro.exceptions import DataError

from .candidate_oracle import OracleCandidateSet, oracle_known_rows

IDS_A = ("a0", "a1", "a2", "a3", "a4")
IDS_B = ("b0", "b1", "b2", "b3")
ABSENT = (Pair("ax", "b0"), Pair("a0", "bx"), Pair("ax", "bx"))
"""Pairs no set holds: each has an id outside the tables."""

pair_st = st.builds(Pair, st.sampled_from(IDS_A), st.sampled_from(IDS_B))
query_st = st.one_of(pair_st, st.sampled_from(ABSENT))


def outcome(build):
    """``("ok", value)``, or ``("error", type)`` when ``build`` raises a
    DataError."""
    try:
        return "ok", build()
    except DataError as error:
        return "error", type(error)


def assert_same(new, old) -> None:
    """Same kind of outcome; for two sets, the same pairs and bytes."""
    assert new[0] == old[0]
    if new[0] == "error":
        assert new[1] is old[1]
        return
    new_set, old_set = new[1], old[1]
    if isinstance(old_set, tuple):  # split
        for got, want in zip(new_set, old_set):
            assert_same(("ok", got), ("ok", want))
        return
    assert len(new_set) == len(old_set)
    assert list(new_set.pairs) == list(old_set.pairs)
    assert list(new_set) == list(old_set)
    assert new_set.feature_names == old_set.feature_names
    assert new_set.features.tobytes("F") == old_set.features.tobytes("F")
    assert new_set.features.flags.f_contiguous


def build_both(pairs: list[Pair], via_rows: bool, offset: float = 0.0):
    features = offset + np.arange(2.0 * len(pairs)).reshape(-1, 2)
    names = ["f0", "f1"]
    if via_rows:
        # What a producer passes: rows over the tables' ids.
        given_pairs = PairRows(
            np.array([IDS_A.index(p.a_id) for p in pairs], dtype=np.int64),
            np.array([IDS_B.index(p.b_id) for p in pairs], dtype=np.int64),
            IDS_A, IDS_B)
    else:
        given_pairs = list(pairs)
    return (outcome(lambda: CandidateSet(given_pairs, features, names)),
            outcome(lambda: OracleCandidateSet(pairs, features, names)))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(pair_st, max_size=14), via_rows=st.booleans(),
       data=st.data())
def test_operations_match_the_oracle(pairs, via_rows, data):
    new, old = build_both(pairs, via_rows)
    assert_same(new, old)  # includes rejecting duplicate pairs
    if old[0] == "error":
        return
    new_set, old_set = new[1], old[1]

    queries = data.draw(st.lists(query_st, max_size=8))
    for pair in queries:
        assert (pair in new_set) == (pair in old_set)
        assert (pair in new_set.pairs) == (pair in old_set.pairs)
        assert outcome(lambda: new_set.index_of(pair)) == \
            outcome(lambda: old_set.index_of(pair))
        if pair in old_set:
            assert new_set.pairs.index(pair) == old_set.pairs.index(pair)
            np.testing.assert_array_equal(new_set.vector(pair),
                                          old_set.vector(pair))
    assert new_set.pairs.indices(queries).tolist() == [
        old_set.pairs.index(p) if p in old_set else -1 for p in queries]

    n = len(old_set)
    indices = data.draw(st.lists(st.integers(0, max(0, n - 1)),
                                 max_size=n)) if n else []
    assert_same(outcome(lambda: new_set.subset(indices)),
                outcome(lambda: old_set.subset(indices)))
    assert_same(outcome(lambda: new_set.subset_pairs(queries)),
                outcome(lambda: old_set.subset_pairs(queries)))
    assert_same(outcome(lambda: new_set.without(queries)),
                outcome(lambda: old_set.without(queries)))
    first = data.draw(st.lists(st.integers(-1, n), max_size=6))
    assert_same(outcome(lambda: new_set.split(first)),
                outcome(lambda: old_set.split(first)))

    others = data.draw(st.lists(pair_st, max_size=6))
    new_other, old_other = build_both(others, data.draw(st.booleans()),
                                      offset=100.0)
    if old_other[0] == "ok":
        assert_same(outcome(lambda: new_set.concat(new_other[1])),
                    outcome(lambda: old_set.concat(old_other[1])))


def test_empty_matches_the_oracle():
    assert_same(("ok", CandidateSet.empty(["f0", "f1"])),
                ("ok", OracleCandidateSet.empty(["f0", "f1"])))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(pair_st, unique=True, max_size=14),
       cached=st.lists(st.tuples(query_st, st.booleans(), st.booleans()),
                       max_size=12),
       via_rows=st.booleans())
def test_known_rows_match_the_oracle(rows, cached, via_rows):
    service = LabelingService(PerfectCrowd(frozenset()), CrowdConfig())
    service.restore_cache([[p.a_id, p.b_id, label, strong]
                           for p, label, strong in cached])
    (_, new_set), (_, old_set) = build_both(rows, via_rows)
    for scheme in (None, *VoteScheme):
        known = service.known_rows(new_set, scheme)
        assert known.dtype == np.int8
        np.testing.assert_array_equal(
            known, oracle_known_rows(service, old_set, scheme))
