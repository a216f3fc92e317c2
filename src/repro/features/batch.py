"""Batched feature evaluation: the blocking/vectorization hot-path engine.

Corleone's §4.3 rule-application step streams all of A x B through the
blocking rules — the paper's only Hadoop-scale component.  Evaluating
features with a per-pair, per-feature Python loop makes that path (and
every :func:`repro.features.vectorize.vectorize_pairs` call feeding the
matcher, estimator and locator) the dominant cost of a run.  This module
is the batch-first substrate underneath
:meth:`repro.features.library.Feature.batch_value`:

* :class:`PreparedColumn` caches *per-record* derived values — normalized
  strings and their codes in a process-wide string dictionary,
  word/q-gram token sets, interned word-id arrays, TF/IDF weight
  vectors, Soundex code sets — so tokenization happens once per record
  instead of once per pair;
* :class:`TableFeatureCache` holds one :class:`PreparedColumn` per
  attribute of a :class:`~repro.data.table.Table`, shared across chunks
  and features (obtained via :func:`table_cache`, keyed weakly by table);
* :func:`kernel_for` maps every library measure to a batch kernel that
  evaluates whole pair-columns at once — pure numpy for numeric
  measures; bit-parallel kernels (Myers/Hyyrö edit distance, a
  bit-vector greedy Jaro matcher) run once per distinct
  (A string, B string) code pair for Levenshtein and Jaro-Winkler, and a
  numpy DP for Smith-Waterman; set arithmetic over precomputed token
  sets for the Jaccard family; and, for Monge-Elkan, a dense word-level
  Jaro-Winkler table over each block's A and B vocabularies.

Every kernel returns exactly the values the scalar ``Feature.value``
path produces — the scalar loop remains both the fallback (for features
without a kernel, and for strings longer than one 64-bit word in the
bit-parallel kernels) and the parity oracle the test suite checks batch
results against, bit for bit (including NaN positions).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from itertools import repeat

import numpy as np

from ..data.table import AttrType, Record, Table
from . import extended as ext
from . import similarity as sim
from .tokenize import normalize, qgrams, word_tokens

BatchKernel = Callable[
    ["PreparedColumn", Sequence[Record], "PreparedColumn", Sequence[Record]],
    np.ndarray,
]
"""A measure evaluated column-wise: (prepared_a, records_a, prepared_b,
records_b) -> float64 array aligned with the record lists.  Kernels do
not handle missing values — ``Feature.batch_value`` masks them to NaN."""


# ----------------------------------------------------------------------
# Cache-miss accounting
# ----------------------------------------------------------------------

_CACHE_MISSES: "Counter[str]" = Counter()
"""Prepared-column cache misses by accessor kind, process-lifetime.

``tfidf_table`` counts whole TF/IDF weight-table (re)builds — the
legacy per-rule waste the plan compiler exists to remove: tables are
keyed by idf-mapping *identity*, so two kernels built over the same
column but through different ``kernel_for`` calls silently recompute
every weight vector.  Like the wall-clock profiler, these counters
depend on process-lifetime cache warmth (a replayed run hits where the
first run missed), so they are deliberately NOT part of the
checkpointed metrics registry — read them via :func:`cache_stats`
(``make bench-plan`` records them before/after in BENCH_plan.json).
"""


def _note_misses(kind: str, count: int) -> None:
    """Record ``count`` cache misses for one accessor kind."""
    if count > 0:
        _CACHE_MISSES[kind] += count


def cache_stats() -> dict[str, int]:
    """A snapshot of the process-lifetime cache-miss counters."""
    return dict(_CACHE_MISSES)


def reset_cache_stats() -> None:
    """Zero the cache-miss counters (benchmark harness hook)."""
    _CACHE_MISSES.clear()


# ----------------------------------------------------------------------
# The string dictionary (shared by the string kernels and Monge-Elkan)
# ----------------------------------------------------------------------


class _StringDictionary:
    """Process-wide interner: one int code per distinct string.

    Records' normalized values and their words share one code space, so
    equal codes mean equal strings across tables and attributes.  Each
    string's length and code-point row are built once, when it is first
    interned, into flat arrays the kernels gather from.  Forked workers
    inherit the dictionary; strings a worker interns after the fork may
    get different codes in different workers, which is harmless because
    no kernel value depends on a code.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self.strings: list[str] = []
        self._starts = np.zeros(1 << 10, dtype=np.int64)
        self._lengths = np.zeros(1 << 10, dtype=np.int64)
        self._points = np.zeros(1 << 14, dtype=np.int32)
        self._used = 0

    def intern(self, text: str) -> int:
        """The code of ``text``, assigned on first sight."""
        code = self._codes.get(text)
        if code is not None:
            return code
        code = len(self.strings)
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                               dtype="<u4")
        if code == self._lengths.size:
            self._starts = _grown(self._starts, code + 1)
            self._lengths = _grown(self._lengths, code + 1)
        end = self._used + points.size
        if end > self._points.size:
            self._points = _grown(self._points, end)
        self._points[self._used:end] = points
        self._starts[code] = self._used
        self._lengths[code] = points.size
        self._used = end
        self._codes[text] = code
        self.strings.append(text)
        return code

    def lengths(self, codes: np.ndarray) -> np.ndarray:
        """Length in code points of each coded string."""
        return self._lengths[codes]

    def points(self, codes: np.ndarray, pad: int, width: int) -> np.ndarray:
        """``(len(codes), width)`` int32 code points, cut or ``pad``-padded."""
        columns = np.arange(width)
        inside = columns < self._lengths[codes][:, None]
        out = np.full((codes.size, width), pad, dtype=np.int32)
        out[inside] = self._points[
            (self._starts[codes][:, None] + columns)[inside]]
        return out


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """``array`` copied into a zero-filled array of at least ``needed``."""
    grown = np.zeros(max(2 * array.size, needed), dtype=array.dtype)
    grown[:array.size] = array
    return grown


_DICTIONARY = _StringDictionary()

_JW_BY_KEY: dict[int, float] = {}
"""(code_a << 32 | code_b) -> word-level Jaro-Winkler.  Bounded by the
square of the co-occurring vocabulary, which real tables keep modest."""


# ----------------------------------------------------------------------
# Per-record prepared values
# ----------------------------------------------------------------------


class PreparedColumn:
    """Record-level derived values for one attribute of one table.

    Every accessor takes the (pair-aligned) record list and returns an
    aligned list/array of prepared values, memoized per ``record_id`` —
    lazily, so records added to a table after the cache was created are
    still picked up.  Missing values map to neutral empties ("" / empty
    set); callers mask them to NaN afterwards.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._missing: dict[str, bool] = {}
        self._numbers: dict[str, float] = {}
        self._norms: dict[str, str] = {}
        self._codes: dict[str, int] = {}
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._token_sets: dict[str, frozenset[str]] = {}
        self._qgram_sets: dict[str, frozenset[str]] = {}
        self._word_ids: dict[str, np.ndarray] = {}
        self._soundex: dict[str, frozenset[str]] = {}
        # id(idf) -> (idf, default_idf, record_id -> (weights, norm)).
        self._tfidf: dict[int, tuple] = {}

    def missing_flags(self, records: Sequence[Record]) -> list[bool]:
        """Whether each record's attribute value is None, memoized."""
        memo = self._missing
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        attribute = self.attribute
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                value = record.get(attribute) is None
                memo[record.record_id] = value
            out.append(value)
        _note_misses("missing_flags", len(memo) - before)
        return out

    def missing_mask(self, records_a: Sequence[Record],
                     records_b: Sequence[Record],
                     other: "PreparedColumn") -> np.ndarray:
        """Pair-aligned bool mask: True where either side is missing."""
        return (np.array(self.missing_flags(records_a), dtype=bool)
                | np.array(other.missing_flags(records_b), dtype=bool))

    def numbers(self, records: Sequence[Record]) -> np.ndarray:
        """Float values per record (NaN where missing), memoized."""
        memo = self._numbers
        try:
            return np.array([memo[record.record_id] for record in records],
                            dtype=np.float64)
        except KeyError:
            pass
        before = len(memo)
        attribute = self.attribute
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = math.nan if raw is None else float(raw)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("numbers", len(memo) - before)
        return np.array(out, dtype=np.float64)

    def raw(self, records: Sequence[Record]) -> list:
        """The raw attribute value per record (None where missing)."""
        attribute = self.attribute
        return [record.get(attribute) for record in records]

    def norms(self, records: Sequence[Record]) -> list[str]:
        """Normalized string per record ("" where missing), memoized."""
        memo, attribute = self._norms, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = "" if raw is None else normalize(str(raw))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("norms", len(memo) - before)
        return out

    def string_codes(self, records: Sequence[Record]) -> np.ndarray:
        """Dictionary code of each record's normalized string, memoized.

        Equal codes mean equal normalized strings, on either table.
        """
        memo = self._codes
        try:
            return np.array([memo[record.record_id] for record in records],
                            dtype=np.int64)
        except KeyError:
            pass
        before = len(memo)
        norms = self.norms(records)
        intern = _DICTIONARY.intern
        out = []
        for record, norm in zip(records, norms):
            code = memo.get(record.record_id)
            if code is None:
                code = intern(norm)
                memo[record.record_id] = code
            out.append(code)
        _note_misses("string_codes", len(memo) - before)
        return np.array(out, dtype=np.int64)

    def tokens(self, records: Sequence[Record]) -> list[tuple[str, ...]]:
        """Word-token tuple per record (empty where missing), memoized."""
        memo, attribute = self._tokens, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = (() if raw is None
                         else tuple(word_tokens(str(raw))))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("tokens", len(memo) - before)
        return out

    def token_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """Word-token frozenset per record, memoized."""
        memo = self._token_sets
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = frozenset(toks)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("token_sets", len(memo) - before)
        return out

    def qgram_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """3-gram frozenset per record, memoized."""
        memo, attribute = self._qgram_sets, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = (frozenset() if raw is None
                         else frozenset(qgrams(str(raw), 3)))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("qgram_sets", len(memo) - before)
        return out

    def word_id_arrays(self, records: Sequence[Record]) -> list[np.ndarray]:
        """Interned word-id int64 array per record, memoized."""
        memo = self._word_ids
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = np.fromiter(
                    map(_DICTIONARY.intern, toks),
                    dtype=np.int64, count=len(toks),
                )
                memo[record.record_id] = value
            out.append(value)
        _note_misses("word_id_arrays", len(memo) - before)
        return out

    def soundex_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """Soundex-code frozenset per record's words, memoized."""
        memo = self._soundex
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = frozenset(ext.soundex(word) for word in toks)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("soundex_sets", len(memo) - before)
        return out

    def tfidf_weights(self, records: Sequence[Record],
                      idf: Mapping[str, float]) -> list[tuple[dict, float]]:
        """Per-record (token -> tf*idf weights, norm), memoized per idf.

        Weight dicts are built exactly as the scalar
        :func:`repro.features.similarity.cosine_tfidf` builds them, so
        the per-pair dot product reproduces its result bit for bit.
        """
        entry = self._tfidf.get(id(idf))
        if entry is None:
            # A fresh idf mapping (even one equal to an already-cached
            # mapping) starts an empty weight table: every record's
            # weights will be recomputed.  This is the per-rule rebuild
            # the cache-miss counters make visible.
            _note_misses("tfidf_table", 1)
            default_idf = (max(idf.values()) + 1.0) if idf else 1.0
            entry = (idf, default_idf, {})
            self._tfidf[id(idf)] = entry
        _, default_idf, memo = entry
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                counts = Counter(toks)
                weights = {
                    token: count * idf.get(token, default_idf)
                    for token, count in counts.items()
                }
                norm = math.sqrt(sum(v * v for v in weights.values()))
                value = (weights, norm)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("tfidf_weights", len(memo) - before)
        return out


class TableFeatureCache:
    """One :class:`PreparedColumn` per attribute, for one table's records.

    Caches are keyed by ``record_id``, so a cache must only ever be used
    with records of the table it was created for — obtain instances via
    :func:`table_cache`, which enforces that by construction.
    """

    def __init__(self) -> None:
        self._columns: dict[str, PreparedColumn] = {}

    def column(self, attribute: str) -> PreparedColumn:
        """The (lazily created) prepared column for ``attribute``."""
        column = self._columns.get(attribute)
        if column is None:
            column = PreparedColumn(attribute)
            self._columns[attribute] = column
        return column


_TABLE_CACHES: "weakref.WeakKeyDictionary[Table, TableFeatureCache]" = (
    weakref.WeakKeyDictionary()
)


def table_cache(table: Table) -> TableFeatureCache:
    """The shared feature cache of ``table`` (created on first use)."""
    cache = _TABLE_CACHES.get(table)
    if cache is None:
        cache = TableFeatureCache()
        _TABLE_CACHES[table] = cache
    return cache


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


def _exact_numeric(col_a, records_a, col_b, records_b):
    return (col_a.numbers(records_a)
            == col_b.numbers(records_b)).astype(np.float64)


def _exact_string(col_a, records_a, col_b, records_b):
    norms_a = col_a.norms(records_a)
    norms_b = col_b.norms(records_b)
    return np.fromiter(
        (1.0 if a == b else 0.0 for a, b in zip(norms_a, norms_b)),
        dtype=np.float64, count=len(norms_a),
    )


def _abs_diff(col_a, records_a, col_b, records_b):
    return np.abs(col_a.numbers(records_a) - col_b.numbers(records_b))


def _rel_diff(col_a, records_a, col_b, records_b):
    a = col_a.numbers(records_a)
    b = col_b.numbers(records_b)
    denominator = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        # corlint: disable-next-line=CL004 — exact-zero division guard
        return np.where(denominator == 0.0, 0.0,
                        np.abs(a - b) / denominator)


def _jaccard_over(sets_of):
    def kernel(col_a, records_a, col_b, records_b):
        sets_a = sets_of(col_a, records_a)
        sets_b = sets_of(col_b, records_b)
        out = np.empty(len(sets_a), dtype=np.float64)
        for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
            if not sa and not sb:
                out[i] = 1.0
            else:
                intersection = len(sa & sb)
                out[i] = intersection / (len(sa) + len(sb) - intersection)
        return out
    return kernel


_jaccard_word = _jaccard_over(lambda col, recs: col.token_sets(recs))
_jaccard_qgram = _jaccard_over(lambda col, recs: col.qgram_sets(recs))


def _overlap(col_a, records_a, col_b, records_b):
    sets_a = col_a.token_sets(records_a)
    sets_b = col_b.token_sets(records_b)
    out = np.empty(len(sets_a), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
        if not sa and not sb:
            out[i] = 1.0
        else:
            smaller = min(len(sa), len(sb))
            out[i] = len(sa & sb) / smaller if smaller else 0.0
    return out


def _containment(col_a, records_a, col_b, records_b):
    sets_a = col_a.token_sets(records_a)
    sets_b = col_b.token_sets(records_b)
    out = np.empty(len(sets_a), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
        if not sa and not sb:
            out[i] = 1.0
        elif not sa or not sb:
            out[i] = 0.0
        else:
            intersection = len(sa & sb)
            out[i] = max(intersection / len(sa), intersection / len(sb))
    return out


def _levenshtein(col_a, records_a, col_b, records_b):
    codes_a, codes_b, rows = _coded_pairs(col_a, records_a, col_b, records_b)
    return _levenshtein_codes(codes_a, codes_b)[rows]


def _jaro_winkler(col_a, records_a, col_b, records_b):
    codes_a, codes_b, rows = _coded_pairs(col_a, records_a, col_b, records_b)
    return _jaro_winkler_codes(codes_a, codes_b)[rows]


def _smith_waterman(col_a, records_a, col_b, records_b):
    codes_a, codes_b, rows = _coded_pairs(col_a, records_a, col_b, records_b)
    len_a = _DICTIONARY.lengths(codes_a)
    len_b = _DICTIONARY.lengths(codes_b)
    values = ((len_a == 0) & (len_b == 0)).astype(np.float64)
    hard = (len_a > 0) & (len_b > 0)
    if hard.any():
        len_a, len_b = len_a[hard], len_b[hard]
        # Distinct negative pads: a padded cell never matches anything.
        values[hard] = ext.batch_smith_waterman(
            _DICTIONARY.points(codes_a[hard], -2, int(len_a.max())),
            _DICTIONARY.points(codes_b[hard], -1, int(len_b.max())),
            len_a, len_b,
        )
    return values[rows]


def _prefix(col_a, records_a, col_b, records_b):
    norms_a = col_a.norms(records_a)
    norms_b = col_b.norms(records_b)
    prefix = ext.prefix_similarity
    return np.fromiter(
        (prefix(a, b) for a, b in zip(norms_a, norms_b)),
        dtype=np.float64, count=len(norms_a),
    )


def _soundex(col_a, records_a, col_b, records_b):
    tokens_a = col_a.tokens(records_a)
    tokens_b = col_b.tokens(records_b)
    codes_a = col_a.soundex_sets(records_a)
    codes_b = col_b.soundex_sets(records_b)
    out = np.empty(len(tokens_a), dtype=np.float64)
    for i, (ta, tb, ca, cb) in enumerate(
            zip(tokens_a, tokens_b, codes_a, codes_b)):
        if not ta and not tb:
            out[i] = 1.0
        elif not ta or not tb:
            out[i] = 0.0
        else:
            shorter, other = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
            hits = sum(1 for code in shorter if code in other)
            out[i] = hits / len(shorter)
    return out


def _make_cosine_tfidf(idf: Mapping[str, float]) -> BatchKernel:
    def kernel(col_a, records_a, col_b, records_b):
        pairs_a = col_a.tfidf_weights(records_a, idf)
        pairs_b = col_b.tfidf_weights(records_b, idf)
        out = np.empty(len(pairs_a), dtype=np.float64)
        for i, ((wa, norm_a), (wb, norm_b)) in enumerate(
                zip(pairs_a, pairs_b)):
            if not wa and not wb:
                out[i] = 1.0
            elif not wa or not wb:
                out[i] = 0.0
            # corlint: disable-next-line=CL004 — exact-zero guard
            elif norm_a == 0.0 or norm_b == 0.0:
                out[i] = 0.0
            else:
                dot = sum(wa[token] * wb[token]
                          for token in wa if token in wb)
                out[i] = dot / (norm_a * norm_b)
        return out
    return kernel


# ----------------------------------------------------------------------
# Bit-parallel string kernels over dictionary codes
# ----------------------------------------------------------------------

_BITS = 64
"""Characters one ``uint64`` bit vector holds.  A row whose bit-side
string is longer goes to the scalar oracle."""

_KERNEL_ROWS = 1 << 15
"""Rows a bit-parallel kernel advances together; bounds its
temporaries (a few arrays of this many words) for any input size."""

_ONE = np.uint64(1)
_BELOW = np.array([(1 << k) - 1 for k in range(_BITS + 1)], dtype=np.uint64)
"""``_BELOW[k]`` has bits 0..k-1 set.  A table, because a uint64 shift
by 64 is undefined in C and numpy versions disagree on it."""
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)],
                     dtype=np.int64)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64."""
    return _POPCOUNT[np.ascontiguousarray(words).view(np.uint8)
                     ].reshape(-1, 8).sum(axis=1)


def _coded_pairs(col_a, records_a, col_b, records_b):
    """Distinct (A code, B code) pairs of a pair column, plus each row's
    index into them.

    Cartesian chunks repeat values heavily (every record of A meets every
    record of B, and low-cardinality columns repeat across records), so
    every string kernel computes each distinct pair once.
    """
    codes_a = col_a.string_codes(records_a)
    codes_b = col_b.string_codes(records_b)
    width = max(int(codes_a.max(initial=0)), int(codes_b.max(initial=0))) + 1
    keys, rows = np.unique(codes_a * width + codes_b, return_inverse=True)
    return keys // width, keys % width, rows.reshape(-1)


def _bit_tables(bit_codes: np.ndarray, scan_codes: np.ndarray):
    """Match-bit table of the bit-side strings, letters of the scan side.

    Returns ``(peq, letters)``: ``peq[r, c]`` has bit ``k`` set iff
    character ``k`` of bit-side string ``r`` is letter ``c``, and
    ``letters[r, i]`` is the letter of character ``i`` of scan-side
    string ``r``.  Letters index the characters of this call only, so
    the table stays small whatever the code points.
    """
    bits = _DICTIONARY.points(
        bit_codes, -1, int(_DICTIONARY.lengths(bit_codes).max()))
    scan = _DICTIONARY.points(
        scan_codes, -1, int(_DICTIONARY.lengths(scan_codes).max()))
    alphabet, index = np.unique(
        np.concatenate((bits.ravel(), scan.ravel())), return_inverse=True)
    index = index.reshape(-1)
    bit_letters = index[:bits.size].reshape(bits.shape)
    peq = np.zeros((bits.shape[0], alphabet.size), dtype=np.uint64)
    rows, cols = np.nonzero(bits >= 0)
    np.bitwise_or.at(peq, (rows, bit_letters[rows, cols]),
                     _BELOW[cols + 1] ^ _BELOW[cols])
    return peq, index[bits.size:].reshape(scan.shape)


def _scan_chunks(scan_lengths: np.ndarray):
    """Row chunks in descending scan length, with each step's live rows.

    Yields ``(rows, live)``: ``live[i]`` rows of the chunk still have a
    character at position ``i``, and they are its first ``live[i]``
    rows, so every step touches a shrinking prefix.
    """
    order = np.argsort(-scan_lengths, kind="stable")
    for start in range(0, order.size, _KERNEL_ROWS):
        rows = order[start:start + _KERNEL_ROWS]
        ascending = scan_lengths[rows][::-1]
        steps = np.arange(int(ascending[-1]))
        yield rows, rows.size - np.searchsorted(ascending, steps, "right")


def _edit_distances(pattern: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Levenshtein distance of each (pattern, text) code pair.

    Myers/Hyyrö bit-vector edit distance: one uint64 per row holds the
    vertical deltas of the DP column over the pattern (1 to 64
    characters); each numpy step consumes one text character.
    """
    patterns, pattern_rows = np.unique(pattern, return_inverse=True)
    texts, text_rows = np.unique(text, return_inverse=True)
    pattern_rows, text_rows = pattern_rows.reshape(-1), text_rows.reshape(-1)
    peq, letters = _bit_tables(patterns, texts)
    peq_flat = peq.ravel()
    m = _DICTIONARY.lengths(patterns)[pattern_rows]
    n = _DICTIONARY.lengths(texts)[text_rows]
    distance = np.empty(pattern.size, dtype=np.int64)
    for rows, live in _scan_chunks(n):
        # Column j of `index` holds each row's peq position for text[j].
        index = np.ascontiguousarray(
            (letters[text_rows[rows], :live.size]
             + (pattern_rows[rows] * peq.shape[1])[:, None]).T)
        pv = np.full(rows.size, _BELOW[_BITS], dtype=np.uint64)
        mv = np.zeros(rows.size, dtype=np.uint64)
        for j, k in enumerate(live.tolist()):
            eq = peq_flat.take(index[j, :k])
            pv_k, mv_k = pv[:k], mv[:k]
            xv = eq | mv_k
            xh = (((eq & pv_k) + pv_k) ^ pv_k) | eq
            ph = mv_k | ~(xh | pv_k)
            mh = pv_k & xh
            ph = (ph << _ONE) | _ONE
            mh <<= _ONE
            pv[:k] = mh | ~(xv | ph)
            mv[:k] = ph & xv
        # D[m][n] = D[0][n] + the column's vertical deltas.
        mask = _BELOW[m[rows]]
        distance[rows] = (n[rows] + _popcount(pv & mask)
                          - _popcount(mv & mask))
    return distance


def _levenshtein_codes(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """``levenshtein_similarity`` of each (a, b) code pair.

    The bit side is the shorter string (edit distance is symmetric); a
    pair whose shorter side exceeds :data:`_BITS` goes to the scalar
    ``levenshtein_distance``.
    """
    len_a = _DICTIONARY.lengths(codes_a)
    len_b = _DICTIONARY.lengths(codes_b)
    longest = np.maximum(len_a, len_b)
    shortest = np.minimum(len_a, len_b)
    distance = np.where(codes_a == codes_b, 0, longest)
    work = (shortest > 0) & (codes_a != codes_b)
    fast = work & (shortest <= _BITS)
    if fast.any():
        on_a = len_a <= len_b
        distance[fast] = _edit_distances(
            np.where(on_a, codes_a, codes_b)[fast],
            np.where(on_a, codes_b, codes_a)[fast])
    strings = _DICTIONARY.strings
    for row in np.flatnonzero(work & ~fast).tolist():
        distance[row] = sim.levenshtein_distance(
            strings[codes_a[row]], strings[codes_b[row]])
    return 1.0 - distance / np.maximum(longest, 1)


def _jaro_counts(peq_flat, base, letters, window, live):
    """Jaro's match and transposition counts for one row chunk.

    The first pass is the scalar loop's greedy first fit: for each
    character ``s[i]``, ``cand`` holds the free matching positions of
    ``t`` inside the window, and ``cand & (~cand + 1)`` is the lowest.
    The second pass walks t's matched bits in order against s's matched
    positions.
    """
    index = np.ascontiguousarray((letters + base[:, None]).T)
    high = window + 1
    low = -window
    flagged = np.zeros(base.size, dtype=np.uint64)
    hits = np.zeros((live.size, base.size), dtype=bool)
    for i, k in enumerate(live.tolist()):
        cand = _BELOW.take(high[:k] + i, mode="clip")
        cand &= ~_BELOW.take(low[:k] + i, mode="clip")
        cand &= peq_flat.take(index[i, :k])
        cand &= ~flagged[:k]
        first = ~cand
        first += _ONE
        first &= cand
        flagged[:k] |= first
        np.not_equal(first, 0, out=hits[i, :k])
    transposed = np.zeros(base.size, dtype=np.int64)
    for i, k in enumerate(live.tolist()):
        hit = hits[i, :k]
        rest = flagged[:k]
        first = ~rest
        first += _ONE
        first &= rest
        first *= hit
        rest ^= first
        transposed[:k] += hit & ((first & peq_flat.take(index[i, :k])) == 0)
    return hits.sum(axis=0), transposed // 2


def _jaro_winkler_codes(codes_s: np.ndarray, codes_t: np.ndarray) -> np.ndarray:
    """``jaro_winkler(s, t)`` of each (s, t) code pair.

    Bit-parallel over ``t``; a pair whose ``t`` exceeds :data:`_BITS`
    goes to the scalar ``jaro_winkler``.  Match and transposition counts
    are integers, and the float formulas after them are the scalar's, so
    values are bit-identical.
    """
    len_s = _DICTIONARY.lengths(codes_s)
    len_t = _DICTIONARY.lengths(codes_t)
    equal = codes_s == codes_t
    values = equal.astype(np.float64)  # 1.0; 0.0 when a side is empty
    work = ~equal & (len_s > 0) & (len_t > 0)
    fast = work & (len_t <= _BITS)
    if fast.any():
        values[fast] = _jaro_winkler_bits(codes_s[fast], codes_t[fast])
    strings = _DICTIONARY.strings
    for row in np.flatnonzero(work & ~fast).tolist():
        values[row] = sim.jaro_winkler(strings[codes_s[row]],
                                       strings[codes_t[row]])
    return values


def _jaro_winkler_bits(codes_s: np.ndarray, codes_t: np.ndarray) -> np.ndarray:
    """Jaro-Winkler of distinct, non-empty pairs with ``len(t) <= 64``."""
    targets, t_rows = np.unique(codes_t, return_inverse=True)
    sources, s_rows = np.unique(codes_s, return_inverse=True)
    t_rows, s_rows = t_rows.reshape(-1), s_rows.reshape(-1)
    peq, letters = _bit_tables(targets, sources)
    len_s = _DICTIONARY.lengths(sources)[s_rows]
    len_t = _DICTIONARY.lengths(targets)[t_rows]
    window = np.maximum(np.maximum(len_s, len_t) // 2 - 1, 0)
    m = np.empty(codes_s.size, dtype=np.int64)
    transposed = np.empty(codes_s.size, dtype=np.int64)
    for rows, live in _scan_chunks(len_s):
        m[rows], transposed[rows] = _jaro_counts(
            peq.ravel(), t_rows[rows] * peq.shape[1],
            letters[s_rows[rows], :live.size], window[rows], live)
    with np.errstate(invalid="ignore", divide="ignore"):
        jaro = (m / len_s + m / len_t + (m - transposed) / m) / 3.0
    jaro[m == 0] = 0.0
    # Winkler boost: the common prefix over the first four characters.
    heads = (_DICTIONARY.points(sources, -1, 4)[s_rows]
             == _DICTIONARY.points(targets, -2, 4)[t_rows])
    prefix = np.cumprod(heads, axis=1).sum(axis=1)
    return jaro + prefix * 0.1 * (1.0 - jaro)


# ----------------------------------------------------------------------
# Monge-Elkan over block-local word vocabularies
# ----------------------------------------------------------------------

_MONGE_BLOCK_ELEMENTS = 1 << 22
"""Cap on elements of a block's (rows, words_a, words_b) value tensor
and of its |vocabulary_a| x |vocabulary_b| table, bounding peak memory
to ~32 MB each regardless of chunk size."""


def _padded_ids(ids: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Word-id arrays stacked into an (n, width) matrix padded with -1,
    plus each row's word count."""
    sizes = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    width = int(sizes.max(initial=0))
    matrix = np.full((len(ids), width), -1, dtype=np.int64)
    if width:
        # Boolean-mask assignment fills row-major, in concatenation order.
        matrix[np.arange(width) < sizes[:, None]] = np.concatenate(ids)
    return matrix, sizes


def _monge_elkan(col_a, records_a, col_b, records_b):
    ids_a, size_a = _padded_ids(col_a.word_id_arrays(records_a))
    ids_b, size_b = _padded_ids(col_b.word_id_arrays(records_b))
    out = ((size_a == 0) & (size_b == 0)).astype(np.float64)
    hard = np.flatnonzero((size_a > 0) & (size_b > 0))
    if hard.size:
        per_row = int(size_a[hard].max()) * int(size_b[hard].max())
        step = max(1, _MONGE_BLOCK_ELEMENTS // per_row)
        for start in range(0, hard.size, step):
            _monge_elkan_block(ids_a, size_a, ids_b, size_b,
                               hard[start:start + step], out)
    return out


def _monge_elkan_block(ids_a, size_a, ids_b, size_b, rows, out) -> None:
    sizes_a, sizes_b = size_a[rows], size_b[rows]
    block_a = ids_a[rows, :int(sizes_a.max())]
    block_b = ids_b[rows, :int(sizes_b.max())]
    vocab_a, local_a = np.unique(block_a, return_inverse=True)
    vocab_b, local_b = np.unique(block_b, return_inverse=True)
    if vocab_a.size * vocab_b.size > _MONGE_BLOCK_ELEMENTS and rows.size > 1:
        half = rows.size // 2
        _monge_elkan_block(ids_a, size_a, ids_b, size_b, rows[:half], out)
        _monge_elkan_block(ids_a, size_a, ids_b, size_b, rows[half:], out)
        return

    table = _word_table(vocab_a, vocab_b)
    local = (local_a.reshape(block_a.shape)[:, :, None] * vocab_b.size
             + local_b.reshape(block_b.shape)[:, None, :])
    values = table.take(local)  # -inf wherever either word is padding
    best_ab = values.max(axis=2)  # (n, width_a): best partner per a-word
    best_ba = values.max(axis=1)  # (n, width_b): best partner per b-word

    # np.cumsum adds sequentially in token order, exactly like the
    # scalar directed() loop, so the means keep bit parity.
    n = np.arange(rows.size)
    total_ab = np.cumsum(best_ab, axis=1)[n, sizes_a - 1]
    total_ba = np.cumsum(best_ba, axis=1)[n, sizes_b - 1]
    out[rows] = (total_ab / sizes_a + total_ba / sizes_b) / 2.0


def _word_table(vocab_a: np.ndarray, vocab_b: np.ndarray) -> np.ndarray:
    """Dense word-level Jaro-Winkler over two sorted vocabularies.

    A leading -1 (the padding id) gets a row or column of -inf.  Word
    pairs missing from :data:`_JW_BY_KEY` are computed in one kernel
    call and cached.
    """
    table = np.full((vocab_a.size, vocab_b.size), -np.inf)
    skip_a, skip_b = int(vocab_a[0] < 0), int(vocab_b[0] < 0)
    keys = ((vocab_a[skip_a:, None] << 32) | vocab_b[None, skip_b:]).ravel()
    values = np.fromiter(
        map(_JW_BY_KEY.get, keys.tolist(), repeat(math.nan)),
        dtype=np.float64, count=keys.size)
    missing = np.isnan(values)
    if missing.any():
        fresh_keys = keys[missing]
        fresh = _jaro_winkler_codes(fresh_keys >> 32, fresh_keys & 0xFFFFFFFF)
        values[missing] = fresh
        _JW_BY_KEY.update(zip(fresh_keys.tolist(), fresh.tolist()))
    table[skip_a:, skip_b:] = values.reshape(vocab_a.size - skip_a, -1)
    return table


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_KERNELS: dict[str, BatchKernel] = {
    "abs_diff": _abs_diff,
    "rel_diff": _rel_diff,
    "jaccard_word": _jaccard_word,
    "jaccard_qgram": _jaccard_qgram,
    "overlap": _overlap,
    "containment": _containment,
    "levenshtein": _levenshtein,
    "jaro_winkler": _jaro_winkler,
    "monge_elkan": _monge_elkan,
    "smith_waterman": _smith_waterman,
    "prefix": _prefix,
    "soundex": _soundex,
}


def kernel_for(measure: str, attr_type: AttrType,
               idf: Mapping[str, float] | None = None) -> BatchKernel | None:
    """The batch kernel for ``measure`` on an ``attr_type`` column.

    Returns None for measures without a batched implementation; those
    features fall back to the scalar ``value()`` loop.
    """
    if measure == "exact":
        return (_exact_numeric if attr_type is AttrType.NUMERIC
                else _exact_string)
    if measure == "cosine_tfidf":
        return _make_cosine_tfidf(idf if idf is not None else {})
    return _KERNELS.get(measure)
