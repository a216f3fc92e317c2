"""Batched feature evaluation: the blocking/vectorization hot-path engine.

Corleone's §4.3 rule-application step streams all of A x B through the
blocking rules — the paper's only Hadoop-scale component — and §5.1
turns every surviving pair into a feature vector.  Both run through this
module, underneath :meth:`repro.features.library.Feature.batch_value`,
where a pair column is two int64 arrays of table row positions:

* :class:`PreparedColumn` holds whole-table arrays for one attribute of
  one table, each built once, on first use, and indexed by row: missing
  flags, numbers, codes of the normalized strings in a process-wide
  string dictionary, word codes in token order, sorted distinct word,
  q-gram and Soundex code sets (CSR: offsets plus flat codes), TF/IDF
  codes, weights and norms per idf mapping, and the word-level
  Jaro-Winkler table of each column pair Monge-Elkan meets;
  :func:`prepared_column` returns the one of a (table, attribute);
* :func:`kernel_for` maps every library measure to a kernel over row
  arrays: numeric and exact measures compare gathered numbers and
  codes; the Jaccard, overlap, containment and Soundex measures count
  set intersections with one membership matrix over the distinct rows
  of each block of pairs; Monge-Elkan takes each word's best partner per row from
  the column pair's word table, and it and TF/IDF cosine add in token
  order with a sequential ``np.cumsum``; Levenshtein, Jaro-Winkler
  (bit-parallel: Myers/Hyyrö edit distance, a bit-vector greedy Jaro
  matcher), Smith-Waterman (a numpy DP) and prefix run once per
  distinct (A string, B string) code pair.

Every kernel returns exactly the values of the per-pair scalar
functions in :mod:`repro.features.similarity` and
:mod:`repro.features.extended`, bit for bit (NaN positions included);
``tests/feature_oracle.py`` evaluates them pair by pair as the parity
oracle.  The bit-parallel kernels still call the scalar functions for
strings longer than one 64-bit word.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from itertools import chain
from typing import Any, NamedTuple

import numpy as np

from ..data.table import AttrType, Table
from ..exceptions import FeatureError
from . import extended as ext
from . import similarity as sim
from .tokenize import normalize, word_tokens

BatchKernel = Callable[
    ["PreparedColumn", np.ndarray, "PreparedColumn", np.ndarray],
    np.ndarray,
]
"""A measure evaluated column-wise: (column_a, rows_a, column_b, rows_b)
-> float64 array aligned with the two row arrays.  Kernels do not
handle missing values — ``Feature.batch_value`` masks them to NaN."""


# ----------------------------------------------------------------------
# Build accounting
# ----------------------------------------------------------------------

_BUILDS: "Counter[str]" = Counter()
"""Whole-table array builds by kind, process-lifetime.

``tfidf_table`` counts TF/IDF array builds, one per column and idf
mapping.  Arrays are keyed by the mapping's *identity*, so two libraries
built over the same tables (equal but distinct idf mappings) weigh
every record twice — the per-rule waste the plan compiler exists to
remove.  Like the wall-clock profiler, these counters depend on
process-lifetime cache warmth (a replayed run finds what the first run
built), so they are deliberately NOT part of the checkpointed metrics
registry — read them via :func:`cache_stats`.
"""


def _note_build(kind: str) -> None:
    """Record one whole-table array build of ``kind``."""
    _BUILDS[kind] += 1


def cache_stats() -> dict[str, int]:
    """A snapshot of the process-lifetime build counters."""
    return dict(_BUILDS)


def reset_cache_stats() -> None:
    """Zero the build counters (benchmark harness hook)."""
    _BUILDS.clear()


# ----------------------------------------------------------------------
# Bounds on kernel temporaries
# ----------------------------------------------------------------------

_KERNEL_ROWS = 1 << 15
"""Distinct string pairs a bit-parallel kernel advances together.  Each
scan step allocates a few arrays of at most this many words, whatever
the string lengths (~256 KB each)."""

_BLOCK_ELEMENTS = 1 << 17
"""The element budget of one kernel block or word-table band (1 MB of
float64).  Blocks are sized from it before any work starts: a set,
TF/IDF or Monge-Elkan block holds ``_BLOCK_ELEMENTS // width`` pairs,
where ``width`` is the longest A list (the longer word list for
Monge-Elkan), so each of its (pairs x width) temporaries fits; a
word-table band holds at most this many word pairs.  A temporary whose
size depends on a block's vocabulary (a membership matrix, a word or
best-partner table) is checked against the same memory, counted in
bytes, once the vocabulary is known, and the block is halved when it
would not fit.  Every cell index into such a temporary is therefore far
below the int32 range of the cell matrices."""

_WORD_TABLE_ELEMENTS = 1 << 22
"""Largest word table (|V_A| x |V_B| entries, ~32 MB of float64) a
column pair keeps for Monge-Elkan; past it, each block builds a table
over its own vocabularies."""


# ----------------------------------------------------------------------
# The string dictionary (shared by every code-based kernel)
# ----------------------------------------------------------------------


class _StringDictionary:
    """Process-wide interner: one int code per distinct string.

    Records' normalized values, their words and Soundex codes share one
    code space, so equal codes mean equal strings across
    tables and attributes.  Each string's length and code-point row are
    stored once, when it is first interned, in flat arrays the kernels
    gather from.  Every string is interned while a prepared array is
    built, so forked workers inherit a dictionary they only read.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self.strings: list[str] = []
        self._starts = np.zeros(1 << 10, dtype=np.int64)
        self._lengths = np.zeros(1 << 10, dtype=np.int64)
        self._points = np.zeros(1 << 14, dtype=np.int32)
        self._used = 0

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """The code of each of ``texts``; new strings get the next codes,
        in order of first sight."""
        codes = self._codes
        fresh = [text for text in dict.fromkeys(texts) if text not in codes]
        if fresh:
            self._add(fresh)
        return np.fromiter(map(codes.__getitem__, texts), dtype=np.int64,
                           count=len(texts))

    def _add(self, fresh: list[str]) -> None:
        first = len(self.strings)
        lengths = np.fromiter(map(len, fresh), dtype=np.int64,
                              count=len(fresh))
        points = np.frombuffer(
            "".join(fresh).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        end = first + len(fresh)
        if end > self._lengths.size:
            self._starts = _grown(self._starts, end)
            self._lengths = _grown(self._lengths, end)
        used = self._used + points.size
        if used > self._points.size:
            self._points = _grown(self._points, used)
        self._points[self._used:used] = points
        self._starts[first:end] = self._used + np.cumsum(lengths) - lengths
        self._lengths[first:end] = lengths
        self._used = used
        self._codes.update(zip(fresh, range(first, end)))
        self.strings.extend(fresh)

    def lengths(self, codes: np.ndarray) -> np.ndarray:
        """Length in code points of each coded string."""
        return self._lengths[codes]

    def point_at(self, codes: np.ndarray, index: np.ndarray,
                 pad: int) -> np.ndarray:
        """Code point ``index[i]`` of string ``codes[i]``; ``pad`` where
        the index lies outside the string."""
        inside = (index >= 0) & (index < self._lengths[codes])
        at = np.where(inside, self._starts[codes] + index, 0)
        return np.where(inside, self._points[at], pad)

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


# ----------------------------------------------------------------------
# Whole-table prepared arrays
# ----------------------------------------------------------------------


class CodeLists(NamedTuple):
    """One list of dictionary codes per table row, stored as CSR: row
    ``r`` holds ``codes[offsets[r]:offsets[r + 1]]``."""

    offsets: np.ndarray
    codes: np.ndarray

    def sizes(self, rows: np.ndarray) -> np.ndarray:
        """Length of each row's list."""
        return self.offsets[rows + 1] - self.offsets[rows]


class TfidfArrays(NamedTuple):
    """TF/IDF weights of every row under one idf mapping."""

    terms: CodeLists
    """Each row's distinct word codes in order of first occurrence."""
    weights: np.ndarray
    """count * idf of each term, aligned with ``terms.codes``."""
    norms: np.ndarray
    """Euclidean norm of each row's weights, added left to right."""


class WordTable(NamedTuple):
    """Word-level Jaro-Winkler of one column pair over its vocabularies."""

    values: np.ndarray
    """``values[i, j]``: Jaro-Winkler of A-vocabulary word i and
    B-vocabulary word j."""
    local_a: np.ndarray
    """Each token of column A's word lists as its row of ``values``."""
    local_b: np.ndarray
    """Each token of column B's word lists as its column of ``values``."""


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets of lists of ``sizes``."""
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """``0, 1, ..., size - 1`` for each of ``sizes``, concatenated."""
    return np.arange(int(sizes.sum())) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)


def _code_lists(lists: Sequence[Sequence[str]]) -> CodeLists:
    """CSR of the dictionary codes of per-row string lists."""
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    return CodeLists(_offsets(sizes),
                     _DICTIONARY.encode(list(chain.from_iterable(lists))))


def _distinct(lists: CodeLists) -> CodeLists:
    """Each row's codes sorted, duplicates dropped."""
    n = lists.offsets.size - 1
    owner = np.repeat(np.arange(n), np.diff(lists.offsets))
    order = np.lexsort((lists.codes, owner))
    owner, codes = owner[order], lists.codes[order]
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (codes[1:] != codes[:-1])
    return CodeLists(np.searchsorted(owner[keep], np.arange(n + 1)),
                     codes[keep])


def _qgram_lists(codes: np.ndarray) -> CodeLists:
    """The 3-grams of each coded string, padded with "##" on both sides
    as :func:`repro.features.tokenize.qgrams` pads them (none for the
    empty string).  A 3-gram's code packs its code points, 21 bits
    each, so equal codes mean equal 3-grams without a dictionary."""
    lengths = _DICTIONARY.lengths(codes)
    sizes = np.where(lengths > 0, lengths + 2, 0)
    owner = np.repeat(codes, sizes)
    position = _ranks(sizes)
    grams = np.zeros(owner.size, dtype=np.int64)
    for shift in (-2, -1, 0):
        grams <<= 21
        grams |= _DICTIONARY.point_at(owner, position + shift, ord("#"))
    return CodeLists(_offsets(sizes), grams)


class PreparedColumn:
    """Whole-table prepared arrays for one attribute of one table.

    Each accessor returns an array indexed by table row (or a
    :class:`CodeLists` with one list per row), built on first use from
    the attribute values captured at construction.  Missing values map
    to neutral empties (the empty string's code, empty lists); callers
    mask them to NaN afterwards.  :func:`prepared_column` replaces a
    column once its table has grown, so rows added by ``Table.add`` are
    always covered.
    """

    def __init__(self, values: list[Any]) -> None:
        self._values = values
        self.size = len(values)
        self._arrays: dict[str, Any] = {}
        # id(idf) -> (idf, arrays): holding the mapping keeps its id
        # from being recycled by another mapping while the entry lives.
        self._tfidf: dict[int, tuple[Mapping[str, float], TfidfArrays]] = {}
        # Weakly keyed, so a column of a table that is gone (say, last
        # month's B) does not live on in this one's word tables.
        self._word_tables: weakref.WeakKeyDictionary[
            PreparedColumn, WordTable | None] = weakref.WeakKeyDictionary()

    def _built(self, kind: str, build: Callable[[], Any]) -> Any:
        array = self._arrays.get(kind)
        if array is None:
            array = self._arrays[kind] = build()
            _note_build(kind)
        return array

    def _texts(self) -> list[str | None]:
        return [None if value is None else str(value)
                for value in self._values]

    def missing(self) -> np.ndarray:
        """Whether each row's value is None."""
        return self._built("missing", lambda: np.array(
            [value is None for value in self._values], dtype=bool))

    def numbers(self) -> np.ndarray:
        """Float value of each row (NaN where missing)."""
        return self._built("numbers", lambda: np.array(
            [math.nan if value is None else float(value)
             for value in self._values], dtype=np.float64))

    def codes(self) -> np.ndarray:
        """Dictionary code of each row's normalized string ("" where
        missing); equal codes mean equal strings, on either table."""
        return self._built("codes", lambda: _DICTIONARY.encode([
            "" if text is None else normalize(text)
            for text in self._texts()]))

    def words(self) -> CodeLists:
        """Codes of each row's word tokens, in token order."""
        return self._built("words", lambda: _code_lists([
            () if text is None else word_tokens(text)
            for text in self._texts()]))

    def word_sets(self) -> CodeLists:
        """Each row's distinct word codes, sorted."""
        return self._built("word_sets", lambda: _distinct(self.words()))

    def qgram_sets(self) -> CodeLists:
        """Each row's distinct 3-gram codes (see :func:`_qgram_lists`),
        sorted."""
        return self._built("qgram_sets", lambda: _distinct(
            _qgram_lists(self.codes())))

    def soundex_sets(self) -> CodeLists:
        """Each row's distinct Soundex codes of its words, sorted."""
        def build() -> CodeLists:
            words = self.words()
            vocabulary, index = np.unique(words.codes, return_inverse=True)
            strings = _DICTIONARY.strings
            sounds = _DICTIONARY.encode([ext.soundex(strings[code])
                                         for code in vocabulary.tolist()])
            return _distinct(
                CodeLists(words.offsets, sounds[index.reshape(-1)]))
        return self._built("soundex_sets", build)

    def tfidf(self, idf: Mapping[str, float]) -> TfidfArrays:
        """Each row's TF/IDF weights under ``idf``, built once per mapping.

        Weights and norms are computed exactly as the scalar
        :func:`repro.features.similarity.cosine_tfidf` computes them.
        """
        entry = self._tfidf.get(id(idf))
        if entry is None:
            entry = self._tfidf[id(idf)] = (idf, _tfidf_arrays(
                self.words(), idf))
            _note_build("tfidf_table")
        return entry[1]

    def word_table(self, other: PreparedColumn) -> WordTable | None:
        """The Jaro-Winkler table of this column's words by ``other``'s.

        Built once per column pair, and kept only while
        |vocabulary| x |other vocabulary| fits
        :data:`_WORD_TABLE_ELEMENTS`; past it, None, and Monge-Elkan
        builds one table per block instead.
        """
        if other not in self._word_tables:
            self._word_tables[other] = _word_table(self.words(),
                                                   other.words())
        return self._word_tables[other]


def _tfidf_arrays(words: CodeLists, idf: Mapping[str, float]) -> TfidfArrays:
    default_idf = (max(idf.values()) + 1.0) if idf else 1.0
    strings = _DICTIONARY.strings
    flat = words.codes.tolist()
    bounds = words.offsets.tolist()
    terms: list[int] = []
    sizes: list[int] = []
    weights: list[float] = []
    norms: list[float] = []
    for start, stop in zip(bounds, bounds[1:]):
        counts = Counter(flat[start:stop])
        row = [count * idf.get(strings[code], default_idf)
               for code, count in counts.items()]
        terms.extend(counts)
        weights.extend(row)
        sizes.append(len(row))
        norms.append(sim.tfidf_norm(row))
    return TfidfArrays(
        CodeLists(_offsets(np.array(sizes, dtype=np.int64)),
                  np.array(terms, dtype=np.int64)),
        np.array(weights, dtype=np.float64),
        np.array(norms, dtype=np.float64))


def _word_table(words_a: CodeLists, words_b: CodeLists) -> WordTable | None:
    vocabulary_a, local_a = np.unique(words_a.codes, return_inverse=True)
    vocabulary_b, local_b = np.unique(words_b.codes, return_inverse=True)
    if vocabulary_a.size * vocabulary_b.size > _WORD_TABLE_ELEMENTS:
        return None
    _note_build("word_table")
    return WordTable(_jaro_winkler_table(vocabulary_a, vocabulary_b),
                     local_a.reshape(-1), local_b.reshape(-1))


_COLUMNS: "weakref.WeakKeyDictionary[Table, dict[str, PreparedColumn]]" = (
    weakref.WeakKeyDictionary()
)


def prepared_column(table: Table, attribute: str) -> PreparedColumn:
    """The shared prepared column of ``table``'s ``attribute``.

    Created on first use, and created afresh once the table has grown.
    """
    columns = _COLUMNS.get(table)
    if columns is None:
        columns = _COLUMNS[table] = {}
    column = columns.get(attribute)
    if column is None or column.size != len(table):
        column = columns[attribute] = PreparedColumn(
            [record.get(attribute) for record in table])
    return column


# ----------------------------------------------------------------------
# Row-array helpers
# ----------------------------------------------------------------------


def _owners(rows: np.ndarray, lists: CodeLists) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows``, ascending, and each entry's index
    into them."""
    seen = np.zeros(lists.offsets.size - 1, dtype=bool)
    seen[rows] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[rows]


def _padded(offsets: np.ndarray, values: np.ndarray, rows: np.ndarray,
            pad: Any) -> np.ndarray:
    """The CSR lists of ``rows`` (``values[offsets[r]:offsets[r + 1]]``)
    as a matrix, one row each, padded with ``pad`` after their ends (at
    least one column, so a matrix of empty lists is all ``pad``)."""
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    columns = np.arange(max(1, int(sizes.max(initial=0))))
    inside = columns < sizes[:, None]
    out = np.full(inside.shape, pad, dtype=values.dtype)
    out[inside] = values[(starts[:, None] + columns)[inside]]
    return out


def _blockwise(evaluate: Callable[[np.ndarray, np.ndarray],
                                  np.ndarray | None],
               rows_a: np.ndarray, rows_b: np.ndarray, width: int,
               dtype: Any = np.float64) -> np.ndarray:
    """``evaluate(rows_a, rows_b)`` over consecutive blocks of pairs.

    A block holds ``_BLOCK_ELEMENTS // width`` pairs, so its (pairs x
    ``width``) temporaries fit :data:`_BLOCK_ELEMENTS` before any work
    starts.  ``evaluate`` returns the values of the block's pairs, or
    None when a temporary sized by the block's vocabulary would not fit
    (never for a single pair); the block is then halved, and the blocks
    after it keep the smaller size.

    Pairs that do not come in A-row order (the order of A x B and of
    candidate sets) are grouped by B row first: a block then meets few
    B rows, so its matrices over B rows stay small, and each B list is
    read by one block only.  Each pair's value is computed on its own,
    so the order in which pairs are visited moves no value.
    """
    order = None
    if np.any(rows_a[1:] < rows_a[:-1]):
        order = np.argsort(rows_b)
        rows_a, rows_b = rows_a[order], rows_b[order]
    n = rows_a.size
    step = max(1, _BLOCK_ELEMENTS // max(1, width))
    out = np.empty(n, dtype=dtype)
    lo = 0
    while lo < n:
        hi = min(lo + step, n)
        values = evaluate(rows_a[lo:hi], rows_b[lo:hi])
        if values is None:
            step = (hi - lo) // 2
        else:
            out[lo:hi] = values
            lo = hi
    if order is None:
        return out
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


_INT32_CELLS = int(np.iinfo(np.int32).max)


def _fits(elements: int, dtype: Any, capped: bool) -> bool:
    """Whether a block may build a temporary of ``elements`` items of
    ``dtype`` whose size depends on its vocabulary: False past the bytes
    of :data:`_BLOCK_ELEMENTS` float64 elements when ``capped`` (more
    than one pair; the caller halves the block).

    Cell matrices index such a temporary in int32, so one whose last
    cell is past that range raises :class:`FeatureError` instead of
    wrapping; under the budget this cannot happen.
    """
    if capped and elements * np.dtype(dtype).itemsize > _BLOCK_ELEMENTS * 8:
        return False
    if elements > _INT32_CELLS:
        raise FeatureError(
            f"a kernel block of {elements} cells passes the int32 range")
    return True


def _cells(local: np.ndarray, index_s: np.ndarray, index_t: np.ndarray,
           stride: int) -> np.ndarray:
    """Flat int32 indices into a (t rows x ``stride``) matrix: pair
    ``i`` reads row ``index_t[i]`` at the columns ``local[index_s[i]]``
    (one row of ``local`` per distinct s row)."""
    cells = local.astype(np.int32).take(index_s, axis=0)
    cells += (index_t * stride).astype(np.int32)[:, None]
    return cells


def _pick(lists_a: CodeLists, rows_a: np.ndarray, lists_b: CodeLists,
          rows_b: np.ndarray, fill_b: np.ndarray | None = None):
    """B's entry for every code of every pair's A list.

    One matrix over the distinct B rows and the codes of the distinct A
    rows holds ``fill_b[k]`` (True when None) where B's code ``k`` is
    that code, and zero elsewhere.  Each pair picks its B row's entries
    for its A row's codes, in A's list order, into one row of an
    ``(len(rows_a), longest A list)`` matrix; code -1 pads the shorter
    A lists and picks zero.  Returns that matrix, the distinct A rows
    and each pair's index into them — or None when the matrix over B
    rows and codes would not fit :data:`_BLOCK_ELEMENTS` and there is
    more than one pair.
    """
    owners_a, index_a = _owners(rows_a, lists_a)
    owners_b, index_b = _owners(rows_b, lists_b)
    codes_a = _padded(lists_a.offsets, lists_a.codes, owners_a, -1)
    vocabulary, local = np.unique(codes_a, return_inverse=True)
    dtype = bool if fill_b is None else fill_b.dtype
    if not _fits(owners_b.size * vocabulary.size, dtype, rows_a.size > 1):
        return None
    sizes_b = lists_b.sizes(owners_b)
    spans_b = np.repeat(lists_b.offsets[owners_b], sizes_b) + _ranks(sizes_b)
    codes_b = lists_b.codes[spans_b]
    at = np.searchsorted(vocabulary, codes_b).clip(max=vocabulary.size - 1)
    found = vocabulary[at] == codes_b
    entries = np.zeros((owners_b.size, vocabulary.size), dtype=dtype)
    entries[np.repeat(np.arange(owners_b.size), sizes_b)[found],
            at[found]] = True if fill_b is None else fill_b[spans_b][found]
    cells = _cells(local.reshape(codes_a.shape), index_a, index_b,
                   vocabulary.size)
    return entries.ravel().take(cells), owners_a, index_a


# ----------------------------------------------------------------------
# Numeric and exact kernels
# ----------------------------------------------------------------------


def _exact_numeric(col_a, rows_a, col_b, rows_b):
    return (col_a.numbers()[rows_a]
            == col_b.numbers()[rows_b]).astype(np.float64)


def _exact_string(col_a, rows_a, col_b, rows_b):
    return (col_a.codes()[rows_a] == col_b.codes()[rows_b]).astype(np.float64)


def _abs_diff(col_a, rows_a, col_b, rows_b):
    return np.abs(col_a.numbers()[rows_a] - col_b.numbers()[rows_b])


def _rel_diff(col_a, rows_a, col_b, rows_b):
    a = col_a.numbers()[rows_a]
    b = col_b.numbers()[rows_b]
    denominator = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        # corlint: disable-next-line=CL004 — exact-zero division guard
        return np.where(denominator == 0.0, 0.0,
                        np.abs(a - b) / denominator)


# ----------------------------------------------------------------------
# Set measures
# ----------------------------------------------------------------------


def _intersections(sets_a: CodeLists, rows_a: np.ndarray,
                   sets_b: CodeLists, rows_b: np.ndarray,
                   width: int) -> np.ndarray:
    """|set_a & set_b| of every pair: how many of its A set's codes its
    B set holds, read from one membership matrix per block; ``width``
    is the largest A set."""
    def block(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray | None:
        picked = _pick(sets_a, rows_a, sets_b, rows_b)
        return None if picked is None else np.count_nonzero(picked[0],
                                                            axis=1)
    return _blockwise(block, rows_a, rows_b, width, dtype=np.int64)


def _set_measure(sets_of: Callable[[PreparedColumn], CodeLists],
                 formula: Callable[..., np.ndarray]) -> BatchKernel:
    """A kernel computing ``formula(shared, size_a, size_b)`` from
    intersection and set sizes; 1.0 where both sets are empty."""
    def kernel(col_a, rows_a, col_b, rows_b):
        sets_a, sets_b = sets_of(col_a), sets_of(col_b)
        size_a, size_b = sets_a.sizes(rows_a), sets_b.sizes(rows_b)
        shared = _intersections(sets_a, rows_a, sets_b, rows_b,
                                int(size_a.max(initial=0)))
        with np.errstate(invalid="ignore", divide="ignore"):
            values = formula(shared, size_a, size_b)
        values[(size_a == 0) & (size_b == 0)] = 1.0
        return values
    return kernel


def _jaccard_of(shared, size_a, size_b):
    return shared / (size_a + size_b - shared)


def _overlap_of(shared, size_a, size_b):
    smaller = np.minimum(size_a, size_b)
    return np.where(smaller == 0, 0.0, shared / smaller)


def _containment_of(shared, size_a, size_b):
    return np.where((size_a == 0) | (size_b == 0), 0.0,
                    np.maximum(shared / size_a, shared / size_b))


_jaccard_word = _set_measure(PreparedColumn.word_sets, _jaccard_of)
_jaccard_qgram = _set_measure(PreparedColumn.qgram_sets, _jaccard_of)
_overlap = _set_measure(PreparedColumn.word_sets, _overlap_of)
_containment = _set_measure(PreparedColumn.word_sets, _containment_of)
# A row has Soundex codes iff it has words (a word without letters has
# the code ""), so the measure is the overlap of the code sets.
_soundex = _set_measure(PreparedColumn.soundex_sets, _overlap_of)


# ----------------------------------------------------------------------
# TF/IDF cosine
# ----------------------------------------------------------------------


def _make_cosine_tfidf(idf: Mapping[str, float]) -> BatchKernel:
    def kernel(col_a, rows_a, col_b, rows_b):
        tfidf_a, tfidf_b = col_a.tfidf(idf), col_b.tfidf(idf)
        size_a = tfidf_a.terms.sizes(rows_a)
        dot = _blockwise(functools.partial(_dot_block, tfidf_a, tfidf_b),
                         rows_a, rows_b, int(size_a.max(initial=0)))
        size_b = tfidf_b.terms.sizes(rows_b)
        norm_a, norm_b = tfidf_a.norms[rows_a], tfidf_b.norms[rows_b]
        with np.errstate(invalid="ignore", divide="ignore"):
            values = dot / (norm_a * norm_b)
        # corlint: disable-next-line=CL004 — exact-zero guard
        zero = (size_a == 0) | (size_b == 0) | (norm_a == 0.0) | (norm_b == 0.0)
        values[zero] = 0.0
        values[(size_a == 0) & (size_b == 0)] = 1.0
        return values
    return kernel


def _dot_block(tfidf_a: TfidfArrays, tfidf_b: TfidfArrays,
               rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray | None:
    """Dot products of a block of pairs, added in A's term order; a term
    B lacks adds 0.0, which leaves the sum unchanged."""
    picked = _pick(tfidf_a.terms, rows_a, tfidf_b.terms, rows_b,
                   tfidf_b.weights)
    if picked is None:
        return None
    products, owners_a, index_a = picked
    products *= _padded(tfidf_a.terms.offsets, tfidf_a.weights, owners_a,
                        0.0)[index_a]
    # np.cumsum adds left to right, like the scalar loop.
    return np.cumsum(products, axis=1, out=products)[:, -1]


# ----------------------------------------------------------------------
# String kernels over distinct code pairs
# ----------------------------------------------------------------------


def _coded_pairs(col_a, rows_a, col_b, rows_b):
    """Distinct (A code, B code) pairs of a pair column, plus each row's
    index into them.

    Cartesian chunks repeat values heavily (every record of A meets every
    record of B, and low-cardinality columns repeat across records), so
    every string kernel computes each distinct pair once.
    """
    codes_a = col_a.codes()[rows_a]
    codes_b = col_b.codes()[rows_b]
    width = max(int(codes_a.max(initial=0)), int(codes_b.max(initial=0))) + 1
    keys, index = np.unique(codes_a * width + codes_b, return_inverse=True)
    return keys // width, keys % width, index.reshape(-1)


def _levenshtein(col_a, rows_a, col_b, rows_b):
    codes_a, codes_b, index = _coded_pairs(col_a, rows_a, col_b, rows_b)
    return _levenshtein_codes(codes_a, codes_b)[index]


def _jaro_winkler(col_a, rows_a, col_b, rows_b):
    codes_a, codes_b, index = _coded_pairs(col_a, rows_a, col_b, rows_b)
    return _jaro_winkler_codes(codes_a, codes_b)[index]


def _smith_waterman(col_a, rows_a, col_b, rows_b):
    codes_a, codes_b, index = _coded_pairs(col_a, rows_a, col_b, rows_b)
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
    return values[index]


def _prefix(col_a, rows_a, col_b, rows_b):
    """``prefix_similarity``: agreeing characters among the first
    ``min(4, longer length)``; distinct pads never agree."""
    codes_a, codes_b, index = _coded_pairs(col_a, rows_a, col_b, rows_b)
    window = np.minimum(np.maximum(_DICTIONARY.lengths(codes_a),
                                   _DICTIONARY.lengths(codes_b)), 4)
    agree = (_DICTIONARY.points(codes_a, -2, 4)
             == _DICTIONARY.points(codes_b, -1, 4)).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(window == 0, 1.0, agree / window)
    return values[index]


# ----------------------------------------------------------------------
# Bit-parallel Levenshtein and Jaro-Winkler
# ----------------------------------------------------------------------

_BITS = 64
"""Characters one ``uint64`` bit vector holds.  A row whose bit-side
string is longer goes to the scalar function."""

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


def _bit_tables(bit_codes: np.ndarray, scan_codes: np.ndarray):
    """Match-bit table of the bit-side strings, letters of the scan side.

    Returns ``(peq, letters)``: ``peq[r, c]`` has bit ``k`` set iff
    character ``k`` of bit-side string ``r`` is letter ``c``, and
    ``letters[i, r]`` (int32, one row per character position) is the
    letter of character ``i`` of scan-side string ``r``.  Letters index
    the characters of this call only, so the table stays small whatever
    the code points.
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
    letters = np.ascontiguousarray(index[bits.size:].reshape(scan.shape).T,
                                   dtype=np.int32)
    return peq, letters


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
    characters); each numpy step consumes one text character, reading
    its letters from one row of the letter table, so a step's
    temporaries are a few arrays of the chunk's rows.
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
        strings = text_rows[rows]
        base = pattern_rows[rows] * peq.shape[1]
        pv = np.full(rows.size, _BELOW[_BITS], dtype=np.uint64)
        mv = np.zeros(rows.size, dtype=np.uint64)
        for j, k in enumerate(live.tolist()):
            # Each live row's peq position for its text[j].
            eq = peq_flat.take(letters[j].take(strings[:k]) + base[:k])
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


def _jaro_counts(peq_flat, base, letters, strings, window, live):
    """Jaro's match and transposition counts for one row chunk.

    Row ``r`` scans string ``strings[r]`` of the letter table against
    the bit side at ``base[r]`` in ``peq_flat``.  The first pass is the
    scalar loop's greedy first fit: for each character ``s[i]``,
    ``cand`` holds the free matching positions of ``t`` inside the
    window, and ``cand & (~cand + 1)`` is the lowest.  The second pass
    walks t's matched bits in order against s's matched positions.
    Both read each step's peq positions from one row of the letter
    table.
    """
    high = window + 1
    low = -window
    flagged = np.zeros(base.size, dtype=np.uint64)
    hits = np.zeros((live.size, base.size), dtype=bool)
    for i, k in enumerate(live.tolist()):
        cand = _BELOW.take(high[:k] + i, mode="clip")
        cand &= ~_BELOW.take(low[:k] + i, mode="clip")
        cand &= peq_flat.take(letters[i].take(strings[:k]) + base[:k])
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
        first &= peq_flat.take(letters[i].take(strings[:k]) + base[:k])
        transposed[:k] += hit & (first == 0)
    return hits.sum(axis=0), transposed // 2


def _jaro_winkler_codes(codes_s: np.ndarray, codes_t: np.ndarray) -> np.ndarray:
    """``jaro_winkler(s, t)`` of each (s, t) code pair.

    Bit-parallel over ``t``; a pair whose ``t`` exceeds :data:`_BITS`
    goes to the scalar ``jaro_winkler``.  Match and transposition counts
    are integers, and the float formulas after them are the scalar's, so
    values are bit-identical.  Pairs are taken :data:`_KERNEL_ROWS` at
    a time, so the per-pair masks and copies do not grow with the call.
    """
    values = np.empty(codes_s.size)
    strings = _DICTIONARY.strings
    for lo in range(0, codes_s.size, _KERNEL_ROWS):
        s = codes_s[lo:lo + _KERNEL_ROWS]
        t = codes_t[lo:lo + _KERNEL_ROWS]
        out = values[lo:lo + _KERNEL_ROWS]
        len_s, len_t = _DICTIONARY.lengths(s), _DICTIONARY.lengths(t)
        equal = s == t
        out[:] = equal  # 1.0; 0.0 when a side is empty
        work = ~equal & (len_s > 0) & (len_t > 0)
        fast = work & (len_t <= _BITS)
        if fast.any():
            out[fast] = _jaro_winkler_bits(s[fast], t[fast])
        for row in np.flatnonzero(work & ~fast).tolist():
            out[row] = sim.jaro_winkler(strings[s[row]], strings[t[row]])
    return values


def _jaro_winkler_bits(codes_s: np.ndarray, codes_t: np.ndarray) -> np.ndarray:
    """Jaro-Winkler of distinct, non-empty pairs with ``len(t) <= 64``,
    one chunk of rows at a time."""
    targets, t_rows = np.unique(codes_t, return_inverse=True)
    sources, s_rows = np.unique(codes_s, return_inverse=True)
    t_rows, s_rows = t_rows.reshape(-1), s_rows.reshape(-1)
    peq, letters = _bit_tables(targets, sources)
    lengths_s = _DICTIONARY.lengths(sources)
    lengths_t = _DICTIONARY.lengths(targets)
    # The first four characters of each string, for the Winkler boost.
    heads_s = _DICTIONARY.points(sources, -1, 4)
    heads_t = _DICTIONARY.points(targets, -2, 4)
    values = np.empty(codes_s.size)
    for rows, live in _scan_chunks(lengths_s[s_rows]):
        source, target = s_rows[rows], t_rows[rows]
        len_s, len_t = lengths_s[source], lengths_t[target]
        m, transposed = _jaro_counts(
            peq.ravel(), target * peq.shape[1], letters, source,
            np.maximum(np.maximum(len_s, len_t) // 2 - 1, 0), live)
        with np.errstate(invalid="ignore", divide="ignore"):
            jaro = (m / len_s + m / len_t + (m - transposed) / m) / 3.0
        jaro[m == 0] = 0.0
        # Winkler boost: the common prefix over the first four characters.
        prefix = np.cumprod(heads_s[source] == heads_t[target],
                            axis=1).sum(axis=1)
        values[rows] = jaro + prefix * 0.1 * (1.0 - jaro)
    return values


# ----------------------------------------------------------------------
# Monge-Elkan over word-level Jaro-Winkler tables
# ----------------------------------------------------------------------


def _jaro_winkler_table(vocabulary_a: np.ndarray, vocabulary_b: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Jaro-Winkler of every (A word, B word) pair of two vocabularies.

    The table (``out`` when given) is filled in bands of A words, each
    holding at most :data:`_BLOCK_ELEMENTS` word pairs (a band of one A
    word is cut across B's vocabulary too), so the kernel's per-pair
    temporaries stay within one band whatever the vocabulary sizes.
    """
    if out is None:
        out = np.empty((vocabulary_a.size, vocabulary_b.size))
    columns = max(1, min(vocabulary_b.size, _BLOCK_ELEMENTS))
    band = max(1, _BLOCK_ELEMENTS // columns)
    for lo in range(0, vocabulary_a.size, band):
        words_a = vocabulary_a[lo:lo + band]
        for left in range(0, vocabulary_b.size, columns):
            words_b = vocabulary_b[left:left + columns]
            out[lo:lo + band, left:left + columns] = _jaro_winkler_codes(
                np.repeat(words_a, words_b.size),
                np.tile(words_b, words_a.size),
            ).reshape(words_a.size, words_b.size)
    return out


def _monge_elkan(col_a, rows_a, col_b, rows_b):
    words_a, words_b = col_a.words(), col_b.words()
    table = col_a.word_table(col_b)
    size_a, size_b = words_a.sizes(rows_a), words_b.sizes(rows_b)
    hard = (size_a > 0) & (size_b > 0)
    if not hard.all():
        # 1.0 when both word lists are empty, 0.0 when one is.
        out = ((size_a == 0) & (size_b == 0)).astype(np.float64)
        out[hard] = _monge_elkan(col_a, rows_a[hard], col_b, rows_b[hard])
        return out
    # A block's temporaries have one row of its longer word list per pair.
    return _blockwise(
        functools.partial(_monge_elkan_block, words_a, words_b, table),
        rows_a, rows_b, max(int(size_a.max(initial=0)),
                            int(size_b.max(initial=0))))


def _monge_elkan_block(words_a: CodeLists, words_b: CodeLists,
                       table: WordTable | None, rows_a: np.ndarray,
                       rows_b: np.ndarray) -> np.ndarray | None:
    """Monge-Elkan of a block of pairs whose word lists are non-empty.

    The block's distinct A and B words index ``values``, a table over
    the block's own vocabularies: cut from the column pair's word table,
    or, past its cap, computed.  The padding after the shorter word
    lists is word 0 of its side, with a -inf row or column.
    """
    owners_a, index_a = _owners(rows_a, words_a)
    owners_b, index_b = _owners(rows_b, words_b)
    ids_a = _padded(words_a.offsets,
                    words_a.codes if table is None else table.local_a,
                    owners_a, -1)
    ids_b = _padded(words_b.offsets,
                    words_b.codes if table is None else table.local_b,
                    owners_b, -1)
    vocabulary_a, word_a = np.unique(ids_a, return_inverse=True)
    vocabulary_b, word_b = np.unique(ids_b, return_inverse=True)
    capped = rows_a.size > 1
    if not (_fits(vocabulary_a.size * vocabulary_b.size, np.float64, capped)
            and _fits(owners_b.size * vocabulary_a.size, np.float64, capped)
            and _fits(owners_a.size * vocabulary_b.size, np.float64,
                      capped)):
        return None
    pad_a, pad_b = int(vocabulary_a[0] < 0), int(vocabulary_b[0] < 0)
    values = np.full((vocabulary_a.size, vocabulary_b.size), -np.inf)
    if table is None:
        _jaro_winkler_table(vocabulary_a[pad_a:], vocabulary_b[pad_b:],
                            values[pad_a:, pad_b:])
    else:
        values[pad_a:, pad_b:] = table.values[np.ix_(vocabulary_a[pad_a:],
                                                     vocabulary_b[pad_b:])]
    word_a, word_b = word_a.reshape(ids_a.shape), word_b.reshape(ids_b.shape)
    total_ab = _best_partner_sums(np.ascontiguousarray(values.T), word_a,
                                  index_a, word_b, index_b, pad_a)
    total_ba = _best_partner_sums(values, word_b, index_b, word_a, index_a,
                                  pad_b)
    sizes_a = words_a.sizes(owners_a)[index_a]
    sizes_b = words_b.sizes(owners_b)[index_b]
    return (total_ab / sizes_a + total_ba / sizes_b) / 2.0


def _best_partner_sums(values: np.ndarray, word_s: np.ndarray,
                       index_s: np.ndarray, word_t: np.ndarray,
                       index_t: np.ndarray, padded: int) -> np.ndarray:
    """Each pair's sum, in token order, of its s words' best partners.

    ``values[v, w]`` is the Jaro-Winkler of the block's t word ``v`` and
    s word ``w``; ``word_s``/``word_t`` hold the word ids of the block's
    distinct s and t rows, and pair ``i`` is s-row ``index_s[i]`` with
    t-row ``index_t[i]``.  s word 0 is the padding after the shorter s
    lists when ``padded``, and adds nothing; t padding has a -inf row
    and never wins.  ``best[r, w]``, the largest ``values[v, w]``
    over the words ``v`` of t-row ``r``, is found once for every t-row
    and s word of the block, one token position of all t-rows at a
    time; each pair then adds the best of its s words left to right, as
    the scalar ``directed()`` loop does.
    """
    best = values[word_t[:, 0]]
    for position in word_t.T[1:]:
        np.maximum(best, values[position], out=best)
    if padded:
        best[:, 0] = 0.0  # s padding adds nothing
    picked = best.ravel().take(_cells(word_s, index_s, index_t,
                                      values.shape[1]))
    # np.cumsum adds left to right, like the scalar loop; the padding
    # after a row's last word adds 0.0 and leaves its sum unchanged.
    return np.cumsum(picked, axis=1, out=picked)[:, -1]


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
               idf: Mapping[str, float] | None = None) -> BatchKernel:
    """The batch kernel for ``measure`` on an ``attr_type`` column.

    Raises :class:`FeatureError` for a measure without one.
    """
    if measure == "exact":
        return (_exact_numeric if attr_type is AttrType.NUMERIC
                else _exact_string)
    if measure == "cosine_tfidf":
        return _make_cosine_tfidf(idf if idf is not None else {})
    try:
        return _KERNELS[measure]
    except KeyError:
        raise FeatureError(
            f"measure {measure!r} has no batch kernel") from None
