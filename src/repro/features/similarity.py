"""Similarity measures from the paper's feature library (Section 4.1).

Edit distance, Jaccard, Jaro-Winkler, TF/IDF cosine and Monge-Elkan are the
measures the paper names explicitly; overlap coefficient and numeric
differences round out the library.  All similarity functions return values
in [0, 1] where 1 means identical, except the raw distance/difference
helpers which are documented individually.

These scalar functions are the parity oracle of the batched kernels in
:mod:`repro.features.batch`, which must reproduce them bit for bit, and
they still compute the rows those kernels route back here: a string
longer than one 64-bit word on the side the bit-parallel Levenshtein or
Jaro-Winkler kernel keeps in bits.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import lru_cache

from .tokenize import normalize, word_tokens


def levenshtein_distance(s: str, t: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs).

    Runs in O(|s| * |t|) time and O(min) memory via two rolling rows.
    """
    if s == t:
        return 0
    if len(s) < len(t):
        s, t = t, s
    if not t:
        return len(s)
    previous = list(range(len(t) + 1))
    for i, cs in enumerate(s, start=1):
        current = [i]
        for j, ct in enumerate(t, start=1):
            current.append(min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + (cs != ct),  # substitution
            ))
        previous = current
    return previous[-1]


def levenshtein_similarity(s: str, t: str) -> float:
    """1 - distance / max_length, on normalized strings."""
    s, t = normalize(s), normalize(t)
    longest = max(len(s), len(t))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(s, t) / longest


def jaro(s: str, t: str) -> float:
    """Jaro similarity of two strings (0 = disjoint, 1 = identical)."""
    s, t = normalize(s), normalize(t)
    if s == t:
        return 1.0
    if not s or not t:
        return 0.0
    window = max(len(s), len(t)) // 2 - 1
    window = max(window, 0)

    s_flags = [False] * len(s)
    t_flags = [False] * len(t)
    matches = 0
    for i, ch in enumerate(s):
        low = max(0, i - window)
        high = min(len(t), i + window + 1)
        for j in range(low, high):
            if not t_flags[j] and t[j] == ch:
                s_flags[i] = t_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i, flagged in enumerate(s_flags):
        if not flagged:
            continue
        while not t_flags[j]:
            j += 1
        if s[i] != t[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    m = matches
    return (m / len(s) + m / len(t) + (m - transpositions) / m) / 3.0


def jaro_winkler(s: str, t: str, prefix_weight: float = 0.1,
                 max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix."""
    base = jaro(s, t)
    s_n, t_n = normalize(s), normalize(t)
    prefix = 0
    for cs, ct in zip(s_n, t_n):
        if cs != ct or prefix == max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def jaccard(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
    """Jaccard similarity of two token multisets' supports.

    Defined as 1.0 when both token sets are empty (two empty strings are
    identical for matching purposes).
    """
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union


def overlap_coefficient(tokens_a: Sequence[str],
                        tokens_b: Sequence[str]) -> float:
    """|A ∩ B| / min(|A|, |B|); 1.0 when either side is empty-and-equal."""
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller


@lru_cache(maxsize=1 << 18)
def _jaro_winkler_words(a: str, b: str) -> float:
    """Cached word-level Jaro-Winkler for Monge-Elkan's inner loop.

    Real tables draw words from a modest vocabulary, so the cache turns
    Monge-Elkan from the most expensive library feature into one of the
    cheapest after warm-up.
    """
    return jaro_winkler(a, b)


def monge_elkan(s: str, t: str) -> float:
    """Monge-Elkan: mean best Jaro-Winkler match of each word of s in t.

    The measure is asymmetric in general; we symmetrize by averaging both
    directions, which is the common practice for EM feature libraries.
    """
    words_s, words_t = word_tokens(s), word_tokens(t)
    if not words_s and not words_t:
        return 1.0
    if not words_s or not words_t:
        return 0.0

    def directed(ws: list[str], wt: list[str]) -> float:
        total = 0.0
        for a in ws:
            total += max(_jaro_winkler_words(a, b) for b in wt)
        return total / len(ws)

    return (directed(words_s, words_t) + directed(words_t, words_s)) / 2.0


def cosine_tfidf(tokens_a: Sequence[str], tokens_b: Sequence[str],
                 idf: Mapping[str, float]) -> float:
    """TF/IDF-weighted cosine similarity of two token lists.

    ``idf`` maps tokens to inverse-document-frequency weights computed over
    the corpus (both tables) by the feature library.  Unknown tokens get
    the maximum observed idf + 1 (they are maximally discriminative).
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    default_idf = (max(idf.values()) + 1.0) if idf else 1.0

    def weights(tokens: Sequence[str]) -> dict[str, float]:
        counts = Counter(tokens)
        return {
            token: count * idf.get(token, default_idf)
            for token, count in counts.items()
        }

    wa, wb = weights(tokens_a), weights(tokens_b)
    dot = sum(wa[token] * wb[token] for token in wa if token in wb)
    norm_a = math.sqrt(sum(v * v for v in wa.values()))
    norm_b = math.sqrt(sum(v * v for v in wb.values()))
    # corlint: disable-next-line=CL004 — exact-zero division guard
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def exact_match(a: object, b: object) -> float:
    """1.0 if the normalized values are equal, else 0.0.

    Strings are compared after :func:`normalize`; other values compare
    with ``==``.
    """
    if isinstance(a, str) and isinstance(b, str):
        return 1.0 if normalize(a) == normalize(b) else 0.0
    return 1.0 if a == b else 0.0


def abs_diff(a: float, b: float) -> float:
    """Absolute difference of two numbers (a raw distance, not in [0,1])."""
    return abs(a - b)


def rel_diff(a: float, b: float) -> float:
    """Relative difference |a-b| / max(|a|, |b|); 0.0 when both are 0."""
    denominator = max(abs(a), abs(b))
    # corlint: disable-next-line=CL004 — exact-zero division guard
    if denominator == 0.0:
        return 0.0
    return abs(a - b) / denominator


def build_idf(documents: Sequence[Sequence[str]]) -> dict[str, float]:
    """Smoothed inverse document frequencies for a token corpus.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, the standard smooth variant
    that keeps weights positive and finite.
    """
    n_docs = len(documents)
    df: Counter[str] = Counter()
    for doc in documents:
        df.update(set(doc))
    return {
        token: math.log((1 + n_docs) / (1 + count)) + 1.0
        for token, count in df.items()
    }
