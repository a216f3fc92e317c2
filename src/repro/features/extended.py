"""Extended similarity measures beyond the paper's named set.

The paper's feature library is explicitly open-ended ("Example features
include...", §4.1); these are the next measures a practitioner reaches
for.  They are *not* registered in the default library (keeping default
vectorization cost at the paper's level) — pass ``extended=True`` to
:func:`repro.features.library.build_feature_library` to include the
cheap ones, or use them directly.
"""

from __future__ import annotations

import numpy as np

from .tokenize import normalize, word_tokens

__all__ = [
    "batch_smith_waterman",
    "containment",
    "longest_common_substring_ratio",
    "prefix_similarity",
    "smith_waterman",
    "soundex",
    "soundex_similarity",
]


def containment(tokens_a: list[str] | tuple[str, ...],
                tokens_b: list[str] | tuple[str, ...]) -> float:
    """|A ∩ B| / |A|: how much of record A's content appears in B.

    Asymmetric by nature (useful when one source truncates); we return
    the max of both directions so the feature stays symmetric.  Both
    sides empty counts as identical.
    """
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    intersection = len(set_a & set_b)
    return max(intersection / len(set_a), intersection / len(set_b))


def prefix_similarity(s: str, t: str, length: int = 4) -> float:
    """Fraction of the first ``length`` characters that agree.

    Cheap and surprisingly effective on codes and model numbers whose
    discriminating content is front-loaded.
    """
    s, t = normalize(s), normalize(t)
    if not s and not t:
        return 1.0
    window = min(length, max(len(s), len(t)))
    if window == 0:
        return 1.0
    agree = sum(
        1 for i in range(window)
        if i < len(s) and i < len(t) and s[i] == t[i]
    )
    return agree / window


def longest_common_substring_ratio(s: str, t: str) -> float:
    """len(LCS(s, t)) / max(len(s), len(t)) on normalized strings."""
    s, t = normalize(s), normalize(t)
    if not s and not t:
        return 1.0
    if not s or not t:
        return 0.0
    longest = 0
    previous = [0] * (len(t) + 1)
    for cs in s:
        current = [0]
        for j, ct in enumerate(t, start=1):
            length = previous[j - 1] + 1 if cs == ct else 0
            current.append(length)
            if length > longest:
                longest = length
        previous = current
    return longest / max(len(s), len(t))


def smith_waterman(s: str, t: str, match: float = 2.0,
                   mismatch: float = -1.0, gap: float = -1.0) -> float:
    """Normalized Smith-Waterman local-alignment similarity in [0, 1].

    The raw best local-alignment score is divided by its maximum
    attainable value (``match * min(len(s), len(t))``), giving 1.0 when
    the shorter string aligns perfectly inside the longer one.
    """
    s, t = normalize(s), normalize(t)
    if not s and not t:
        return 1.0
    if not s or not t:
        return 0.0
    best = 0.0
    previous = [0.0] * (len(t) + 1)
    for cs in s:
        current = [0.0]
        for j, ct in enumerate(t, start=1):
            score = max(
                0.0,
                previous[j - 1] + (match if cs == ct else mismatch),
                previous[j] + gap,
                current[j - 1] + gap,
            )
            current.append(score)
            if score > best:
                best = score
        previous = current
    return best / (match * min(len(s), len(t)))


def batch_smith_waterman(chars_a: np.ndarray, chars_b: np.ndarray,
                         len_a: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """:func:`smith_waterman` (default scores) over non-empty string pairs.

    ``chars_a``/``chars_b`` are row-aligned code-point matrices of the
    pre-normalized strings, of lengths ``len_a``/``len_b``, padded with
    a negative value that differs between the two sides (so a padded
    cell never matches).  One numpy DP row per pair: the in-row gap
    dependency collapses to a prefix-maximum (the zero floor of cells
    never propagates, because a floored cell's decayed contribution
    downstream is negative and re-floored anyway).  All scores are small
    integer-valued doubles, so results are bit-identical to the scalar
    function.
    """
    match, mismatch, gap = 2.0, -1.0, -1.0
    width_b = chars_b.shape[1]
    offsets = np.arange(width_b + 1, dtype=np.float64)
    previous = np.zeros((chars_a.shape[0], width_b + 1), dtype=np.float64)
    best = np.zeros(chars_a.shape[0], dtype=np.float64)
    base = np.empty_like(previous)
    for i in range(1, chars_a.shape[1] + 1):
        substitution = np.where(
            chars_a[:, i - 1:i] == chars_b, match, mismatch
        )
        base[:, 0] = -np.inf  # first column is always the zero floor
        np.maximum(previous[:, :-1] + substitution,
                   previous[:, 1:] + gap, out=base[:, 1:])
        current = np.maximum(
            np.maximum.accumulate(base + offsets, axis=1) - offsets,
            0.0,
        )
        # Padded cells only ever decay from real cells, so the row
        # maximum over the padded width equals the in-bounds maximum.
        np.maximum(best, current.max(axis=1), out=best)
        previous = current
    return best / (match * np.minimum(len_a, len_b))


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


def soundex(word: str) -> str:
    """The classic American Soundex code of one word (e.g. 'R163').

    Empty/non-alphabetic input yields an empty code.
    """
    word = "".join(ch for ch in word.lower() if ch.isalpha())
    if not word:
        return ""
    first = word[0].upper()
    encoded = []
    previous_code = _SOUNDEX_CODES.get(word[0], "")
    for ch in word[1:]:
        code = _SOUNDEX_CODES.get(ch, "")
        if code and code != previous_code:
            encoded.append(code)
        if ch not in "hw":  # h/w do not reset the previous code
            previous_code = code
        if len(encoded) == 3:
            break
    return (first + "".join(encoded)).ljust(4, "0")


def soundex_similarity(s: str, t: str) -> float:
    """Fraction of words in the shorter string with a Soundex-equal
    partner in the other (a crude phonetic Monge-Elkan)."""
    words_s, words_t = word_tokens(s), word_tokens(t)
    if not words_s and not words_t:
        return 1.0
    if not words_s or not words_t:
        return 0.0
    codes_t = {soundex(word) for word in words_t}
    codes_s = {soundex(word) for word in words_s}
    shorter, other = (
        (codes_s, codes_t) if len(codes_s) <= len(codes_t)
        else (codes_t, codes_s)
    )
    hits = sum(1 for code in shorter if code in other)
    return hits / len(shorter)
