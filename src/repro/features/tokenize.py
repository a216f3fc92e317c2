"""String normalization and tokenization used by the similarity measures.

The batch engine tokenizes each table column once, into the whole-table
arrays of :class:`repro.features.batch.PreparedColumn`, so nothing here
is memoized.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[a-z0-9]+")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; punctuation is left in place.

    Token-level measures strip punctuation themselves via the word regex;
    character-level measures (edit distance, Jaro) want it preserved so
    that e.g. model numbers keep their hyphens.
    """
    return " ".join(text.lower().split())


def word_tokens(text: str) -> list[str]:
    """Alphanumeric word tokens of the lowercased text, in order."""
    return _WORD_RE.findall(text.lower())


def qgrams(text: str, q: int = 3) -> list[str]:
    """Character q-grams of the normalized text, padded with '#'.

    Padding with q-1 boundary characters gives prefix/suffix grams weight,
    which is the standard formulation for q-gram string joins.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    text = normalize(text)
    if not text:
        return []
    padded = "#" * (q - 1) + text + "#" * (q - 1)
    return [padded[i:i + q] for i in range(len(padded) - q + 1)]

