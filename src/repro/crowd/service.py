"""The labelling service: cache + HIT packing + aggregation + budget.

Every Corleone module labels pairs through one shared
:class:`LabelingService` (Section 8).  The service:

* caches labels and reuses them when a later step asks for the same pair
  with a scheme the cached label satisfies;
* packs uncached questions into HITs of ``questions_per_hit`` (10),
  applying the paper's rule that partial HITs are not posted when a batch
  is partly cache-served — except that a batch which would otherwise
  return *nothing* is posted as one padded HIT, so callers can always make
  progress (documented deviation for generality);
* aggregates noisy answers with the 2+1 / strong / asymmetric schemes;
* meters cost and enforces an optional budget.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..config import CrowdConfig
from ..data.pairs import CandidateSet, Pair
from .aggregation import VoteScheme, aggregate
from .base import CrowdPlatform
from .cost import CostSnapshot, CostTracker


@dataclass(frozen=True)
class CachedLabel:
    """A cached crowd label and the strength it was obtained with."""

    label: bool
    strong: bool
    """True if a strong-majority standard backed this label."""


def _satisfies(entry: CachedLabel, scheme: VoteScheme) -> bool:
    """Does a cached entry meet the standard ``scheme`` requires?"""
    if scheme is VoteScheme.MAJORITY_2PLUS1:
        return True
    if scheme is VoteScheme.STRONG_MAJORITY:
        return entry.strong
    # Asymmetric: only positives need the strong standard.
    return entry.strong or not entry.label


def _entry_for(label: bool, scheme: VoteScheme) -> CachedLabel:
    """The cache entry recorded after labelling under ``scheme``."""
    if scheme is VoteScheme.MAJORITY_2PLUS1:
        return CachedLabel(label, strong=False)
    if scheme is VoteScheme.STRONG_MAJORITY:
        return CachedLabel(label, strong=True)
    # Asymmetric: positives were escalated, negatives stayed at 2+1.
    return CachedLabel(label, strong=label)


class LabelingService:
    """Labels pairs through a crowd platform with caching and budgeting."""

    def __init__(self, platform: CrowdPlatform, config: CrowdConfig,
                 tracker: CostTracker | None = None) -> None:
        self.platform = platform
        self.config = config
        self.tracker = tracker if tracker is not None else CostTracker(
            price_per_question=config.price_per_question
        )
        self._cache: dict[Pair, CachedLabel] = {}
        self._writes: list[Pair] = []
        """Every pair written to the cache, in write order (a pair
        relabelled to a stronger standard appears again)."""
        self.on_purchase: Callable[
            [int, int, CostSnapshot, CostSnapshot], None] | None = None
        """Optional observer called as ``on_purchase(labels, strong,
        spent, totals)`` once at the end of every :meth:`label_batch` /
        :meth:`label_all` call that paid for anything (the engine's
        ``labels_purchased`` event hook): ``labels`` fresh labels were
        bought, ``strong`` of them to the strong-majority standard,
        ``spent`` is the call's ledger delta (HITs a gateway reposted
        during the call included) and ``totals`` the ledger after it.
        An aborted call still reports what it paid; a call served
        entirely from the cache reports nothing."""

    # ------------------------------------------------------------------
    # Cache access
    # ------------------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def cached_label(self, pair: Pair) -> bool | None:
        """The cached label for ``pair``, if any (any strength)."""
        entry = self._cache.get(Pair(*pair))
        return entry.label if entry is not None else None

    def labeled_pairs(self) -> dict[Pair, bool]:
        """All labels obtained so far (a copy)."""
        return {pair: entry.label for pair, entry in self._cache.items()}

    def known_rows(self, candidates: CandidateSet,
                   scheme: VoteScheme | None = None) -> np.ndarray:
        """One int8 label per row of ``candidates`` (a candidate or
        sample set): 1 is a match, 0 is no match and -1 is not cached.

        With ``scheme``, only labels that meet the standard it requires
        count.  That is §8's cache rule: a label may be reused only if
        it was "labeled the way we want".  Statistics that demand
        strong-majority positives (rule evaluation) must seed from this
        view, or a wrong 2+1 label from active learning can circularly
        certify the very rule that was overfit to it.

        The cache's pairs are looked up in the set all at once
        (:meth:`repro.data.pairs.PairRows.indices`): the cache holds
        hundreds to a few thousand pairs where a candidate set has tens
        of thousands of rows.
        """
        entries = [(pair, entry) for pair, entry in self._cache.items()
                   if scheme is None or _satisfies(entry, scheme)]
        rows = candidates.pairs.indices([pair for pair, _ in entries])
        found = rows >= 0
        labels = np.full(len(candidates), -1, dtype=np.int8)
        labels[rows[found]] = np.array(
            [entry.label for _, entry in entries], dtype=bool)[found]
        return labels

    def positive_pairs(self) -> set[Pair]:
        """Pairs the crowd has labelled positive (any strength)."""
        return {p for p, entry in self._cache.items() if entry.label}

    def seed(self, labels: dict[Pair, bool], strong: bool = True) -> None:
        """Inject known labels (e.g. the user's four seed examples)."""
        for pair, label in labels.items():
            self._put(Pair(*pair), CachedLabel(label, strong=strong))

    def _put(self, pair: Pair, entry: CachedLabel) -> None:
        """Write one cache entry and note the write."""
        self._cache[pair] = entry
        self._writes.append(pair)

    @property
    def cache_writes(self) -> int:
        """Cache writes so far: the position :meth:`cache_changes`
        counts from."""
        return len(self._writes)

    def cache_state(self) -> list[list]:
        """The cache as JSON-compatible rows, in insertion order.

        Each row is ``[a_id, b_id, label, strong]``.  Insertion order is
        preserved exactly so that a restored cache iterates identically
        to the original — part of the bit-identical resume contract.
        """
        return [
            [pair.a_id, pair.b_id, entry.label, entry.strong]
            for pair, entry in self._cache.items()
        ]

    def cache_changes(self, since: int) -> list[list]:
        """The rows of the pairs written after the first ``since`` cache
        writes, each once, in first-write order, with its current value.

        Restoring a cache's rows followed by its changes, in that order
        (:meth:`restore_cache` keeps the position of a pair's first row
        and the value of its last), rebuilds the cache exactly: that is
        how the checkpoint log writes each label once.
        """
        return [
            [pair.a_id, pair.b_id, entry.label, entry.strong]
            for pair in dict.fromkeys(self._writes[since:])
            for entry in (self._cache[pair],)
        ]

    def restore_cache(self, rows: Iterable[Sequence]) -> None:
        """Replace the cache with rows saved by :meth:`cache_state`
        (or a sequence of :meth:`cache_changes` rows: a pair's later row
        updates its earlier one in place)."""
        self._cache = {
            Pair(str(a), str(b)): CachedLabel(bool(label), strong=bool(strong))
            for a, b, label, strong in rows
        }
        self._writes = list(self._cache)

    # ------------------------------------------------------------------
    # Labelling
    # ------------------------------------------------------------------

    def label_batch(self, pairs: Sequence[Pair],
                    scheme: VoteScheme = VoteScheme.ASYMMETRIC) -> dict[Pair, bool]:
        """Label a batch with the paper's HIT-packing rule (§8 item 3).

        Cached pairs are served for free.  Uncached pairs are posted only
        in complete HITs of ``questions_per_hit``; a trailing partial HIT
        is dropped when the batch already returns something, and posted
        (padded) only when the batch would otherwise be empty.

        Returns a label for every pair that was served; the caller must
        tolerate receiving fewer labels than requested.
        """
        pairs = [Pair(*p) for p in pairs]
        result: dict[Pair, bool] = {}
        uncached: list[Pair] = []
        for pair in pairs:
            entry = self._cache.get(pair)
            if entry is not None and _satisfies(entry, scheme):
                result[pair] = entry.label
            elif pair not in uncached:
                uncached.append(pair)

        per_hit = self.config.questions_per_hit
        n_full = len(uncached) // per_hit
        to_label = uncached[: n_full * per_hit]
        if not to_label and not result and uncached:
            # Nothing cached and no full HIT: post the remainder anyway so
            # the caller can make progress.
            to_label = uncached
            n_full = 1
        if to_label:
            with self._paid_call() as served:
                for pair in to_label:
                    result[pair] = self._label_one(pair, scheme, served)
        return result

    def label_all(self, pairs: Iterable[Pair],
                  scheme: VoteScheme = VoteScheme.ASYMMETRIC) -> dict[Pair, bool]:
        """Label *every* given pair (cache-served or freshly solicited).

        Used where the algorithm needs complete coverage of a specific
        sample, e.g. the estimator's probes; HITs are padded as needed.
        """
        pairs = [Pair(*p) for p in pairs]
        result: dict[Pair, bool] = {}
        with self._paid_call() as served:
            for pair in pairs:
                entry = self._cache.get(pair)
                if entry is not None and _satisfies(entry, scheme):
                    result[pair] = entry.label
                else:
                    result[pair] = self._label_one(pair, scheme, served)
        return result

    @contextmanager
    def _paid_call(self) -> Iterator[list[bool | None]]:
        """Meter and report one labelling call.

        The yielded list gets one entry per question the platform
        served (:meth:`_label_one` appends it): the bought label's
        strength, or None for a question that failed after consuming
        answers.  On exit, also when the body raises, the call's HITs
        are metered *after* their questions were consumed: a padded
        HIT that expires mid-flight and is reposted by the gateway is
        not double-charged here (the gateway meters the repost), and
        the charge always equals the questions the platform actually
        served (ceil over HIT size).  Then :attr:`on_purchase` receives
        the call's ledger delta, if the call paid for anything.
        """
        before = self.tracker.snapshot()
        served: list[bool | None] = []
        try:
            yield served
        finally:
            if served:
                per_hit = self.config.questions_per_hit
                self.tracker.record_hits(-(-len(served) // per_hit))
            if self.on_purchase is not None:
                totals = self.tracker.snapshot()
                spent = totals.minus(before)
                if spent.answers or spent.hits:
                    bought = [strong for strong in served
                              if strong is not None]
                    self.on_purchase(len(bought), sum(bought), spent,
                                     totals)

    def _label_one(self, pair: Pair, scheme: VoteScheme,
                   served: list[bool | None]) -> bool:
        """Aggregate fresh answers for one pair, meter cost, cache it.

        Each answer is asked for once: retrying a failed question is the
        gateway's job (:class:`~repro.crowd.gateway.ResilientCrowd`).
        Answers consumed before an error are still paid for — the
        workers answered even if the platform then failed — and the
        question counts as served (a None in ``served``), so its HIT is
        metered too.
        """
        self.tracker.check_budget()
        consumed = 0

        def ask() -> bool:
            nonlocal consumed
            answer = self.platform.ask(pair)
            consumed += 1
            return answer.label

        try:
            label, _ = aggregate(
                ask, scheme,
                gap=self.config.strong_majority_gap,
                max_answers=self.config.strong_majority_max,
            )
        except BaseException:
            if consumed:
                served.append(None)
            raise
        finally:
            self.tracker.record_answers(consumed)
        if pair not in self._cache:
            self.tracker.record_pair()
        entry = _entry_for(label, scheme)
        self._put(pair, entry)
        served.append(entry.strong)
        return label
