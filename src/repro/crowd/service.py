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

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from ..config import CrowdConfig
from ..data.pairs import Pair
from ..exceptions import (
    BudgetExhaustedError,
    CrowdError,
    CrowdUnavailableError,
)
from .aggregation import VoteScheme, aggregate
from .base import CrowdPlatform
from .cost import CostTracker


class _CountingPlatform(CrowdPlatform):
    """Pass-through proxy that counts consumed answers (for retry cost)."""

    def __init__(self, inner: CrowdPlatform) -> None:
        self.inner = inner
        self.asked = 0

    def ask(self, pair: Pair):
        """Forward to the wrapped platform, counting the answer."""
        answer = self.inner.ask(pair)
        self.asked += 1
        return answer


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
        self.on_label: Callable[[Pair, bool, bool], None] | None = None
        """Optional observer called as ``on_label(pair, label, strong)``
        after every freshly purchased label (the engine's
        ``labels_purchased`` event hook).  Cache hits and injected seeds
        do not fire it — only labels the crowd was actually paid for."""

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

    def reliable_labels(self, scheme: VoteScheme) -> dict[Pair, bool]:
        """Cached labels that meet the standard ``scheme`` requires.

        §8's cache rule: a label may be reused only if it was "labeled
        the way we want".  Statistics that demand strong-majority
        positives (rule evaluation, estimation) must seed from this view
        rather than :meth:`labeled_pairs`, or a wrong 2+1 label from
        active learning can circularly certify the very rule that was
        overfit to it.
        """
        return {
            pair: entry.label
            for pair, entry in self._cache.items()
            if _satisfies(entry, scheme)
        }

    def positive_pairs(self) -> set[Pair]:
        """Pairs the crowd has labelled positive — the set T of §4.2."""
        return {p for p, entry in self._cache.items() if entry.label}

    def seed(self, labels: dict[Pair, bool], strong: bool = True) -> None:
        """Inject known labels (e.g. the user's four seed examples)."""
        for pair, label in labels.items():
            self._cache[Pair(*pair)] = CachedLabel(label, strong=strong)

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

    def restore_cache(self, rows: Iterable[Sequence]) -> None:
        """Replace the cache with rows saved by :meth:`cache_state`."""
        self._cache = {
            Pair(str(a), str(b)): CachedLabel(bool(label), strong=bool(strong))
            for a, b, label, strong in rows
        }

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
            # HITs are metered *after* their questions are consumed, so
            # a padded HIT that expires mid-flight and is reposted by the
            # gateway is not double-charged here: the repost fee is the
            # gateway's, and this charge always equals the questions the
            # platform actually served (ceil over HIT size).
            served = 0
            try:
                for pair in to_label:
                    result[pair] = self._label_one(pair, scheme)
                    served += 1
            finally:
                if served:
                    self.tracker.record_hits(-(-served // per_hit))
        return result

    def label_all(self, pairs: Iterable[Pair],
                  scheme: VoteScheme = VoteScheme.ASYMMETRIC) -> dict[Pair, bool]:
        """Label *every* given pair (cache-served or freshly solicited).

        Used where the algorithm needs complete coverage of a specific
        sample, e.g. the estimator's probes; HITs are padded as needed.
        """
        pairs = [Pair(*p) for p in pairs]
        result: dict[Pair, bool] = {}
        fresh = 0
        try:
            for pair in pairs:
                entry = self._cache.get(pair)
                if entry is not None and _satisfies(entry, scheme):
                    result[pair] = entry.label
                else:
                    result[pair] = self._label_one(pair, scheme)
                    fresh += 1
        finally:
            # Metered after consumption (like label_batch) so an aborted
            # batch is charged only for questions actually served.
            if fresh:
                per_hit = self.config.questions_per_hit
                self.tracker.record_hits(-(-fresh // per_hit))
        return result

    def _label_one(self, pair: Pair, scheme: VoteScheme) -> bool:
        """Aggregate fresh answers for one pair, meter cost, cache it.

        Transient platform failures are retried
        (``max_platform_retries`` per question); answers consumed by a
        failed aggregation attempt are still paid for — the workers
        answered even if the platform then hiccuped.
        """
        self.tracker.check_budget()
        counter = _CountingPlatform(self.platform)
        attempts = self.config.max_platform_retries + 1
        for attempt in range(attempts):
            consumed_before = counter.asked
            try:
                label, _ = aggregate(
                    counter, pair, scheme,
                    gap=self.config.strong_majority_gap,
                    max_answers=self.config.strong_majority_max,
                )
                break
            except BudgetExhaustedError:
                raise
            except CrowdUnavailableError:
                # The gateway's circuit is open: retrying here would just
                # hammer a dead platform.  Pay for answers already served
                # and let the engine degrade to its last checkpoint.
                self.tracker.record_answers(
                    counter.asked - consumed_before
                )
                raise
            except CrowdError:
                # Workers who answered before the failure still get paid.
                self.tracker.record_answers(
                    counter.asked - consumed_before
                )
                if attempt == attempts - 1:
                    raise
        self.tracker.record_answers(counter.asked - consumed_before)
        if pair not in self._cache:
            self.tracker.record_pair()
        entry = _entry_for(label, scheme)
        self._cache[pair] = entry
        if self.on_label is not None:
            self.on_label(pair, entry.label, entry.strong)
        return label
