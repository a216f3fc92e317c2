"""Crowd profiling and adaptive voting (Section 10 future work).

The paper suggests profiling the crowd during the blocking step, then
using the estimated crowd model to guide the rest of the run.  This
module implements that idea:

* :class:`ErrorRateEstimator` infers the pool's per-answer error rate
  from *answer disagreement* — for independent workers with error rate
  e, two answers to the same question disagree with probability
  2 e (1 - e), which can be inverted without knowing any true labels.
* :class:`ProfilingLabelingService` is a drop-in
  :class:`~repro.crowd.service.LabelingService` that records every
  answer, keeps the estimate current, and (optionally) *adapts* the
  voting scheme: a demonstrably careful crowd is downgraded to the cheap
  2+1 scheme, a demonstrably sloppy one escalated to full strong
  majority, with the paper's asymmetric scheme in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import CrowdConfig
from ..crowd.aggregation import VoteScheme
from ..crowd.base import CrowdPlatform, WorkerAnswer
from ..crowd.cost import CostTracker
from ..crowd.service import LabelingService
from ..data.pairs import Pair
from ..exceptions import CrowdError
from ..rules.statistics import fpc_error_margin


class ErrorRateEstimator:
    """Estimates the crowd's per-answer error rate from disagreement.

    Each question contributes one Bernoulli observation: whether its
    first two answers disagree.  With disagreement fraction d, the
    error-rate estimate is the smaller root of 2 e (1 - e) = d:

        e = (1 - sqrt(1 - 2 d)) / 2        (d clipped to < 0.5)

    The estimator is conservative when evidence is thin: below
    ``min_questions`` observations it reports ``None``.
    """

    def __init__(self, min_questions: int = 30) -> None:
        if min_questions < 1:
            raise CrowdError("min_questions must be >= 1")
        self.min_questions = min_questions
        self._disagreements = 0
        self._questions = 0

    @property
    def n_questions(self) -> int:
        return self._questions

    @property
    def disagreement(self) -> float:
        """Observed fraction of questions whose first 2 answers differ."""
        if self._questions == 0:
            return 0.0
        return self._disagreements / self._questions

    def record(self, first: bool, second: bool) -> None:
        """Feed the first two answers collected for one question."""
        self._questions += 1
        if first != second:
            self._disagreements += 1

    @property
    def error_rate(self) -> float | None:
        """The point estimate, or None while evidence is insufficient."""
        if self._questions < self.min_questions:
            return None
        d = min(self.disagreement, 0.4999)
        return (1.0 - math.sqrt(1.0 - 2.0 * d)) / 2.0

    def error_rate_interval(self, confidence: float = 0.95,
                            population: int = 10**9) -> tuple[float, float] | None:
        """A confidence interval for the error rate, or None if thin."""
        if self._questions < self.min_questions:
            return None
        margin = fpc_error_margin(self.disagreement, self._questions,
                                  population, confidence)
        low_d = max(0.0, self.disagreement - margin)
        high_d = min(0.4999, self.disagreement + margin)
        to_rate = lambda d: (1.0 - math.sqrt(1.0 - 2.0 * d)) / 2.0
        return to_rate(low_d), to_rate(high_d)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Thresholds for scheme adaptation based on the estimated error.

    Below ``careful_below`` every request is downgraded to 2+1 (the
    crowd has earned trust — save money); above ``sloppy_above`` every
    request is escalated to full strong majority (protect all labels,
    not only positives).  In between, the caller's scheme stands.
    """

    careful_below: float = 0.03
    sloppy_above: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.careful_below <= self.sloppy_above <= 0.5:
            raise CrowdError(
                "require 0 <= careful_below <= sloppy_above <= 0.5"
            )

    def adapt(self, requested: VoteScheme,
              error_rate: float | None) -> VoteScheme:
        """The scheme to actually use for the next question."""
        if error_rate is None:
            return requested
        if error_rate < self.careful_below:
            return VoteScheme.MAJORITY_2PLUS1
        if error_rate > self.sloppy_above:
            return VoteScheme.STRONG_MAJORITY
        return requested


class _RecordingPlatform(CrowdPlatform):
    """Proxy that feeds each question's first two answers to the estimator.

    Only the first two answers per question are used: every scheme
    collects those unconditionally, whereas later answers exist *because*
    earlier ones disagreed (vote escalation is a stopping time), so
    pairing them would oversample disagreement and bias the error-rate
    estimate upward.
    """

    def __init__(self, inner: CrowdPlatform,
                 estimator: ErrorRateEstimator) -> None:
        self.inner = inner
        self._estimator = estimator
        self._pending: dict[Pair, bool] = {}
        self._done: set[Pair] = set()

    def ask(self, pair: Pair) -> WorkerAnswer:
        answer = self.inner.ask(pair)
        if pair in self._done:
            return answer
        if pair in self._pending:
            self._estimator.record(self._pending.pop(pair), answer.label)
            self._done.add(pair)
        else:
            self._pending[pair] = answer.label
        return answer


class ProfilingLabelingService(LabelingService):
    """A labelling service that profiles the crowd and adapts voting.

    Drop-in replacement for :class:`LabelingService`; pass
    ``policy=None`` to profile without adapting (pure observation).
    """

    def __init__(self, platform: CrowdPlatform, config: CrowdConfig,
                 tracker: CostTracker | None = None,
                 policy: AdaptivePolicy | None = None,
                 min_questions: int = 30) -> None:
        self.estimator = ErrorRateEstimator(min_questions=min_questions)
        self.policy = policy
        recording = _RecordingPlatform(platform, self.estimator)
        super().__init__(recording, config, tracker)

    @property
    def profile(self) -> dict[str, float | int | None]:
        """A snapshot of what the service believes about its crowd."""
        interval = self.estimator.error_rate_interval()
        return {
            "questions_observed": self.estimator.n_questions,
            "disagreement": self.estimator.disagreement,
            "error_rate": self.estimator.error_rate,
            "error_rate_low": interval[0] if interval else None,
            "error_rate_high": interval[1] if interval else None,
        }

    def _label_one(self, pair: Pair, scheme: VoteScheme) -> bool:
        if self.policy is not None:
            scheme = self.policy.adapt(scheme, self.estimator.error_rate)
        return super()._label_one(pair, scheme)
