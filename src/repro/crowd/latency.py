"""The money-time trade-off (Section 10).

"Paying more per question often gets the crowd to answer faster. How
should we manage this money-time trade-off?" — the paper leaves this
open.  This module provides the ingredients for an answer:

* :class:`LatencyModel` — a simple empirical-shaped model of answer
  latency on microtask platforms: per-answer latency is lognormal, and
  the *arrival rate* of workers grows with the offered pay (diminishing
  returns), so doubling pay less-than-halves waiting time.
* :class:`TimedCrowd` — wraps any platform and accumulates simulated
  wall-clock time alongside the money the cost tracker already counts.
* :func:`pareto_sweep` — evaluates a grid of pay rates and reports the
  money/time frontier for a given question workload, which is exactly
  the decision table a Corleone operator needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data.pairs import Pair
from ..exceptions import CrowdError
from .base import CrowdPlatform, WorkerAnswer


class SimulatedClock:
    """A shared simulated wall clock (seconds since the run started).

    The money-time extension (:class:`TimedCrowd`) and the resilient
    gateway (:class:`repro.crowd.gateway.ResilientCrowd`) both account
    time on the *same* clock instance — answer latency, timeout waits
    and backoff delays all advance it — so a run's elapsed time is one
    coherent number and never touches real wall time (the CL001
    determinism contract).
    """

    def __init__(self, now: float = 0.0) -> None:
        if now < 0:
            raise CrowdError("clock must not start before zero")
        self._now = float(now)

    @property
    def now(self) -> float:
        """Simulated seconds elapsed since the run started."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds``; returns the new time."""
        if seconds < 0:
            raise CrowdError("cannot advance the clock backwards")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock to ``timestamp`` if that is later (monotonic)."""
        self._now = max(self._now, float(timestamp))
        return self._now

    def state_dict(self) -> dict:
        """The clock's state (JSON-compatible)."""
        return {"now": self._now}

    def load_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._now = float(state["now"])


@dataclass(frozen=True)
class LatencyModel:
    """Pay-dependent answer latency.

    Mean seconds per answer = base_seconds / (pay / reference_pay) **
    elasticity, floored at ``floor_seconds`` (a human still needs time to
    read the question).  Individual answers draw from a lognormal with
    that mean and ``sigma`` spread — microtask latencies are famously
    heavy-tailed.
    """

    base_seconds: float = 60.0
    """Mean seconds per answer at the reference pay."""

    reference_pay: float = 0.01
    """The pay rate (dollars/question) the base latency refers to."""

    elasticity: float = 0.5
    """Rate-vs-pay exponent: 0.5 means 4x pay -> 2x faster."""

    floor_seconds: float = 5.0
    sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.base_seconds <= 0 or self.reference_pay <= 0:
            raise CrowdError("base_seconds and reference_pay must be > 0")
        if not 0.0 <= self.elasticity <= 2.0:
            raise CrowdError("elasticity must be in [0, 2]")
        if self.floor_seconds < 0 or self.sigma < 0:
            raise CrowdError("floor_seconds and sigma must be >= 0")

    def mean_seconds(self, pay_per_question: float) -> float:
        """Expected seconds per answer at a given pay rate."""
        if pay_per_question <= 0:
            raise CrowdError("pay_per_question must be positive")
        speedup = (pay_per_question / self.reference_pay) ** self.elasticity
        return max(self.floor_seconds, self.base_seconds / speedup)

    def sample_seconds(self, pay_per_question: float,
                       rng: np.random.Generator) -> float:
        """One answer's latency draw (lognormal around the mean)."""
        mean = self.mean_seconds(pay_per_question)
        # Parameterize the lognormal so its mean equals ``mean``.
        mu = math.log(mean) - self.sigma ** 2 / 2.0
        return max(self.floor_seconds,
                   float(rng.lognormal(mu, self.sigma)))


class TimedCrowd(CrowdPlatform):
    """A platform wrapper that accumulates simulated answer latency.

    Answers within one HIT are answered by parallel workers in reality;
    we model ``parallelism`` simultaneous workers, so elapsed time grows
    with ceil(answers / parallelism).  Without an explicit ``rng`` the
    latency draws come from a fixed-seed generator, keeping simulated
    wall-clock accounting reproducible (corlint CL001).
    """

    def __init__(self, inner: CrowdPlatform, model: LatencyModel,
                 pay_per_question: float,
                 rng: np.random.Generator | None = None,
                 parallelism: int = 5,
                 clock: SimulatedClock | None = None) -> None:
        if parallelism < 1:
            raise CrowdError("parallelism must be >= 1")
        self.inner = inner
        self.model = model
        self.pay_per_question = pay_per_question
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.parallelism = parallelism
        self._lane_clocks = [0.0] * parallelism
        self.clock = clock if clock is not None else SimulatedClock()
        self.retry_seconds = 0.0
        """Simulated time spent on attempts that produced no answer
        (worker time the platform burned before a fault); retried and
        reposted questions accrue here in addition to the normal lane
        accounting of the answers they eventually produce."""

    @property
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock time consumed so far.

        The makespan over the worker lanes, merged with the shared
        clock — which a gateway above this platform advances during
        timeout waits and backoff sleeps, so retried questions are
        timed too, not only first-attempt answers.
        """
        return self.clock.advance_to(max(self._lane_clocks))

    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_seconds / 3600.0

    def ask(self, pair: Pair) -> WorkerAnswer:
        latency = self.model.sample_seconds(self.pay_per_question,
                                            self._rng)
        # Greedy assignment to the least-loaded worker lane.
        lane = min(range(self.parallelism),
                   key=lambda i: self._lane_clocks[i])
        try:
            answer = self.inner.ask(pair)
        except CrowdError:
            # The worker's time was spent even though no answer arrived;
            # charge the lane and tally it as retry time so the money-time
            # report reflects what failures cost.
            self._lane_clocks[lane] += latency
            self.retry_seconds += latency
            self.clock.advance_to(max(self._lane_clocks))
            raise
        self._lane_clocks[lane] += latency
        self.clock.advance_to(max(self._lane_clocks))
        return answer

    def state_dict(self) -> dict:
        """Timing state for engine checkpoints (JSON-compatible)."""
        return {
            "rng": self._rng.bit_generator.state,
            "lanes": list(self._lane_clocks),
            "retry_seconds": self.retry_seconds,
            "clock": self.clock.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore timing state captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self._lane_clocks = [float(v) for v in state["lanes"]]
        self.retry_seconds = float(state["retry_seconds"])
        self.clock.load_state(state["clock"])


@dataclass(frozen=True)
class PayPoint:
    """One point on the money-time frontier."""

    pay_per_question: float
    total_dollars: float
    total_hours: float


def pareto_sweep(n_answers: int, pay_rates: list[float],
                 model: LatencyModel | None = None,
                 parallelism: int = 5) -> list[PayPoint]:
    """The expected money/time frontier for a workload of answers.

    Uses the model's *mean* latency (no sampling), so the sweep is
    deterministic: cost grows linearly with pay while time shrinks with
    diminishing returns — the structure of the paper's open question.
    """
    if n_answers < 0:
        raise CrowdError("n_answers must be >= 0")
    if not pay_rates:
        raise CrowdError("need at least one pay rate")
    model = model if model is not None else LatencyModel()
    points = []
    for pay in sorted(pay_rates):
        seconds = model.mean_seconds(pay) * n_answers / parallelism
        points.append(PayPoint(
            pay_per_question=pay,
            total_dollars=pay * n_answers,
            total_hours=seconds / 3600.0,
        ))
    return points


def cheapest_within_deadline(n_answers: int, deadline_hours: float,
                             pay_rates: list[float],
                             model: LatencyModel | None = None,
                             parallelism: int = 5) -> PayPoint | None:
    """The cheapest pay rate that meets a deadline, or None if none does.

    This is the operator-facing answer to the paper's question: given
    "I need the matches by tomorrow morning", pick the pay rate.
    """
    for point in pareto_sweep(n_answers, pay_rates, model, parallelism):
        if point.total_hours <= deadline_hours:
            return point
    return None
