"""The resilient labelling gateway: retry, backoff, repost, break.

:class:`ResilientCrowd` sits between the
:class:`~repro.crowd.service.LabelingService` and a (possibly faulty)
platform and makes the labelling path survive the realistic failure
taxonomy of :mod:`repro.crowd.faults`:

* **per-question timeout** — an :class:`AnswerTimeoutError` charges the
  full question deadline to the shared simulated clock before retrying
  (we waited that long for nothing);
* **capped exponential backoff** with *deterministic* jitter — the
  jitter draws come from the gateway's own seeded stream, and every
  delay advances the :class:`~repro.crowd.latency.SimulatedClock`
  shared with :class:`~repro.crowd.latency.TimedCrowd`, never wall time
  (CL001);
* **HIT reposting** — a :class:`HitExpiredError` reposts the question
  as a fresh HIT, metered in the :class:`~repro.crowd.cost.CostTracker`
  so reposted spend shows up in the run's cost report;
* **a circuit breaker** — after ``failure_threshold`` consecutive
  platform failures the circuit opens and the gateway raises a typed
  :class:`CrowdUnavailableError`; the engine's last checkpoint is on
  disk, so :meth:`~repro.core.pipeline.Corleone.resume` continues the
  run once the platform recovers.  After ``cooldown_seconds`` of
  simulated time the breaker goes *half-open* and lets one trial
  question through.

The gateway is the only layer that retries: it retries a question until
an answer arrives or the breaker opens, so the labelling service above
it asks for each answer once.

One :class:`~repro.config.GatewayConfig` sets every knob: the backoff
schedule, the question deadline and the breaker's threshold and
cooldown.  Every hook (``on_retry`` / ``on_repost`` /
``on_circuit_open``) is wired to the engine's event bus by
:class:`~repro.engine.context.RunContext`, surfacing the
``retry_scheduled`` / ``hit_reposted`` / ``circuit_opened`` events; see
``docs/robustness.md`` for the full state machine.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..config import GatewayConfig
from ..data.pairs import Pair
from ..exceptions import (
    AnswerTimeoutError,
    CrowdUnavailableError,
    HitExpiredError,
    TransientCrowdError,
)
from .base import CrowdPlatform, WorkerAnswer, layers
from .cost import CostTracker
from .latency import SimulatedClock

CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half_open"

RetryObserver = Callable[[str, int, float], None]
"""``on_retry(kind, attempt, delay_seconds)`` — a retry was scheduled."""

RepostObserver = Callable[[Pair, int], None]
"""``on_repost(pair, attempt)`` — an expired HIT was reposted."""

CircuitObserver = Callable[[int], None]
"""``on_circuit_open(failures)`` — the circuit breaker just opened."""


class CircuitBreaker:
    """The gateway's closed / open / half-open failure state machine.

    Closed: questions flow, consecutive failures are counted.  Open:
    questions are rejected until ``cooldown_seconds`` of *simulated*
    time pass.  Half-open: one trial question is allowed; success closes
    the circuit, failure re-opens it (and restarts the cooldown).
    ``config`` sets the threshold and the cooldown.
    """

    def __init__(self, config: GatewayConfig, clock: SimulatedClock) -> None:
        self.failure_threshold = config.failure_threshold
        self.cooldown_seconds = config.cooldown_seconds
        self.clock = clock
        self._failures = 0
        self._open = False
        self._opened_at = 0.0
        self._trial_pending = False

    @property
    def consecutive_failures(self) -> int:
        """Platform failures since the last successful answer."""
        return self._failures

    @property
    def state(self) -> str:
        """``closed``, ``open`` or ``half_open`` (cooldown elapsed)."""
        if not self._open:
            return CIRCUIT_CLOSED
        if self.clock.now - self._opened_at >= self.cooldown_seconds:
            return CIRCUIT_HALF_OPEN
        return CIRCUIT_OPEN

    def allow(self) -> bool:
        """May a question be attempted right now?

        Half-open admits exactly one in-flight trial; its outcome
        (``record_success`` / ``record_failure``) decides what happens
        next.
        """
        state = self.state
        if state == CIRCUIT_CLOSED:
            return True
        if state == CIRCUIT_HALF_OPEN and not self._trial_pending:
            self._trial_pending = True
            return True
        return False

    def record_success(self) -> None:
        """An answer arrived: close the circuit, reset the count."""
        self._failures = 0
        self._open = False
        self._trial_pending = False

    def record_failure(self) -> bool:
        """One platform failure; returns True if the circuit just opened.

        A failed half-open trial re-opens immediately (and restarts the
        cooldown); a closed circuit opens once the consecutive-failure
        count reaches the threshold.
        """
        self._failures += 1
        was_open = self._open
        if self._trial_pending:
            self._trial_pending = False
            self._opened_at = self.clock.now
            return False  # re-opened, not newly opened
        if not self._open and self._failures >= self.failure_threshold:
            self._open = True
            self._opened_at = self.clock.now
        return self._open and not was_open

    def state_dict(self) -> dict:
        """The breaker's state (JSON-compatible)."""
        return {
            "failures": self._failures,
            "open": self._open,
            "opened_at": self._opened_at,
            "trial_pending": self._trial_pending,
        }

    def load_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._failures = int(state["failures"])
        self._open = bool(state["open"])
        self._opened_at = float(state["opened_at"])
        self._trial_pending = bool(state["trial_pending"])


def find_clock(platform: CrowdPlatform) -> SimulatedClock | None:
    """The first :class:`SimulatedClock` down a platform stack, if any.

    Lets the gateway share the clock a :class:`TimedCrowd` somewhere
    below it already accounts answer latency on.
    """
    for layer in layers(platform):
        clock = getattr(layer, "clock", None)
        if isinstance(clock, SimulatedClock):
            return clock
    return None


class ResilientCrowd(CrowdPlatform):
    """The retry/backoff/repost/circuit-breaker gateway platform.

    Wraps any platform (usually a :class:`~repro.crowd.faults.FaultyCrowd`
    or :class:`~repro.crowd.latency.TimedCrowd` stack) and guarantees its
    caller one of two outcomes per ``ask``: a :class:`WorkerAnswer`, or
    :class:`CrowdUnavailableError` once the breaker is open.  A
    :class:`~repro.exceptions.BudgetExhaustedError` from below passes
    through untouched.  ``config`` (default: :class:`GatewayConfig`'s
    defaults) sets the retry schedule and sizes the breaker.  The
    gateway shares the first :class:`SimulatedClock` down the stack
    (:func:`find_clock`) or keeps its own.
    """

    def __init__(self, inner: CrowdPlatform,
                 config: GatewayConfig | None = None) -> None:
        self.inner = inner
        self.config = config if config is not None else GatewayConfig()
        clock = find_clock(inner)
        self.clock = clock if clock is not None else SimulatedClock()
        self.breaker = CircuitBreaker(self.config, self.clock)
        self._rng = np.random.default_rng(0)
        self.tracker: CostTracker | None = None  # corlint: derived
        """Bound by :class:`~repro.engine.context.RunContext` so reposted
        HITs are metered in the run's cost ledger — a rebindable
        dependency, re-injected on resume rather than serialized."""
        self.retries_scheduled = 0
        self.hits_reposted = 0
        self.answers_recovered = 0
        """Answers that arrived only after at least one retry."""
        self.retry_seconds = 0.0
        """Simulated time spent waiting on timeouts and backoff."""
        self.on_retry: RetryObserver | None = None
        self.on_repost: RepostObserver | None = None
        self.on_circuit_open: CircuitObserver | None = None

    def bind_tracker(self, tracker: CostTracker) -> None:
        """Meter reposted HITs into ``tracker`` from now on."""
        self.tracker = tracker

    # ------------------------------------------------------------------
    # The answer path
    # ------------------------------------------------------------------

    def ask(self, pair: Pair) -> WorkerAnswer:
        """One answer for ``pair``, retried until it arrives or the
        circuit opens.

        A failure that leaves the breaker open (it just opened, or a
        half-open trial failed) ends the call, so one call makes at
        most ``failure_threshold`` attempts.
        """
        if not self.breaker.allow():
            raise CrowdUnavailableError(
                self.breaker.consecutive_failures,
                "crowd platform unavailable: circuit is open "
                f"(cooldown {self.breaker.cooldown_seconds:.0f}s on "
                "the simulated clock)",
            )
        attempt = 0
        while True:
            try:
                answer = self.inner.ask(pair)
            except TransientCrowdError as error:
                if self._note_failure(pair, error, attempt):
                    raise CrowdUnavailableError(
                        self.breaker.consecutive_failures
                    ) from error
                self._schedule_retry(error, attempt)
                attempt += 1
                continue
            self.breaker.record_success()
            if attempt > 0:
                self.answers_recovered += 1
            return answer

    def _note_failure(self, pair: Pair, error: TransientCrowdError,
                      attempt: int) -> bool:
        """Account one platform failure: clock, reposting, breaker.

        Returns True when the circuit is open after this failure;
        ``on_circuit_open`` fires only when this failure opened it.
        """
        if isinstance(error, AnswerTimeoutError):
            # We waited the full question deadline for nothing.
            waited = self.config.question_timeout_seconds
            self.clock.advance(waited)
            self.retry_seconds += waited
        if isinstance(error, HitExpiredError):
            # The HIT died; repost it as a fresh one (and pay the fee).
            self.hits_reposted += 1
            if self.tracker is not None:
                self.tracker.record_hits(1)
            if self.on_repost is not None:
                self.on_repost(pair, attempt)
        if (self.breaker.record_failure()
                and self.on_circuit_open is not None):
            self.on_circuit_open(self.breaker.consecutive_failures)
        return self.breaker.state != CIRCUIT_CLOSED

    def _schedule_retry(self, error: TransientCrowdError,
                        attempt: int) -> None:
        """Back off (on the simulated clock) before the next attempt."""
        delay = self.config.delay_seconds(attempt, self._rng)
        self.clock.advance(delay)
        self.retry_seconds += delay
        self.retries_scheduled += 1
        if self.on_retry is not None:
            self.on_retry(type(error).__name__, attempt, delay)

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.crowd.base.stack_state)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The gateway's own state (JSON-compatible)."""
        return {
            "rng": self._rng.bit_generator.state,
            "breaker": self.breaker.state_dict(),
            "clock": self.clock.state_dict(),
            "retries_scheduled": self.retries_scheduled,
            "hits_reposted": self.hits_reposted,
            "answers_recovered": self.answers_recovered,
            "retry_seconds": self.retry_seconds,
        }

    def load_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self.breaker.load_state(state["breaker"])
        self.clock.load_state(state["clock"])
        self.retries_scheduled = int(state["retries_scheduled"])
        self.hits_reposted = int(state["hits_reposted"])
        self.answers_recovered = int(state["answers_recovered"])
        self.retry_seconds = float(state["retry_seconds"])
