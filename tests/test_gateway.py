"""ResilientCrowd: retry, backoff, repost, circuit breaker, metering.

Property tests (hypothesis) pin the backoff-determinism contract —
identical seeds yield bit-identical retry schedules and final labels
across two gateway runs, including through a whole-stack state
round-trip — and unit tests cover the breaker state machine, HIT repost
metering, the shared-clock accounting, the answers-consumed ==
answers-charged invariant through the labelling service, and a
stateless wrapper mid-stack that must not hide the layers below it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CorleoneConfig, CrowdConfig, GatewayConfig
from repro.crowd import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    CostTracker,
    CrowdPlatform,
    FaultSpec,
    FaultyCrowd,
    LabelingService,
    LatencyModel,
    PerfectCrowd,
    ResilientCrowd,
    SimulatedClock,
    TimedCrowd,
    TranscriptingPlatform,
    WorkerAnswer,
    find_clock,
)
from repro.crowd.base import load_stack_state, stack_state
from repro.data.pairs import Pair
from repro.engine.context import RunContext
from repro.engine.events import EVENT_FAULT_INJECTED
from repro.exceptions import (
    AnswerTimeoutError,
    BudgetExhaustedError,
    ConfigurationError,
    CrowdUnavailableError,
    HitExpiredError,
    TransientCrowdError,
)

MATCHES = {Pair("a1", "b1"), Pair("a2", "b2")}
PAIR = Pair("a1", "b1")


def stack(spec: FaultSpec, seed: int = 0, *, max_attempts: int = 6,
          threshold: int = 50,
          jitter: float = 0.1) -> tuple[ResilientCrowd, FaultyCrowd]:
    """A gateway over a faulty perfect oracle; returns both layers."""
    faulty = FaultyCrowd(PerfectCrowd(MATCHES), spec, seed=seed)
    gateway = ResilientCrowd(faulty, GatewayConfig(
        max_attempts=max_attempts, jitter_fraction=jitter,
        failure_threshold=threshold))
    return gateway, faulty


class _AlwaysDown(PerfectCrowd):
    """A platform that never answers (permanent transient failure)."""

    def ask(self, pair):
        raise TransientCrowdError("down")


class TestGatewayConfig:
    def test_delays_grow_exponentially_to_the_cap(self):
        config = GatewayConfig(base_delay_seconds=10.0, backoff_factor=2.0,
                               max_delay_seconds=35.0, jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        delays = [config.delay_seconds(k, rng) for k in range(4)]
        assert delays == [10.0, 20.0, 35.0, 35.0]

    def test_jitter_stays_within_the_fraction(self):
        config = GatewayConfig(base_delay_seconds=100.0, backoff_factor=1.0,
                               jitter_fraction=0.2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            delay = config.delay_seconds(0, rng)
            assert 80.0 <= delay <= 120.0

    def test_jitter_is_deterministic(self):
        config = GatewayConfig()
        a = [config.delay_seconds(k, np.random.default_rng(5))
             for k in range(5)]
        b = [config.delay_seconds(k, np.random.default_rng(5))
             for k in range(5)]
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay_seconds": -1.0},
        {"backoff_factor": 0.5},
        {"jitter_fraction": 1.0},
        {"question_timeout_seconds": -5.0},
        {"max_delay_seconds": -1.0},
        {"failure_threshold": 0},
        {"cooldown_seconds": -1.0},
    ])
    def test_validation(self, kwargs):
        """A standalone config is validated, not only a CorleoneConfig."""
        with pytest.raises(ConfigurationError):
            GatewayConfig(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig().delay_seconds(-1, np.random.default_rng(0))


class TestCircuitBreaker:
    def test_opens_at_the_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # newly opened
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.allow() is False

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED

    def test_half_open_after_cooldown_admits_one_trial(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=1,
                                 cooldown_seconds=60.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow() is False
        clock.advance(61.0)
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert breaker.allow() is True   # the single trial
        assert breaker.allow() is False  # no second one in flight

    def test_half_open_trial_success_closes(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=1,
                                 cooldown_seconds=60.0, clock=clock)
        breaker.record_failure()
        clock.advance(61.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED

    def test_half_open_trial_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=1,
                                 cooldown_seconds=60.0, clock=clock)
        breaker.record_failure()
        clock.advance(61.0)
        assert breaker.allow()
        assert breaker.record_failure() is False  # re-opened, not new
        assert breaker.state == CIRCUIT_OPEN  # cooldown restarted

    def test_state_roundtrip(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        state = json.loads(json.dumps(breaker.state_dict()))
        other = CircuitBreaker(failure_threshold=2)
        other.load_state(state)
        assert other.state_dict() == breaker.state_dict()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_seconds=-1.0)


class TestGatewayRetries:
    def test_clean_platform_passes_straight_through(self):
        gateway, faulty = stack(FaultSpec())
        for _ in range(20):
            gateway.ask(PAIR)
        assert gateway.retries_scheduled == 0
        assert gateway.answers_recovered == 0
        assert faulty.answers_delivered == 20

    def test_transient_faults_are_retried_to_an_answer(self):
        gateway, faulty = stack(FaultSpec.uniform(0.1), seed=3)
        answers = [gateway.ask(PAIR) for _ in range(50)]
        assert len(answers) == 50
        assert gateway.retries_scheduled > 0
        assert gateway.answers_recovered > 0

    def test_retries_exhausted_reraises_the_last_error(self):
        gateway = ResilientCrowd(
            FaultyCrowd(PerfectCrowd(MATCHES),
                        FaultSpec(timeout_rate=1.0)),
            GatewayConfig(max_attempts=3, failure_threshold=50),
        )
        with pytest.raises(AnswerTimeoutError):
            gateway.ask(PAIR)
        assert gateway.retries_scheduled == 2  # between the 3 attempts

    def test_budget_exhaustion_is_never_retried(self):
        class Broke(PerfectCrowd):
            def ask(self, pair):
                raise BudgetExhaustedError(5.0, 5.0)

        gateway = ResilientCrowd(Broke(MATCHES))
        with pytest.raises(BudgetExhaustedError):
            gateway.ask(PAIR)
        assert gateway.retries_scheduled == 0
        assert gateway.breaker.consecutive_failures == 0

    def test_circuit_opens_and_raises_typed_error(self):
        gateway = ResilientCrowd(
            _AlwaysDown(MATCHES),
            GatewayConfig(max_attempts=10, failure_threshold=4),
        )
        with pytest.raises(CrowdUnavailableError) as info:
            gateway.ask(PAIR)
        assert info.value.failures == 4
        # The circuit stays open: fail fast without touching the platform.
        with pytest.raises(CrowdUnavailableError):
            gateway.ask(PAIR)

    def test_observer_hooks_fire(self):
        events = []
        gateway = ResilientCrowd(
            FaultyCrowd(PerfectCrowd(MATCHES),
                        FaultSpec(expiry_rate=1.0)),
            GatewayConfig(max_attempts=2, failure_threshold=2),
        )
        gateway.on_retry = lambda kind, attempt, delay: events.append(
            ("retry", kind, attempt))
        gateway.on_repost = lambda pair, attempt: events.append(
            ("repost", attempt))
        gateway.on_circuit_open = lambda failures: events.append(
            ("open", failures))
        with pytest.raises(CrowdUnavailableError):
            gateway.ask(PAIR)
        assert ("repost", 0) in events
        assert ("retry", "HitExpiredError", 0) in events
        assert ("open", 2) in events


class TestMeteringAndClock:
    def test_reposted_hits_are_charged(self):
        tracker = CostTracker(price_per_question=0.01)
        gateway = ResilientCrowd(
            FaultyCrowd(PerfectCrowd(MATCHES),
                        FaultSpec(expiry_rate=0.3), seed=2),
            GatewayConfig(max_attempts=8, failure_threshold=100),
            tracker=tracker,
        )
        for _ in range(40):
            gateway.ask(PAIR)
        assert gateway.hits_reposted > 0
        assert tracker.hits == gateway.hits_reposted

    def test_timeouts_charge_the_deadline_to_the_clock(self):
        gateway = ResilientCrowd(
            FaultyCrowd(PerfectCrowd(MATCHES),
                        FaultSpec(timeout_rate=1.0)),
            GatewayConfig(max_attempts=2, question_timeout_seconds=300.0,
                          base_delay_seconds=30.0, jitter_fraction=0.0,
                          failure_threshold=100),
        )
        with pytest.raises(AnswerTimeoutError):
            gateway.ask(PAIR)
        # Two timeouts waited out plus one backoff sleep.
        assert gateway.clock.now == pytest.approx(630.0)
        assert gateway.retry_seconds == pytest.approx(630.0)

    def test_gateway_shares_a_timed_crowd_clock(self):
        timed = TimedCrowd(PerfectCrowd(MATCHES), LatencyModel(),
                           pay_per_question=0.01)
        # A stateless wrapper in between must not hide the clock.
        for inner in (timed, TranscriptingPlatform(timed)):
            gateway = ResilientCrowd(inner)
            assert gateway.clock is timed.clock
            assert gateway.breaker.clock is timed.clock
            assert find_clock(gateway) is timed.clock
        gateway.ask(PAIR)
        assert timed.elapsed_seconds > 0

    def test_timed_crowd_accrues_latency_for_failed_attempts(self):
        """The satellite fix: retried questions cost simulated time."""
        faulty = FaultyCrowd(PerfectCrowd(MATCHES),
                             FaultSpec(timeout_rate=1.0))
        timed = TimedCrowd(faulty, LatencyModel(), pay_per_question=0.01)
        with pytest.raises(AnswerTimeoutError):
            timed.ask(PAIR)
        assert timed.retry_seconds > 0
        assert timed.elapsed_seconds >= timed.retry_seconds

    def test_config_applies_every_knob(self):
        config = GatewayConfig(max_attempts=7, base_delay_seconds=1.0,
                               backoff_factor=3.0, max_delay_seconds=9.0,
                               jitter_fraction=0.0,
                               question_timeout_seconds=42.0,
                               failure_threshold=11,
                               cooldown_seconds=120.0)
        gateway = ResilientCrowd(
            FaultyCrowd(PerfectCrowd(MATCHES), FaultSpec(timeout_rate=1.0)),
            config)
        with pytest.raises(AnswerTimeoutError):
            gateway.ask(PAIR)
        # 7 deadlines of 42 s plus backoff 1 + 3 + 9 + 9 + 9 + 9 (capped).
        assert gateway.retries_scheduled == 6
        assert gateway.clock.now == pytest.approx(7 * 42.0 + 40.0)
        assert gateway.breaker.failure_threshold == 11
        assert gateway.breaker.cooldown_seconds == 120.0


class TestAccountingInvariant:
    def test_answers_consumed_equals_answers_charged(self):
        """The tentpole invariant, through the full labelling service."""
        tracker = CostTracker(price_per_question=0.01)
        faulty = FaultyCrowd(PerfectCrowd(MATCHES),
                             FaultSpec.uniform(0.1), seed=4)
        gateway = ResilientCrowd(
            faulty, GatewayConfig(max_attempts=8, failure_threshold=100),
            tracker=tracker,
        )
        service = LabelingService(gateway, CrowdConfig(), tracker)
        pairs = [Pair(f"a{i}", f"b{i}") for i in range(30)]
        service.label_all(pairs)
        assert faulty.answers_delivered == tracker.answers

    def test_invariant_holds_even_when_the_circuit_opens(self):
        tracker = CostTracker(price_per_question=0.01)
        faulty = FaultyCrowd(PerfectCrowd(MATCHES),
                             FaultSpec.uniform(0.1,
                                               hard_outage_after=25),
                             seed=4)
        gateway = ResilientCrowd(
            faulty, GatewayConfig(max_attempts=4, failure_threshold=5),
            tracker=tracker,
        )
        service = LabelingService(gateway, CrowdConfig(), tracker)
        pairs = [Pair(f"a{i}", f"b{i}") for i in range(30)]
        with pytest.raises(CrowdUnavailableError):
            service.label_all(pairs)
        assert faulty.answers_delivered == tracker.answers

    def test_padded_hit_not_double_charged(self):
        """The satellite fix: hits equal questions actually consumed."""
        tracker = CostTracker(price_per_question=0.01)
        service = LabelingService(PerfectCrowd(MATCHES), CrowdConfig(),
                                  tracker)
        # Three uncached pairs: a padded HIT (less than one full HIT).
        result = service.label_batch([Pair("a1", "b1"), Pair("a2", "b2"),
                                      Pair("a9", "b9")])
        assert len(result) == 3
        assert tracker.hits == 1

    def test_aborted_batch_charges_only_consumed_hits(self):
        tracker = CostTracker(price_per_question=0.01)
        service = LabelingService(_AlwaysDown(MATCHES), CrowdConfig(),
                                  tracker)
        with pytest.raises(TransientCrowdError):
            service.label_batch([Pair(f"a{i}", f"b{i}")
                                 for i in range(10)])
        # The first question died before any answer arrived: nothing
        # was consumed, so nothing is charged.
        assert tracker.hits == 0
        assert tracker.answers == 0


def persistent_ask(gateway: ResilientCrowd, pair: Pair):
    """Ask until an answer arrives, tolerating exhausted retry rounds.

    Mirrors what the labelling service's own retry layer does above the
    gateway; the determinism properties must hold through exhaustion
    and re-ask cycles too.
    """
    while True:
        try:
            return gateway.ask(pair)
        except TransientCrowdError:
            continue


class TestBackoffDeterminismProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rate=st.floats(min_value=0.0, max_value=0.25),
           n=st.integers(min_value=1, max_value=40))
    def test_identical_seeds_bit_identical_schedules_and_labels(
            self, seed, rate, n):
        """Two identically seeded gateway runs agree on everything."""
        def run():
            gateway, faulty = stack(FaultSpec.uniform(rate), seed=seed,
                                    max_attempts=10, threshold=10_000)
            labels = []
            for i in range(n):
                labels.append(
                    persistent_ask(gateway,
                                   Pair(f"a{i % 3}", f"b{i % 3}")).label)
            return labels, stack_state(gateway), faulty.state_dict()

        labels_a, gw_a, fc_a = run()
        labels_b, gw_b, fc_b = run()
        assert labels_a == labels_b
        assert gw_a == gw_b
        assert fc_a == fc_b

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           split=st.integers(min_value=0, max_value=30))
    def test_schedule_survives_a_state_roundtrip(self, seed, split):
        """Checkpoint at ``split`` asks, restore, continue: identical."""
        rate = 0.15
        total = 30

        def asks(gateway, start, stop):
            return [
                persistent_ask(gateway, Pair(f"a{i % 3}", f"b{i % 3}"))
                .label
                for i in range(start, stop)
            ]

        straight, _ = stack(FaultSpec.uniform(rate), seed=seed,
                            max_attempts=10, threshold=10_000)
        golden = asks(straight, 0, total)

        first, _ = stack(FaultSpec.uniform(rate), seed=seed,
                         max_attempts=10, threshold=10_000)
        head = asks(first, 0, split)
        state = json.loads(json.dumps(stack_state(first)))

        resumed, _ = stack(FaultSpec.uniform(rate), seed=seed,
                           max_attempts=10, threshold=10_000)
        load_stack_state(resumed, state)
        tail = asks(resumed, split, total)
        assert head + tail == golden
        assert stack_state(resumed) == stack_state(straight)


class TestGatewayStateRoundtrip:
    def test_full_stack_state_is_json_compatible(self):
        gateway, _ = stack(FaultSpec.uniform(0.2), seed=6)
        for _ in range(30):
            try:
                gateway.ask(PAIR)
            except TransientCrowdError:
                pass
        state = json.loads(json.dumps(stack_state(gateway)))
        fresh, _ = stack(FaultSpec.uniform(0.2), seed=6)
        load_stack_state(fresh, state)
        assert stack_state(fresh) == stack_state(gateway)
        assert fresh.retries_scheduled == gateway.retries_scheduled
        assert fresh.retry_seconds == gateway.retry_seconds
        # A stateless wrapper nests the stack below it unchanged.
        assert stack_state(TranscriptingPlatform(gateway)) == {
            "inner": stack_state(gateway)}

    def test_stateless_stack_records_null(self):
        """No layer keeps state: a null document, which loads as a no-op."""
        class Stateless(CrowdPlatform):
            def ask(self, pair):
                return WorkerAnswer(pair, pair in MATCHES, worker_id=0)

        transcript = TranscriptingPlatform(Stateless())
        assert stack_state(transcript) is None
        load_stack_state(transcript, None)


class TestRunContextWiring:
    def test_faults_below_a_stateless_wrapper_reach_the_bus(self):
        """One fault_injected event per injected fault, mid-stack or not."""
        faulty = FaultyCrowd(PerfectCrowd(MATCHES),
                             FaultSpec(timeout_rate=0.3), seed=1)
        gateway = ResilientCrowd(TranscriptingPlatform(faulty),
                                 GatewayConfig(max_attempts=10,
                                               failure_threshold=100))
        ctx = RunContext(CorleoneConfig(), gateway, seed=0)
        events = []
        ctx.bus.subscribe(events.append)
        ctx.service.label_all([Pair(f"a{i}", f"b{i}") for i in range(40)])
        faults = [e for e in events if e.name == EVENT_FAULT_INJECTED]
        assert faulty.faults_injected > 0
        assert len(faults) == faulty.faults_injected
        assert gateway.tracker is ctx.tracker
