"""Chaos harness: fault rates × kill points over the full pipeline.

Runs the complete Corleone engine behind the resilient-gateway stack
(``ResilientCrowd`` over ``FaultyCrowd``) and asserts the robustness
contract end to end:

* at recoverable fault rates the run completes with F1 within tolerance
  of the fault-free golden, and every answer the platform delivered is
  an answer the cost tracker charged;
* a permanent outage trips the circuit breaker into a typed
  :class:`~repro.exceptions.CrowdUnavailableError` carrying a partial
  result, and ``Corleone.resume`` with a recovered platform reaches a
  result bit-identical to the never-killed faulty run;
* the engine trace records the fault/retry/repost/circuit events.

Spam is tested separately with a loose bound: spammers corrupt labels
(worker-quality noise the gateway cannot see), whereas timeouts,
expiries, duplicates and outages are lossless through retry.

The gateway is the only layer that retries: it retries a question until
an answer arrives or ``failure_threshold`` consecutive failures open the
breaker, and the labelling service asks for each answer once.  So a
permanent outage always ends in the typed error, and the threshold of
20 only has to stay above the longest run of failures a recoverable
fault rate produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import persistence
from repro.config import (
    BlockerConfig,
    CorleoneConfig,
    EstimatorConfig,
    ForestConfig,
    GatewayConfig,
    LocatorConfig,
    MatcherConfig,
)
from repro.core.pipeline import Corleone
from repro.crowd import (
    FaultSpec,
    FaultyCrowd,
    PerfectCrowd,
    ResilientCrowd,
    SimulatedCrowd,
)
from repro.engine import (
    EVENT_CIRCUIT_OPENED,
    EVENT_FAULT_INJECTED,
    EVENT_HIT_REPOSTED,
    EVENT_RETRY_SCHEDULED,
)
from repro.engine.checkpoint import TRACE_FILE
from repro.engine.events import read_trace
from repro.exceptions import CrowdUnavailableError
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants

FAULT_SEED = 77
"""Root seed for every FaultyCrowd in the sweep."""

F1_TOLERANCE = 0.005
"""Recoverable faults must stay within half an F1 point of golden."""


def _engine_config(max_pipeline_iterations: int, t_b: int) -> CorleoneConfig:
    """A fast full-pipeline configuration for the chaos sweeps."""
    return CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=t_b, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=12),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=max_pipeline_iterations,
        seed=0,
    )


_SCENARIOS = {
    # name -> (dataset factory, config, crowd error rate)
    "restaurants": (
        lambda: generate_restaurants(n_a=60, n_b=40, n_matches=15, seed=7),
        _engine_config(max_pipeline_iterations=2, t_b=1500),
        0.05,
    ),
    "products": (
        lambda: generate_products(n_a=40, n_b=120, n_matches=18, seed=17),
        _engine_config(max_pipeline_iterations=2, t_b=3000),
        0.0,
    ),
}


def f1(predicted, truth) -> float:
    """F1 of a predicted match set against the synthetic ground truth."""
    if not predicted:
        return 0.0
    true_positives = len(set(predicted) & set(truth))
    precision = true_positives / len(predicted)
    recall = true_positives / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def chaos_stack(crowd, spec: FaultSpec):
    """The standard chaos stack: gateway over fault injector over crowd.

    Returns ``(gateway, faulty)`` so tests can read the injector's
    delivery counters after the run.
    """
    faulty = FaultyCrowd(crowd, spec, seed=FAULT_SEED)
    gateway = ResilientCrowd(
        faulty, GatewayConfig(failure_threshold=20))
    return gateway, faulty


@pytest.fixture(scope="module", params=sorted(_SCENARIOS))
def scenario(request):
    """(name, dataset, config, crowd factory, golden F1) per dataset."""
    name = request.param
    make_dataset, config, error_rate = _SCENARIOS[name]
    dataset = make_dataset()

    def crowd():
        if error_rate:
            return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                                  rng=np.random.default_rng(11))
        return PerfectCrowd(dataset.matches, rng=np.random.default_rng(11))

    golden = Corleone(config, crowd(), seed=123).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    golden_f1 = f1(golden.predicted_matches, dataset.matches)
    return name, dataset, config, crowd, golden_f1


class TestFaultRateSweep:
    """Recoverable faults: full runs at increasing uniform rates."""

    @pytest.mark.parametrize("rate", [0.02, 0.1])
    def test_f1_within_tolerance_and_accounting_exact(self, scenario, rate):
        _, dataset, config, crowd, golden_f1 = scenario
        spec = FaultSpec.uniform(rate, spammer_rate=0.0)
        gateway, faulty = chaos_stack(crowd(), spec)

        result = Corleone(config, gateway, seed=123).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

        assert result.stop_reason != "crowd_unavailable"
        assert faulty.faults_injected > 0  # the sweep actually injected
        chaos_f1 = f1(result.predicted_matches, dataset.matches)
        assert abs(chaos_f1 - golden_f1) <= F1_TOLERANCE
        # Every answer the platform delivered was charged, and nothing
        # that failed (timeouts, expiries, outages) was.
        assert result.cost.answers == faulty.answers_delivered

    def test_gateway_alone_is_transparent(self, scenario):
        """At a 0% fault rate the stack must not perturb the run."""
        _, dataset, config, crowd, golden_f1 = scenario
        gateway, faulty = chaos_stack(crowd(), FaultSpec())

        result = Corleone(config, gateway, seed=123).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

        assert faulty.faults_injected == 0
        assert f1(result.predicted_matches, dataset.matches) == golden_f1
        assert result.cost.answers == faulty.answers_delivered


class TestSpamDegradation:
    """Spam corrupts labels, so it gets a loose bound, not equivalence."""

    def test_spam_degrades_gracefully(self, scenario):
        _, dataset, config, crowd, golden_f1 = scenario
        spec = FaultSpec(spammer_rate=0.1, spammer_burst=2)
        gateway, faulty = chaos_stack(crowd(), spec)

        result = Corleone(config, gateway, seed=123).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

        assert result.stop_reason != "crowd_unavailable"
        assert faulty.counts["spammer"] > 0
        # Spam answers are real (delivered, billed) answers with wrong
        # labels; the run must still complete and stay useful.
        assert f1(result.predicted_matches, dataset.matches) >= \
            golden_f1 - 0.25
        assert result.cost.answers == faulty.answers_delivered


class TestOutageKillAndResume:
    """Permanent outage: typed failure, then bit-identical resume."""

    RATE = 0.1

    def _spec(self, hard_outage_after=None) -> FaultSpec:
        return FaultSpec.uniform(self.RATE, spammer_rate=0.0,
                                 hard_outage_after=hard_outage_after)

    @pytest.fixture()
    def faulty_golden_report(self, scenario):
        """The never-killed faulty run every resume must reproduce."""
        _, dataset, config, crowd, _ = scenario
        gateway, _ = chaos_stack(crowd(), self._spec())
        result = Corleone(config, gateway, seed=123).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        return persistence.result_report(result)

    @pytest.mark.parametrize("kill_after", [10, 120])
    def test_kill_is_typed_and_resume_is_bit_identical(
            self, scenario, faulty_golden_report, tmp_path, kill_after):
        _, dataset, config, crowd, _ = scenario
        run_dir = tmp_path / "run"

        gateway, _ = chaos_stack(crowd(), self._spec(kill_after))
        with pytest.raises(CrowdUnavailableError) as excinfo:
            Corleone(config, gateway, seed=123, run_dir=run_dir).run(
                dataset.table_a, dataset.table_b, dataset.seed_labels)

        # The failure is typed, carries a partial result, and the trace
        # shows the circuit opening after the injected fault storm.
        error = excinfo.value
        assert error.failures >= 1
        assert error.partial is not None
        assert error.partial.stop_reason == "crowd_unavailable"
        trace_names = {event.name
                       for event in read_trace(run_dir / TRACE_FILE)}
        assert EVENT_CIRCUIT_OPENED in trace_names
        assert EVENT_FAULT_INJECTED in trace_names

        # Resume with a recovered platform (same faults, no kill switch):
        # the gateway state saved in the checkpoint fast-forwards it to
        # the exact point of failure.
        recovered, faulty = chaos_stack(crowd(), self._spec())
        resumed = Corleone.resume(run_dir, recovered)
        assert persistence.result_report(resumed) == faulty_golden_report
        assert resumed.cost.answers == faulty.answers_delivered

    def test_faulty_run_trace_records_recovery_events(
            self, scenario, tmp_path):
        """A surviving faulty run logs injections, retries and reposts."""
        _, dataset, config, crowd, _ = scenario
        run_dir = tmp_path / "run"
        gateway, _ = chaos_stack(crowd(), self._spec())

        Corleone(config, gateway, seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

        trace_names = {event.name
                       for event in read_trace(run_dir / TRACE_FILE)}
        assert EVENT_FAULT_INJECTED in trace_names
        assert EVENT_RETRY_SCHEDULED in trace_names
        assert EVENT_HIT_REPOSTED in trace_names
        assert EVENT_CIRCUIT_OPENED not in trace_names
