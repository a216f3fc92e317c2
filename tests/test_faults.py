"""FaultyCrowd: the deterministic fault taxonomy.

Covers each fault kind's behaviour (which exception, whether an answer
is consumed), determinism of the per-kind RNG streams (same seed ⇒ same
fault schedule; raising one rate never shifts another kind's schedule),
the hard-outage kill switch, and the checkpoint state round-trip.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crowd import (
    FAULT_KINDS,
    FaultSpec,
    FaultyCrowd,
    PerfectCrowd,
    fault_stream_seed,
)
from repro.crowd.base import load_stack_state, stack_state
from repro.data.pairs import Pair
from repro.exceptions import (
    AnswerTimeoutError,
    ConfigurationError,
    HitExpiredError,
    TransientCrowdError,
)

MATCHES = {Pair("a1", "b1"), Pair("a2", "b2")}
PAIR = Pair("a1", "b1")
OTHER = Pair("a3", "b3")


def make(spec: FaultSpec, seed: int = 0) -> FaultyCrowd:
    """A FaultyCrowd over a perfect oracle for MATCHES."""
    return FaultyCrowd(PerfectCrowd(MATCHES), spec, seed=seed)


def drive(platform: FaultyCrowd, n: int, pair: Pair = PAIR) -> list:
    """Ask ``n`` times, collecting answers or exception types."""
    out = []
    for _ in range(n):
        try:
            out.append(platform.ask(pair))
        except TransientCrowdError as error:
            out.append(type(error))
    return out


class TestFaultSpec:
    def test_defaults_inject_nothing(self):
        faulty = make(FaultSpec())
        answers = drive(faulty, 50)
        assert all(not isinstance(a, type) for a in answers)
        assert faulty.faults_injected == 0
        assert faulty.answers_delivered == 50

    def test_uniform_sets_every_rate(self):
        spec = FaultSpec.uniform(0.25)
        assert spec.timeout_rate == spec.expiry_rate == 0.25
        assert spec.spammer_rate == spec.duplicate_rate == 0.25
        assert spec.outage_rate == 0.25

    def test_uniform_overrides(self):
        spec = FaultSpec.uniform(0.1, outage_rate=0.0, spammer_burst=5)
        assert spec.outage_rate == 0.0
        assert spec.spammer_burst == 5

    @pytest.mark.parametrize("kwargs", [
        {"timeout_rate": -0.1},
        {"expiry_rate": 1.5},
        {"spammer_burst": 0},
        {"outage_length": 0},
        {"hard_outage_after": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_to_dict_is_json_compatible(self):
        spec = FaultSpec.uniform(0.1, hard_outage_after=40)
        data = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec(**data) == spec


class TestTaxonomy:
    def test_timeout_raises_and_consumes_nothing(self):
        faulty = make(FaultSpec(timeout_rate=1.0))
        with pytest.raises(AnswerTimeoutError):
            faulty.ask(PAIR)
        assert faulty.answers_delivered == 0
        assert faulty.counts["timeout"] == 1

    def test_expiry_raises_and_consumes_nothing(self):
        faulty = make(FaultSpec(expiry_rate=1.0))
        with pytest.raises(HitExpiredError):
            faulty.ask(PAIR)
        assert faulty.answers_delivered == 0
        assert faulty.counts["expiry"] == 1

    def test_outage_rejects_for_its_whole_window(self):
        faulty = make(FaultSpec(outage_rate=1.0, outage_length=4))
        for _ in range(4):
            with pytest.raises(TransientCrowdError):
                faulty.ask(PAIR)
        assert faulty.counts["outage"] == 4

    def test_duplicate_redelivers_the_previous_submission(self):
        faulty = make(FaultSpec(duplicate_rate=1.0))
        first = faulty.ask(PAIR)  # nothing cached yet: real answer
        second = faulty.ask(PAIR)
        assert second == first
        assert faulty.counts["duplicate"] == 1
        # Duplicates are delivered (and billed) answers.
        assert faulty.answers_delivered == 2

    def test_duplicate_needs_a_previous_submission(self):
        faulty = make(FaultSpec(duplicate_rate=1.0))
        answer = faulty.ask(OTHER)
        assert answer.pair == OTHER
        assert faulty.counts["duplicate"] == 0

    def test_random_spammer_burst_counts_and_delivers(self):
        spec = FaultSpec(spammer_rate=1.0, spammer_burst=3)
        faulty = make(spec)
        answers = drive(faulty, 3)
        assert faulty.counts["spammer"] == 3
        assert faulty.answers_delivered == 3
        assert all(a.worker_id < 0 for a in answers)

    def test_adversarial_spam_inverts_truth(self):
        spec = FaultSpec(spammer_rate=1.0, spammer_burst=10,
                         adversarial_spam=True)
        faulty = make(spec)
        # PAIR is a true match: the adversary always answers False.
        answers = drive(faulty, 5)
        assert all(a.label is False for a in answers)

    def test_spam_burst_is_finite(self):
        spec = FaultSpec(spammer_rate=0.0, spammer_burst=2)
        faulty = make(spec)
        # Force one burst by hand, then confirm it ends.
        faulty._spam_remaining = 2
        drive(faulty, 2)
        assert faulty.counts["spammer"] == 2
        clean = faulty.ask(PAIR)
        assert clean.worker_id >= 0

    def test_observer_sees_every_fault(self):
        seen = []
        faulty = FaultyCrowd(PerfectCrowd(MATCHES),
                             FaultSpec(timeout_rate=1.0),
                             on_fault=lambda kind, pair: seen.append(
                                 (kind, pair)))
        with pytest.raises(AnswerTimeoutError):
            faulty.ask(PAIR)
        assert seen == [("timeout", PAIR)]


class TestHardOutage:
    def test_goes_dark_after_the_scheduled_answer_count(self):
        faulty = make(FaultSpec(hard_outage_after=3))
        drive(faulty, 3)
        assert faulty.answers_delivered == 3
        with pytest.raises(TransientCrowdError):
            faulty.ask(PAIR)
        with pytest.raises(TransientCrowdError):
            faulty.ask(PAIR)

    def test_hard_outage_consumes_no_randomness(self):
        """The kill switch must not perturb the fault streams.

        A run with the switch armed is bit-identical to one without it,
        up to the kill point — the property the chaos resume sweep
        relies on.
        """
        spec = FaultSpec.uniform(0.2)
        plain = make(spec, seed=5)
        armed = make(FaultSpec.uniform(0.2, hard_outage_after=10), seed=5)
        seq_plain, seq_armed = [], []
        while armed.answers_delivered < 10:
            seq_plain.append(drive(plain, 1)[0])
            seq_armed.append(drive(armed, 1)[0])
        assert seq_plain == seq_armed


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        spec = FaultSpec.uniform(0.15)
        a, b = make(spec, seed=42), make(spec, seed=42)
        assert drive(a, 80) == drive(b, 80)
        assert a.counts == b.counts
        assert a.state_dict() == b.state_dict()

    def test_different_seed_different_schedule(self):
        spec = FaultSpec.uniform(0.15)
        a, b = make(spec, seed=1), make(spec, seed=2)
        assert drive(a, 80) != drive(b, 80)

    def test_streams_are_independent(self):
        """Enabling a later-evaluated kind must not shift an earlier one.

        ``ask`` evaluates timeout before expiry, so adding expiry faults
        cannot change how many timeout draws are made — and with
        independent streams it cannot change their values either.
        """
        with_expiry = make(FaultSpec(timeout_rate=0.2, expiry_rate=0.3),
                           seed=7)
        without = make(FaultSpec(timeout_rate=0.2), seed=7)
        drive(with_expiry, 100)
        drive(without, 100)
        assert with_expiry.counts["timeout"] == without.counts["timeout"]

    def test_stream_seeds_differ_by_kind(self):
        seeds = {fault_stream_seed(0, kind).spawn_key
                 for kind in FAULT_KINDS}
        assert len(seeds) == len(FAULT_KINDS)

    def test_seed_sequence_root_accepted(self):
        root = np.random.SeedSequence(123)
        a = make(FaultSpec.uniform(0.2), seed=123)
        b = FaultyCrowd(PerfectCrowd(MATCHES), FaultSpec.uniform(0.2),
                        seed=root)
        assert drive(a, 40) == drive(b, 40)


class TestStateRoundtrip:
    def test_state_is_json_and_resumes_identically(self):
        spec = FaultSpec.uniform(0.2)
        original = make(spec, seed=9)
        drive(original, 60)
        state = json.loads(json.dumps(stack_state(original)))

        restored = make(spec, seed=9)
        load_stack_state(restored, state)
        assert stack_state(restored) == stack_state(original)
        assert drive(restored, 40) == drive(original, 40)

    def test_state_recurses_into_the_inner_platform(self):
        spec = FaultSpec()
        faulty = make(spec, seed=0)
        drive(faulty, 5)
        state = stack_state(faulty)
        assert "inner" in state  # PerfectCrowd is stateful (rng + count)
        assert "inner" not in faulty.state_dict()  # its own fields only
