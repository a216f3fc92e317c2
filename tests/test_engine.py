"""Unit tests for the staged engine: bus, sinks, context, checkpoints."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import persistence
from repro.config import CorleoneConfig
from repro.core.budgeting import BudgetPlan
from repro.core.pipeline import Corleone
from repro.crowd.service import VoteScheme
from repro.crowd.simulated import PerfectCrowd, SimulatedCrowd
from repro.data.pairs import CandidateSet, Pair
from repro.engine import (
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_LABELS_PURCHASED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
    Event,
    EventBus,
    JsonlTraceSink,
    ProgressReporter,
    RNG_STREAMS,
    RunContext,
    RunState,
    Stage,
    build_stages,
    load_checkpoint,
    load_run_inputs,
)
from repro.engine.events import read_trace
from repro.exceptions import DataError


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------


class TestEventBus:
    def test_sequence_is_monotonic(self):
        bus = EventBus()
        events = [bus.emit("stage_started", stage="block") for _ in range(3)]
        assert [event.sequence for event in events] == [0, 1, 2]
        assert bus.events_emitted == 3

    def test_sinks_receive_in_subscribe_order(self):
        bus = EventBus()
        seen: list[tuple[str, int]] = []
        bus.subscribe(lambda event: seen.append(("first", event.sequence)))
        bus.subscribe(lambda event: seen.append(("second", event.sequence)))
        bus.emit("stage_started")
        assert seen == [("first", 0), ("second", 0)]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen: list[Event] = []
        sink = bus.subscribe(seen.append)
        bus.emit("stage_started")
        bus.unsubscribe(sink)
        bus.emit("stage_finished")
        assert len(seen) == 1

    def test_raising_sink_aborts_emit(self):
        bus = EventBus()
        late: list[Event] = []

        def bomb(event):
            raise RuntimeError("kill")

        bus.subscribe(bomb)
        bus.subscribe(late.append)
        with pytest.raises(RuntimeError):
            bus.emit("checkpoint_written")
        assert late == []
        # The sequence number is consumed even on an aborted emit.
        assert bus.events_emitted == 1

    def test_restore_sequence(self):
        bus = EventBus()
        bus.restore_sequence(41)
        assert bus.emit("stage_started").sequence == 41


class TestTraceSink:
    def test_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        sink = bus.subscribe(JsonlTraceSink(path))
        bus.emit("stage_started", stage="block", iteration=0)
        bus.emit("labels_purchased", labels=10, strong=2, answers=24,
                 dollars=0.24, hits=1, pairs_labeled=10,
                 total_answers=24, total_dollars=0.24)
        sink.close()
        events = read_trace(path)
        assert [event.name for event in events] == [
            "stage_started", "labels_purchased",
        ]
        assert events[0].payload == {"stage": "block", "iteration": 0}
        assert events[1].payload["labels"] == 10
        assert [event.sequence for event in events] == [0, 1]


class TestProgressReporter:
    def test_aggregates_labels_into_stage_line(self):
        lines: list[str] = []
        bus = EventBus()
        bus.subscribe(ProgressReporter(write=lines.append))
        bus.emit(EVENT_STAGE_STARTED, stage="train_matcher", iteration=1)
        bus.emit(EVENT_LABELS_PURCHASED, labels=10, strong=1, answers=22,
                 dollars=0.22, hits=1, pairs_labeled=10,
                 total_answers=22, total_dollars=0.22)
        bus.emit(EVENT_LABELS_PURCHASED, labels=2, strong=2, answers=8,
                 dollars=0.08, hits=1, pairs_labeled=12,
                 total_answers=30, total_dollars=0.3)
        bus.emit(EVENT_STAGE_FINISHED, stage="train_matcher", iteration=1,
                 next_stage="estimate", dollars=0.3)
        bus.emit(EVENT_CHECKPOINT_WRITTEN, index=3, stage="estimate",
                 iteration=1)
        assert len(lines) == 3
        assert "train_matcher" in lines[0]
        assert "12 labels purchased" in lines[1]
        assert "#3" in lines[2]


# ----------------------------------------------------------------------
# RunContext streams
# ----------------------------------------------------------------------


def _context(fast_config: CorleoneConfig, seed=123) -> RunContext:
    """A fresh context over a trivial perfect crowd."""
    crowd = PerfectCrowd(frozenset(), rng=np.random.default_rng(0))
    return RunContext(fast_config, crowd, seed=seed)


class TestRunContextStreams:
    def test_streams_are_memoized(self, fast_config):
        ctx = _context(fast_config)
        assert ctx.rng("matcher") is ctx.rng("matcher")

    def test_streams_differ_pairwise(self, fast_config):
        ctx = _context(fast_config)
        draws = {
            name: tuple(ctx.rng(name).random(4)) for name in RNG_STREAMS
        }
        values = list(draws.values())
        assert len(set(values)) == len(values)

    def test_access_order_does_not_matter(self, fast_config):
        forward = _context(fast_config)
        backward = _context(fast_config)
        first = {name: forward.rng(name).random(4) for name in RNG_STREAMS}
        for name in reversed(RNG_STREAMS):
            backward.rng(name)
        second = {name: backward.rng(name).random(4)
                  for name in RNG_STREAMS}
        for name in RNG_STREAMS:
            np.testing.assert_array_equal(first[name], second[name])

    def test_generator_backcompat_matches_integer_seed(self, fast_config):
        by_seed = _context(fast_config, seed=77)
        by_rng = RunContext(fast_config,
                            PerfectCrowd(frozenset(),
                                         rng=np.random.default_rng(0)),
                            rng=np.random.default_rng(77))
        np.testing.assert_array_equal(by_seed.rng("matcher").random(4),
                                      by_rng.rng("matcher").random(4))

    def test_unregistered_names_are_deterministic(self, fast_config):
        one = _context(fast_config)
        two = _context(fast_config)
        np.testing.assert_array_equal(one.rng("shuffler").random(4),
                                      two.rng("shuffler").random(4))

    def test_rng_states_round_trip_mid_stream(self, fast_config):
        ctx = _context(fast_config)
        ctx.rng("matcher").random(3)
        states = json.loads(json.dumps(ctx.rng_states()))
        expected = ctx.rng("matcher").random(5)
        fresh = _context(fast_config)
        fresh.restore_rng_states(states)
        np.testing.assert_array_equal(fresh.rng("matcher").random(5),
                                      expected)


# ----------------------------------------------------------------------
# Label cache round trip (vote strengths survive checkpoints)
# ----------------------------------------------------------------------


class TestServiceCacheRoundTrip:
    def test_cache_rows_preserve_labels_strength_and_order(
            self, tiny_dataset, fast_config):
        crowd = SimulatedCrowd(tiny_dataset.matches, error_rate=0.1,
                               rng=np.random.default_rng(3))
        ctx = RunContext(fast_config, crowd, seed=5)
        ctx.service.seed(tiny_dataset.seed_labels)
        pairs = sorted(tiny_dataset.matches)[:4]
        ctx.service.label_batch(pairs, scheme=VoteScheme.MAJORITY_2PLUS1)

        rows = json.loads(json.dumps(ctx.service.cache_state()))
        restored_ctx = RunContext(fast_config, crowd, seed=5)
        restored_ctx.service.restore_cache(rows)

        # Insertion order is part of the resume contract.
        assert restored_ctx.service.cache_state() == ctx.service.cache_state()
        pairs = list(ctx.service.labeled_pairs())
        cached = CandidateSet(pairs, np.zeros((len(pairs), 1)), ["f"])
        for scheme in (VoteScheme.MAJORITY_2PLUS1, VoteScheme.ASYMMETRIC):
            np.testing.assert_array_equal(
                restored_ctx.service.known_rows(cached, scheme),
                ctx.service.known_rows(cached, scheme))


# ----------------------------------------------------------------------
# Stage protocol
# ----------------------------------------------------------------------


class TestStageProtocol:
    def test_all_built_stages_satisfy_the_protocol(self):
        stages = build_stages()
        assert [stage.name for stage in stages] == [
            "block", "train_matcher", "estimate", "locate_difficult",
            "reduce",
        ]
        for stage in stages:
            assert isinstance(stage, Stage)

    def test_phases_map_to_budget_phases(self):
        phases = [stage.phase for stage in build_stages()]
        assert phases == ["blocking", "matching", "estimation",
                          "reduction", None]


# ----------------------------------------------------------------------
# Run directory artifacts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpointed_run(tmp_path_factory):
    """One checkpointed one_iteration run plus its run directory."""
    from repro.synth.restaurants import generate_restaurants
    from repro.config import (
        BlockerConfig, EstimatorConfig, ForestConfig, LocatorConfig,
        MatcherConfig,
    )
    dataset = generate_restaurants(n_a=60, n_b=40, n_matches=16, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=3000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=25),
        estimator=EstimatorConfig(probe_size=25, max_probes=40),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )
    run_dir = tmp_path_factory.mktemp("engine") / "run"
    crowd = PerfectCrowd(dataset.matches, rng=np.random.default_rng(5))
    plan = BudgetPlan.from_total(50.0)
    pipeline = Corleone(config, crowd, seed=123, run_dir=run_dir)
    result = pipeline.run(dataset.table_a, dataset.table_b,
                          dataset.seed_labels, mode="one_iteration",
                          budget_plan=plan)
    return dataset, config, plan, run_dir, result


class TestRunDirectory:
    def test_layout(self, checkpointed_run):
        _, _, _, run_dir, _ = checkpointed_run
        for name in ("run.json", "checkpoint.jsonl", "trace.jsonl"):
            assert (run_dir / name).is_file(), name
        # The umbrella set is rebuilt on resume, never written.
        assert not (run_dir / "candidates.npz").exists()

    def test_run_inputs_round_trip(self, checkpointed_run):
        dataset, config, plan, run_dir, _ = checkpointed_run
        inputs = load_run_inputs(run_dir)
        assert inputs["mode"] == "one_iteration"
        assert (persistence.config_to_dict(inputs["config"])
                == persistence.config_to_dict(config))
        assert inputs["seed_labels"] == dataset.seed_labels
        assert inputs["root_seed"].entropy == 123
        assert (persistence.budget_plan_to_dict(inputs["budget_plan"])
                == persistence.budget_plan_to_dict(plan))
        restored_a = inputs["table_a"]
        assert restored_a.name == dataset.table_a.name
        assert len(restored_a) == len(dataset.table_a)
        assert [r.record_id for r in restored_a] == [
            r.record_id for r in dataset.table_a
        ]

    def test_checkpoint_document_shape(self, checkpointed_run):
        _, _, _, run_dir, _ = checkpointed_run
        checkpoint = load_checkpoint(run_dir)
        assert checkpoint is not None
        for key in ("index", "sequence", "state", "service_cache",
                    "tracker", "manager", "platform", "rng"):
            assert key in checkpoint, key
        assert checkpoint["manager"] is not None
        assert set(checkpoint["rng"]) <= set(RNG_STREAMS)
        # The state stores what cannot be recomputed, each fact once:
        # the umbrella pairs follow from the tables and the applied
        # rules, and the working set, ensemble and kept result are
        # read off the records.
        assert set(checkpoint["state"]) == {
            "mode", "seed_labels", "next_stage", "iteration", "blocker",
            "iterations", "best_iteration", "stop_reason", "matcher_state",
        }
        assert "candidate_pairs" not in checkpoint["state"]["blocker"]

    def test_run_state_dict_round_trip(self, checkpointed_run):
        _, _, _, run_dir, result = checkpointed_run
        checkpoint = load_checkpoint(run_dir)
        state = RunState.from_dict(checkpoint["state"], result.candidates)
        assert state.to_dict() == checkpoint["state"]

    def test_trace_matches_event_schema(self, checkpointed_run):
        _, _, _, run_dir, _ = checkpointed_run
        events = read_trace(run_dir / "trace.jsonl")
        assert events, "trace must not be empty"
        sequences = [event.sequence for event in events]
        assert sequences == sorted(sequences)
        names = {event.name for event in events}
        assert {"stage_started", "stage_finished", "labels_purchased",
                "checkpoint_written"} <= names
        assert "budget_spent" not in names
        started = [e for e in events if e.name == "stage_started"]
        assert started[0].payload["stage"] == "block"

    def test_purchase_events_add_up_to_the_ledger(self, checkpointed_run):
        _, _, _, run_dir, result = checkpointed_run
        events = read_trace(run_dir / "trace.jsonl")
        calls = [event.payload for event in events
                 if event.name == "labels_purchased"]
        assert calls
        for call in calls:
            assert set(call) == {
                "labels", "strong", "answers", "dollars", "hits",
                "pairs_labeled", "total_answers", "total_dollars"}
            assert call["answers"] > 0
            assert 0 <= call["strong"] <= call["labels"]
        assert sum(call["answers"] for call in calls) == result.cost.answers
        assert sum(call["hits"] for call in calls) == result.cost.hits
        assert [call["total_answers"] for call in calls] == list(
            np.cumsum([call["answers"] for call in calls]))
        last = calls[-1]
        assert (last["pairs_labeled"], last["total_answers"],
                last["total_dollars"]) == (
            result.cost.pairs_labeled, result.cost.answers,
            round(result.cost.dollars, 10))

    def test_iteration_record_round_trip(self, checkpointed_run):
        _, _, _, run_dir, result = checkpointed_run
        record = result.iterations[0]
        data = json.loads(json.dumps(
            persistence.iteration_record_to_dict(record)))
        restored = persistence.iteration_record_from_dict(data)
        assert restored.predicted_pairs == record.predicted_pairs
        assert restored.matcher.stop_reason == record.matcher.stop_reason
        assert restored.matcher.labeled_rows == record.matcher.labeled_rows
        np.testing.assert_array_equal(restored.matcher.predictions,
                                      record.matcher.predictions)
        assert restored.estimate.f1 == record.estimate.f1

    def test_resume_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(DataError):
            Corleone.resume(tmp_path, PerfectCrowd(frozenset()))
