"""Crash/resume: a killed run continues to a bit-identical result.

The sweep kills a checkpointed run at *every* checkpoint boundary —
stage boundaries and mid-matcher-iteration checkpoints alike — by
subscribing a sink that raises on ``checkpoint_written``, then resumes
from the directory and demands the exact golden result (compared as
:func:`repro.persistence.result_report` documents, which cover
predictions, iteration records and the cost snapshot).  Runs on the
restaurants and products synthetic datasets — restaurants a second
time with its crowd under a stateless wrapper, which must not hide the
crowd's answer stream from the checkpoint; a separate test injects
``BudgetExhaustedError`` mid-run and resumes past it.
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
    LocatorConfig,
    MatcherConfig,
)
from repro.core.dedup import Deduplicator
from repro.core.pipeline import Corleone
from repro.crowd.simulated import PerfectCrowd, SimulatedCrowd
from repro.crowd.transcript import TranscriptingPlatform
from repro.engine import EVENT_CHECKPOINT_WRITTEN, load_checkpoint
from repro.exceptions import BudgetExhaustedError
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants


class _Killed(Exception):
    """Raised by the killer sink to simulate a crash at a checkpoint."""


def _killer_sink(surviving_checkpoints: int):
    """A bus sink that raises after ``surviving_checkpoints`` writes.

    The checkpoint file is written *before* the event is emitted, so the
    simulated crash always leaves a complete checkpoint behind — exactly
    the guarantee a real kill between write and return would have.
    """
    seen = [0]

    def sink(event):
        if event.name == EVENT_CHECKPOINT_WRITTEN:
            seen[0] += 1
            if seen[0] > surviving_checkpoints:
                raise _Killed()

    return sink


def _engine_config(max_pipeline_iterations: int, t_b: int) -> CorleoneConfig:
    """A fast full-pipeline configuration for the resume sweeps."""
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


@pytest.fixture(scope="module", params=sorted(_SCENARIOS))
def scenario(request):
    """(name, dataset, config, crowd factory, golden report) per dataset."""
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
    return name, dataset, config, crowd, persistence.result_report(golden)


class TestResumeSweep:
    def test_uninterrupted_checkpointed_run_matches_golden(
            self, scenario, tmp_path):
        """Checkpointing itself must not perturb the run."""
        _, dataset, config, crowd, golden_report = scenario
        run_dir = tmp_path / "run"
        result = Corleone(config, crowd(), seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert persistence.result_report(result) == golden_report

    def test_resume_is_bit_identical_at_every_checkpoint(
            self, scenario, tmp_path):
        """Kill at checkpoint k, resume, compare — for every k.

        Restaurants' noisy crowd sweeps again under a
        :class:`TranscriptingPlatform` (products' perfect crowd answers
        the same whatever its stream state, so it cannot show a lost
        one).
        """
        name, dataset, config, crowd, golden_report = scenario
        stacks = {"plain": crowd}
        if name == "restaurants":
            stacks["transcript"] = lambda: TranscriptingPlatform(crowd())
        for label, stack in stacks.items():
            # First, count the checkpoints of an uninterrupted run.
            probe_dir = tmp_path / f"{label}-probe"
            Corleone(config, stack(), seed=123, run_dir=probe_dir).run(
                dataset.table_a, dataset.table_b, dataset.seed_labels)
            n_checkpoints = load_checkpoint(probe_dir)["index"] + 1
            assert n_checkpoints >= 5  # at least one per stage

            for kill_at in range(n_checkpoints):
                run_dir = tmp_path / f"{label}-kill{kill_at}"
                pipeline = Corleone(config, stack(), seed=123,
                                    run_dir=run_dir)
                pipeline.bus.subscribe(_killer_sink(kill_at))
                with pytest.raises(_Killed):
                    pipeline.run(dataset.table_a, dataset.table_b,
                                 dataset.seed_labels)
                resumed = Corleone.resume(run_dir, stack())
                assert persistence.result_report(resumed) == \
                    golden_report, (
                        f"{label}: resume after checkpoint {kill_at} "
                        f"diverged"
                    )

    def test_resumed_trace_appends_to_the_original(self, scenario,
                                                   tmp_path):
        """The trace survives the crash and grows on resume."""
        from repro.engine.events import read_trace
        _, dataset, config, crowd, _ = scenario
        run_dir = tmp_path / "run"
        pipeline = Corleone(config, crowd(), seed=123, run_dir=run_dir)
        pipeline.bus.subscribe(_killer_sink(2))
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        before = len(read_trace(run_dir / "trace.jsonl"))
        Corleone.resume(run_dir, crowd())
        assert len(read_trace(run_dir / "trace.jsonl")) > before


class TestBudgetExhaustionResume:
    def test_injected_exhaustion_then_resume_reaches_golden(
            self, scenario, tmp_path, monkeypatch):
        """A run aborted by ``BudgetExhaustedError`` resumes to golden.

        The injected error hits on entry to the train-matcher stage —
        after the block-stage checkpoint — so the run returns a graceful
        partial result, and the directory still resumes to the
        uninterrupted result.
        """
        from repro.engine.stages import TrainMatcherStage
        _, dataset, config, crowd, golden_report = scenario
        run_dir = tmp_path / "run"
        original = TrainMatcherStage.run

        def exhausted(self, state, ctx):
            raise BudgetExhaustedError(1.0, 1.0)

        monkeypatch.setattr(TrainMatcherStage, "run", exhausted)
        partial = Corleone(config, crowd(), seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert partial.stop_reason == "budget_exhausted"

        monkeypatch.setattr(TrainMatcherStage, "run", original)
        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == golden_report


class TestDeduplicatorOnTheEngine:
    def test_dedup_run_checkpoints_and_stays_identical(self, tmp_path):
        """The dedup reduction rides the same engine and run layout."""
        from repro.core.dedup import canonical_pair
        from repro.data.table import Record, Table
        from repro.synth.restaurants import RESTAURANT_SCHEMA

        dataset = generate_restaurants(n_a=40, n_b=30, n_matches=12,
                                       seed=13)
        table = Table("dirty", RESTAURANT_SCHEMA)
        for source in (dataset.table_a, dataset.table_b):
            for record in source:
                table.add(Record(f"{source.name}_{record.record_id}",
                                 record.values))
        duplicates = {
            canonical_pair(f"fodors_{pair.a_id}", f"zagat_{pair.b_id}")
            for pair in dataset.matches
        }
        seeds = dict.fromkeys(sorted(duplicates)[:2], True)
        seeds[canonical_pair(table.at(0).record_id,
                             table.at(1).record_id)] = False
        seeds[canonical_pair(table.at(0).record_id,
                             table.at(2).record_id)] = False
        config = _engine_config(max_pipeline_iterations=1, t_b=10_000)

        def crowd():
            return PerfectCrowd(duplicates, rng=np.random.default_rng(2))

        run_dir = tmp_path / "dedup"
        golden = Deduplicator(config, crowd(), seed=9).run(table, seeds)
        checkpointed = Deduplicator(config, crowd(), seed=9,
                                    run_dir=run_dir).run(table, seeds)
        assert (run_dir / "checkpoint.json").is_file()
        assert (run_dir / "trace.jsonl").is_file()
        assert checkpointed.duplicate_pairs == golden.duplicate_pairs
        assert checkpointed.clusters == golden.clusters
