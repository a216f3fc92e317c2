"""Crash/resume: a killed run continues to a bit-identical result.

The sweep kills a checkpointed run at *every* checkpoint boundary —
stage boundaries and mid-matcher-iteration checkpoints alike — by
subscribing a sink that raises on ``checkpoint_written``, then resumes
from the directory and demands the exact golden result (compared as
:func:`repro.persistence.result_report` documents, which cover
predictions, iteration records and the cost snapshot).  Runs on the
restaurants and products synthetic datasets — restaurants a second
time with its crowd under a stateless wrapper, which must not hide the
crowd's answer stream from the checkpoint — and on a products run that
iterates twice, so the sweep also kills at the reduce boundary and
inside the second matcher; a separate test injects
``BudgetExhaustedError`` mid-run and resumes past it.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import shutil

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
from repro.engine import (
    CHECKPOINT_LOG,
    EVENT_CHECKPOINT_WRITTEN,
    Checkpointer,
    load_checkpoint,
)
from repro.engine.events import read_trace
from repro.exceptions import BudgetExhaustedError, DataError
from repro.storage.recovery import read_records, verify_artifact
from repro.storage.writer import frame_record, load_manifest
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


def _assert_same_telemetry(run_dir, golden_dir) -> None:
    """The resumed run's metric snapshot and span tree are the
    uninterrupted run's, byte for byte."""
    for name in ("metrics.json", "spans.jsonl"):
        assert (run_dir / name).read_bytes() == \
            (golden_dir / name).read_bytes(), name


def _engine_config(max_pipeline_iterations: int, t_b: int,
                   min_difficult_pairs: int = 30) -> CorleoneConfig:
    """A fast full-pipeline configuration for the resume sweeps."""
    return CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=t_b, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=12),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=min_difficult_pairs),
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
    # Two iterations, then no_improvement: the kept result is iteration
    # 1, and the sweep kills at the checkpoint just before ``reduce``.
    "products-iterating": (
        lambda: generate_products(n_a=60, n_b=40, n_matches=15, seed=17),
        _engine_config(max_pipeline_iterations=2, t_b=1500,
                       min_difficult_pairs=5),
        0.05,
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
            if len(golden_report["iterations"]) > 1:
                next_stages = [
                    event.payload["stage"]
                    for event in read_trace(probe_dir / "trace.jsonl")
                    if event.name == EVENT_CHECKPOINT_WRITTEN
                ]
                assert "reduce" in next_stages

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
                _assert_same_telemetry(run_dir, probe_dir)

    def test_resumed_trace_appends_to_the_original(self, scenario,
                                                   tmp_path):
        """The trace survives the crash and grows on resume."""
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


class TestResumeTwice:
    def test_a_resumed_log_resumes_again_bit_identically(
            self, tmp_path, monkeypatch):
        """A resumed run's first record restates the whole state; a
        second crash and resume must fold across it."""
        make_dataset, config, error_rate = _SCENARIOS["products-iterating"]
        dataset = make_dataset()

        def crowd():
            return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                                  rng=np.random.default_rng(11))

        golden = persistence.result_report(Corleone(
            config, crowd(), seed=123).run(
                dataset.table_a, dataset.table_b, dataset.seed_labels))
        run_dir = tmp_path / "run"
        pipeline = Corleone(config, crowd(), seed=123, run_dir=run_dir)
        pipeline.bus.subscribe(_killer_sink(3))
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        original = Checkpointer.write
        written = [0]

        def killing_write(self, state, ctx):
            index = original(self, state, ctx)
            written[0] += 1
            if written[0] == 5:
                raise _Killed()
            return index

        monkeypatch.setattr(Checkpointer, "write", killing_write)
        with pytest.raises(_Killed):
            Corleone.resume(run_dir, crowd())
        monkeypatch.setattr(Checkpointer, "write", original)
        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == golden
        records, _ = read_records(run_dir / CHECKPOINT_LOG)
        indices = [record["index"] for record in records]
        assert indices == list(range(len(records)))
        # Each writer's first record restates the cache from row 0.
        starts = [record["tails"]["cache"]["from"] for record in records]
        assert [i for i, start in enumerate(starts) if start == 0] == [
            0, 4, 9]


class TestCandidateRebuild:
    """No run writes its umbrella set: a resume rebuilds it from
    ``run.json``, the logged rules and the shard files (a bit-flipped
    shard file is ``tests/test_storage_chaos.py``'s case)."""

    @pytest.fixture(scope="class")
    def blocked(self, tmp_path_factory):
        """(dataset, config, crowd factory, golden report, golden dir)
        of an uninterrupted durable run whose blocker applied rules."""
        make_dataset, config, error_rate = _SCENARIOS["restaurants"]
        dataset = make_dataset()

        def crowd():
            return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                                  rng=np.random.default_rng(11))

        golden_dir = tmp_path_factory.mktemp("rebuild") / "golden"
        golden = Corleone(config, crowd(), seed=123,
                          run_dir=golden_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert golden.blocker.applied_rules
        return (dataset, config, crowd, persistence.result_report(golden),
                golden_dir)

    def _killed_after_blocking(self, blocked, run_dir):
        dataset, config, crowd, _, _ = blocked
        pipeline = Corleone(config, crowd(), seed=123, run_dir=run_dir)
        pipeline.bus.subscribe(_killer_sink(0))
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        assert load_checkpoint(run_dir)["state"]["blocker"] is not None

    def _resume_matches_golden(self, blocked, run_dir) -> None:
        _, _, crowd, golden_report, golden_dir = blocked
        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == golden_report
        _assert_same_telemetry(run_dir, golden_dir)

    def test_finished_run_writes_no_candidate_file(self, blocked):
        golden_dir = blocked[4]
        assert not (golden_dir / "candidates.npz").exists()
        assert list((golden_dir / "shards").glob("shard-*.npz"))
        manifest = load_manifest(golden_dir)
        assert "candidates.npz" not in manifest
        assert all(verify_artifact(golden_dir, golden_dir / key,
                                   manifest)[0] is True
                   for key in manifest)

    def test_deleted_shards_are_recomputed(self, blocked, tmp_path):
        run_dir = tmp_path / "run"
        self._killed_after_blocking(blocked, run_dir)
        shutil.rmtree(run_dir / "shards")
        self._resume_matches_golden(blocked, run_dir)
        assert list((run_dir / "shards").glob("shard-*.npz"))

    def test_stray_candidate_file_is_never_opened(self, blocked, tmp_path,
                                                  monkeypatch):
        """A directory an older version wrote keeps its candidates.npz;
        a resume neither needs nor reads it, even when it is corrupt."""
        run_dir = tmp_path / "run"
        self._killed_after_blocking(blocked, run_dir)
        stray = run_dir / "candidates.npz"
        stray.write_bytes(b"PK\x03\x04 not an archive")
        opened = []

        def recording(real):
            def wrapper(file, *args, **kwargs):
                if str(file).endswith("candidates.npz"):
                    opened.append(file)
                return real(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(io, "open", recording(io.open))
        monkeypatch.setattr(os, "open", recording(os.open))
        self._resume_matches_golden(blocked, run_dir)
        assert opened == []
        assert stray.read_bytes() == b"PK\x03\x04 not an archive"


class TestCheckpointLogCost:
    """What a checkpoint writes: each fact once, one fsync per record."""

    def _run(self, run_dir):
        make_dataset, config, error_rate = _SCENARIOS["restaurants"]
        dataset = make_dataset()
        crowd = SimulatedCrowd(dataset.matches, error_rate=error_rate,
                               rng=np.random.default_rng(11))
        return Corleone(config, crowd, seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

    def test_no_record_repeats_a_forest_or_cache_row(self, tmp_path):
        self._run(tmp_path / "run")
        records, _ = read_records(tmp_path / "run" / CHECKPOINT_LOG)
        forests = [json.dumps(forest) for record in records
                   for forest in record["tails"]["forests"]["items"]]
        rows = [tuple(row) for record in records
                for row in record["tails"]["cache"]["items"]]
        assert len(records) >= 5 and len(forests) >= 2 and rows
        assert len(set(forests)) == len(forests)
        assert len(set(rows)) == len(rows)
        # Later mentions of a forest are its number, never the document.
        for record in records:
            for _, fields in record["iterations"]["changed"]:
                if "matcher" in fields:
                    assert isinstance(fields["matcher"]["forest"], int)
            if record["matcher_state"] is not None:
                assert all(isinstance(number, int) for number in
                           record["tails"]["matcher_forests"]["items"])

    def test_matcher_step_checkpoint_fsyncs_once(self, tmp_path,
                                                 monkeypatch):
        import os

        fsyncs = [0]
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs[0] += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        original = Checkpointer.write
        per_step: list[int] = []

        def counting_write(self, state, ctx):
            before = fsyncs[0]
            index = original(self, state, ctx)
            if state.matcher_state is not None:
                per_step.append(fsyncs[0] - before)
            return index

        monkeypatch.setattr(Checkpointer, "write", counting_write)
        self._run(tmp_path / "run")
        assert per_step and max(per_step) <= 1


def test_relative_run_dir_resumes(tmp_path, monkeypatch):
    """A relative ``run_dir`` names one directory under the working
    directory: no nested copy, manifest keys relative to it, and a
    resume from it reproduces the uninterrupted run."""
    make_dataset, config, error_rate = _SCENARIOS["restaurants"]
    dataset = make_dataset()

    def crowd():
        return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                              rng=np.random.default_rng(11))

    golden = Corleone(config, crowd(), seed=123).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    monkeypatch.chdir(tmp_path)
    pipeline = Corleone(config, crowd(), seed=123, run_dir="run")
    pipeline.bus.subscribe(_killer_sink(3))
    with pytest.raises(_Killed):
        pipeline.run(dataset.table_a, dataset.table_b, dataset.seed_labels)
    resumed = Corleone.resume("run", crowd())

    assert not (tmp_path / "run" / "run").exists()
    manifest = load_manifest(tmp_path / "run")
    assert {"run.json", CHECKPOINT_LOG, "metrics.json",
            "spans.jsonl"} <= set(manifest)
    assert not any(key.startswith("run/") for key in manifest)
    assert persistence.result_report(resumed) == \
        persistence.result_report(golden)


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
        assert (run_dir / CHECKPOINT_LOG).is_file()
        assert (run_dir / "trace.jsonl").is_file()
        assert checkpointed.duplicate_pairs == golden.duplicate_pairs
        assert checkpointed.clusters == golden.clusters


def _parent_format(document):
    """Rewrite a checkpoint record's state in the older, duplicating
    layout.

    That layout stored the working set, the ensemble, the certified
    rules and the kept result beside the iteration records, and had no
    ``best_iteration``.
    """
    state = document["state"]
    del state["best_iteration"]
    state.update(max_rounds=2, working_rows=[], pending_difficult_rows=[],
                 predictions_by_pair=[], certified=[], best_f1=-1.0,
                 best_predictions=[], best_estimate=None)


class TestUnreadableCheckpoint:
    @pytest.mark.parametrize("edit, key", [
        (_parent_format, "best_iteration"),
        (lambda document: document.pop("tracker"), "tracker"),
    ], ids=["parent-format-state", "no-tracker"])
    def test_resume_names_the_file_and_the_key(self, tmp_path, edit, key):
        """A checkpoint that verifies but lacks a key fails typed."""
        make_dataset, config, error_rate = _SCENARIOS["restaurants"]
        dataset = make_dataset()

        def crowd():
            return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                                  rng=np.random.default_rng(11))

        run_dir = tmp_path / "run"
        pipeline = Corleone(config, crowd(), seed=123, run_dir=run_dir)
        pipeline.bus.subscribe(_killer_sink(2))
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        # Edit and re-frame every record of the log, so each record
        # still verifies and no fallback to an older one can mask the
        # gap.
        log = run_dir / CHECKPOINT_LOG
        records, _ = read_records(log)
        for record in records:
            edit(record)
        log.write_bytes(b"".join(frame_record(json.dumps(record).encode())
                                 for record in records))
        with pytest.raises(DataError, match=rf"checkpoint\.jsonl.*'{key}'"):
            Corleone.resume(run_dir, crowd())
