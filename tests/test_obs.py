"""The observability subsystem: registry, spans, exporters, CLI, identity.

Four layers: unit tests for the metric registry and span tracer,
golden tests for the Prometheus text exposition and the ``obs report``
rendering, CLI contract tests for ``python -m repro.obs``, and the
subsystem's headline property — a seeded run, its replay and a
kill/resume at *every* checkpoint all leave byte-identical
``metrics.json`` and ``spans.jsonl`` in the run directory.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

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
from repro.crowd import FaultSpec, FaultyCrowd, ResilientCrowd
from repro.engine.checkpoint import CHECKPOINT_LOG, load_checkpoint
from repro.crowd.service import LabelingService
from repro.crowd.simulated import SimulatedCrowd
from repro.engine.events import (
    EVENT_CHECKPOINT_WRITTEN,
    EVENT_LABELS_PURCHASED,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_STARTED,
)
from repro.exceptions import DataError
from repro.obs import MetricsRegistry, SpanTracer, render_prometheus
from repro.obs import profiling
from repro.obs.__main__ import main as obs_main
from repro.obs.diffing import diff_runs, render_diff
from repro.obs.progress import fold_progress, read_progress
from repro.obs.report import effective_trace, render_report, render_watch
from repro.obs.serve import build_server
from repro.obs.spans import read_spans
from repro.obs.tail import TraceTail
from repro.obs.telemetry import (
    METRICS_FORMAT,
    METRICS_VERSION,
    RunTelemetry,
    build_catalog,
)
from repro.storage.writer import frame_record
from repro.synth.restaurants import generate_restaurants


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        reg.counter("c_total")
        reg.get("c_total").inc()
        reg.get("c_total").inc(4)
        assert reg.snapshot()["c_total"]["series"][0]["value"] == 5
        with pytest.raises(DataError):
            reg.get("c_total").inc(-1)

    def test_labelled_series_are_independent_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label_names=("kind",))
        reg.get("c_total").inc(kind="zz")
        reg.get("c_total").inc(2, kind="aa")
        series = reg.snapshot()["c_total"]["series"]
        assert [s["labels"]["kind"] for s in series] == ["aa", "zz"]
        assert [s["value"] for s in series] == [2, 1]

    def test_wrong_label_set_rejected(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label_names=("kind",))
        with pytest.raises(DataError):
            reg.get("c_total").inc(flavour="x")

    def test_histogram_buckets_render_cumulatively(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 5.0))
        for value in (0.5, 3.0, 99.0):
            reg.get("h").observe(value)
        series = reg.snapshot()["h"]["series"][0]
        assert series["buckets"] == [
            {"le": "1", "count": 1},
            {"le": "5", "count": 2},
            {"le": "+Inf", "count": 3},
        ]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(102.5)

    def test_reregistering_same_kind_returns_family(self):
        reg = MetricsRegistry()
        family = reg.gauge("g")
        assert reg.gauge("g") is family
        with pytest.raises(DataError):
            reg.counter("g")

    def test_unknown_metric_errors(self):
        with pytest.raises(DataError):
            MetricsRegistry().get("nope")

    def test_state_round_trip_preserves_snapshot(self):
        reg = MetricsRegistry()
        build_catalog(reg)
        reg.get("corleone_labels_purchased_total").inc(3, strong="true")
        reg.get("corleone_best_f1").set(0.91)
        reg.get("corleone_entropy_pool_size").observe(40)
        state = json.loads(json.dumps(reg.state_dict()))  # JSON round trip

        other = MetricsRegistry()
        build_catalog(other)
        other.get("corleone_checkpoints_total").inc(99)  # must be reset
        other.load_state(state)
        assert other.snapshot() == reg.snapshot()

    def test_load_state_rejects_unknown_metrics(self):
        reg = MetricsRegistry()
        build_catalog(reg)
        with pytest.raises(DataError):
            reg.load_state({"not_in_catalog": [[[], 1]]})


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------


class _TickClock:
    """A fake simulated clock advancing 1.5s per read."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        self._now += 1.5
        return self._now


class TestSpanTracer:
    def test_nesting_assigns_parents(self):
        tracer = SpanTracer()
        root = tracer.start("run", mode="full")
        stage = tracer.start("stage", stage="block")
        tracer.end(stage)
        tracer.end(root)
        spans = {span["name"]: span for span in tracer.completed}
        assert spans["run"]["parent"] is None
        assert spans["stage"]["parent"] == spans["run"]["id"]

    def test_end_enforces_innermost(self):
        tracer = SpanTracer()
        root = tracer.start("run")
        tracer.start("stage")
        with pytest.raises(DataError):
            tracer.end(root)

    def test_durations_come_from_the_clock(self):
        tracer = SpanTracer(clock=_TickClock())
        with tracer.span("stage", stage="block"):
            pass
        (span,) = tracer.completed
        assert span["start_time"] == pytest.approx(1.5)
        assert span["end_time"] == pytest.approx(3.0)
        assert span["duration"] == pytest.approx(1.5)

    def test_close_all_open_unwinds_in_order(self):
        tracer = SpanTracer()
        tracer.start("run")
        tracer.start("stage")
        tracer.close_all_open()
        assert [span["name"] for span in tracer.completed] == \
            ["stage", "run"]
        assert tracer.open_depth == 0

    def test_state_round_trip_preserves_open_spans(self):
        tracer = SpanTracer()
        tracer.start("run")
        stage = tracer.start("stage", stage="train_matcher")
        state = json.loads(json.dumps(tracer.state_dict()))

        other = SpanTracer()
        other.load_state(state)
        assert other.open_depth == 2
        assert other.innermost_open["attrs"] == {"stage": "train_matcher"}
        assert other.lines() == []
        other.end(stage)  # the restored id is still the innermost
        assert [json.loads(line)["id"] for line in other.lines()] == [stage]


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------


class TestProfiling:
    def test_inactive_section_is_a_pass_through(self):
        with profiling.profile_section("anything"):
            pass  # must not raise, must not need a profiler

    def test_active_profiler_accumulates(self):
        profiler = profiling.Profiler()
        profiling.activate(profiler)
        try:
            with profiling.profile_section("s"):
                pass
            with profiling.profile_section("s"):
                pass
        finally:
            profiling.deactivate(profiler)
        document = profiler.to_dict()
        assert document["deterministic"] is False
        assert document["sections"]["s"]["calls"] == 2


# ----------------------------------------------------------------------
# Golden: Prometheus text exposition
# ----------------------------------------------------------------------

_PROMETHEUS_GOLDEN = """\
# HELP demo_gauge Level.
# TYPE demo_gauge gauge
demo_gauge 2.5
# HELP demo_seconds Durations.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="1"} 1
demo_seconds_bucket{le="5"} 2
demo_seconds_bucket{le="+Inf"} 3
demo_seconds_sum 102.5
demo_seconds_count 3
# HELP demo_total Things counted.
# TYPE demo_total counter
demo_total{kind="a"} 2
demo_total{kind="b"} 3
"""


class TestPrometheusExposition:
    def test_golden(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", "Things counted.", label_names=("kind",))
        reg.gauge("demo_gauge", "Level.")
        reg.histogram("demo_seconds", (1.0, 5.0), "Durations.")
        reg.get("demo_total").inc(kind="a")
        reg.get("demo_total").inc(kind="a")
        reg.get("demo_total").inc(3, kind="b")
        reg.get("demo_gauge").set(2.5)
        for value in (0.5, 3.0, 99.0):
            reg.get("demo_seconds").observe(value)
        assert render_prometheus(reg.snapshot()) == _PROMETHEUS_GOLDEN

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label_names=("kind",))
        reg.get("c_total").inc(kind='a"b\\c')
        rendered = render_prometheus(reg.snapshot())
        assert 'c_total{kind="a\\"b\\\\c"} 1' in rendered

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""


# ----------------------------------------------------------------------
# Golden: obs report
# ----------------------------------------------------------------------


def _write_fixture_run(run_dir: Path) -> None:
    """A hand-written run directory exercising every report section."""
    run_dir.mkdir(parents=True, exist_ok=True)
    reg = MetricsRegistry()
    build_catalog(reg)
    reg.get("corleone_budget_dollars").set(10.0)
    reg.get("corleone_dollars_spent_total").inc(2.4)
    reg.get("corleone_answers_total").inc(24)
    reg.get("corleone_labels_purchased_total").inc(7, strong="true")
    reg.get("corleone_labels_purchased_total").inc(1, strong="false")
    reg.get("corleone_hits_posted_total").inc(9)
    reg.get("corleone_hits_reposted_total").inc(1)
    reg.get("corleone_faults_injected_total").inc(2, kind="timeout")
    reg.get("corleone_retries_scheduled_total").inc(2, kind="timeout")
    (run_dir / "metrics.json").write_text(json.dumps(
        {"format": METRICS_FORMAT, "version": METRICS_VERSION,
         "metrics": reg.snapshot()}, indent=2, sort_keys=True))

    trace = [
        {"event": "stage_started", "sequence": 0, "stage": "block",
         "iteration": 0},
        {"event": "labels_purchased", "sequence": 1, "labels": 1,
         "strong": 0, "answers": 4, "dollars": 0.4, "hits": 1,
         "pairs_labeled": 1, "total_answers": 4, "total_dollars": 0.4},
        {"event": "fault_injected", "sequence": 2, "kind": "timeout"},
        {"event": "stage_finished", "sequence": 3, "stage": "block",
         "next_stage": "train_matcher", "dollars": 0.4},
        {"event": "stage_started", "sequence": 4, "stage": "train_matcher",
         "iteration": 0},
        {"event": "labels_purchased", "sequence": 5, "labels": 4,
         "strong": 4, "answers": 12, "dollars": 1.2, "hits": 4,
         "pairs_labeled": 5, "total_answers": 16, "total_dollars": 1.6},
        {"event": "labels_purchased", "sequence": 6, "labels": 3,
         "strong": 3, "answers": 8, "dollars": 0.8, "hits": 4,
         "pairs_labeled": 8, "total_answers": 24, "total_dollars": 2.4},
        {"event": "stage_finished", "sequence": 7, "stage": "train_matcher",
         "next_stage": None, "dollars": 2.4},
    ]
    (run_dir / "trace.jsonl").write_text(
        "".join(json.dumps(event, sort_keys=True) + "\n"
                for event in trace))

    spans = [
        {"id": 1, "parent": 0, "name": "stage",
         "attrs": {"stage": "block", "iteration": 0},
         "start_time": 0.0, "end_time": 12.5, "duration": 12.5},
        {"id": 3, "parent": 2, "name": "matcher_iteration",
         "attrs": {"iteration": 0, "al_step": 1},
         "start_time": 12.5, "end_time": 20.0, "duration": 7.5},
        {"id": 4, "parent": 2, "name": "matcher_iteration",
         "attrs": {"iteration": 0, "al_step": 2},
         "start_time": 20.0, "end_time": 30.0, "duration": 10.0},
        {"id": 2, "parent": 0, "name": "stage",
         "attrs": {"stage": "train_matcher", "iteration": 0},
         "start_time": 12.5, "end_time": 32.5, "duration": 20.0},
        {"id": 0, "parent": None, "name": "run",
         "attrs": {"mode": "full"},
         "start_time": 0.0, "end_time": 32.5, "duration": 32.5},
    ]
    (run_dir / "spans.jsonl").write_text(
        "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans))

    (run_dir / "profile.json").write_text(json.dumps({
        "format": "corleone-profile", "deterministic": False,
        "note": "wall-clock", "sections": {
            "forest.train_forest": {"calls": 12, "seconds": 0.345678}}},
        indent=2, sort_keys=True))
    (run_dir / CHECKPOINT_LOG).write_bytes(frame_record(json.dumps({
        "index": 3, "state": {"mode": "full", "stop_reason": "converged",
                              "iteration": 2}}).encode()))


_REPORT_GOLDEN = """\
Corleone run report — golden_run
mode: full | stop: converged | iterations: 2 | checkpoints: 4

stages
stage          runs  labels  dollars  faults  sim_s
-------------  ----  ------  -------  ------  -----
block             1       1     0.40       1   12.5
train_matcher     1       7     2.00       0   20.0

budget burn
  spent $2.40 of $10.00 (24.0%) | answers 24 | labels bought 8 \
| HITs 9 (1 reposted)

faults and retries
what   kind     count
-----  -------  -----
fault  timeout      2
retry  timeout      2

matcher iterations
iteration  al_steps  sim_s
---------  --------  -----
0                 2   17.5

wall-clock profile (non-deterministic)
section              calls  seconds
-------------------  -----  -------
forest.train_forest     12    0.346
"""


class TestObsReport:
    def test_golden(self, tmp_path):
        run_dir = tmp_path / "golden_run"
        _write_fixture_run(run_dir)
        assert render_report(run_dir) == _REPORT_GOLDEN

    def test_effective_trace_last_occurrence_wins(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"event": "stage_started", "sequence": 0,
                        "stage": "killed_version"}) + "\n"
            + json.dumps({"event": "stage_started", "sequence": 0,
                          "stage": "resumed_version"}) + "\n")
        (event,) = effective_trace(path)
        assert event["stage"] == "resumed_version"

    def test_empty_run_dir_still_renders(self, tmp_path):
        text = render_report(tmp_path)
        assert "budget burn" in text  # degrades, never crashes


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------


class TestObsCli:
    def test_report_command(self, tmp_path, capsys):
        run_dir = tmp_path / "golden_run"
        _write_fixture_run(run_dir)
        assert obs_main(["report", str(run_dir)]) == 0
        assert capsys.readouterr().out == _REPORT_GOLDEN

    def test_prom_command(self, tmp_path, capsys):
        run_dir = tmp_path / "golden_run"
        _write_fixture_run(run_dir)
        assert obs_main(["prom", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE corleone_dollars_spent_total counter" in out
        assert "corleone_dollars_spent_total 2.4" in out

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope")]) == 2
        assert obs_main(["prom", str(tmp_path)]) == 2  # no metrics.json


# ----------------------------------------------------------------------
# The headline property: byte-identical telemetry across kill/resume
# ----------------------------------------------------------------------


def _identity_config() -> CorleoneConfig:
    return CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=1500, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=12),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )


class _Killed(Exception):
    """Raised by the killer sink to simulate a crash at a checkpoint."""


def _killer_sink(surviving_checkpoints: int):
    seen = [0]

    def sink(event):
        if event.name == EVENT_CHECKPOINT_WRITTEN:
            seen[0] += 1
            if seen[0] > surviving_checkpoints:
                raise _Killed()

    return sink


def _telemetry_bytes(run_dir: Path) -> tuple[bytes, bytes]:
    return ((run_dir / "metrics.json").read_bytes(),
            (run_dir / "spans.jsonl").read_bytes())


@pytest.fixture(scope="module")
def identity_scenario(tmp_path_factory):
    """Dataset, config, crowd factory and one golden checkpointed run."""
    dataset = generate_restaurants(n_a=60, n_b=40, n_matches=15, seed=7)
    config = _identity_config()

    def crowd():
        return SimulatedCrowd(dataset.matches, error_rate=0.05,
                              rng=np.random.default_rng(11))

    golden_dir = tmp_path_factory.mktemp("obs_identity") / "golden"
    Corleone(config, crowd(), seed=123, run_dir=golden_dir).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    return dataset, config, crowd, golden_dir


def _kill_sweep(scenario, root: Path) -> list[tuple[Path, Path]]:
    """A scenario killed at each of its golden run's checkpoints in
    turn: per kill, a copy of the directory as the kill left it and the
    directory itself, resumed to the end."""
    dataset, config, crowd, golden_dir = scenario
    n_checkpoints = load_checkpoint(golden_dir)["index"] + 1
    sweep = []
    for kill_at in range(n_checkpoints):
        run_dir = root / f"kill{kill_at}"
        pipeline = Corleone(config, crowd(), seed=123, run_dir=run_dir)
        pipeline.bus.subscribe(_killer_sink(kill_at))
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        killed = shutil.copytree(run_dir, root / f"killed{kill_at}")
        Corleone.resume(run_dir, crowd())
        sweep.append((killed, run_dir))
    return sweep


@pytest.fixture(scope="module")
def kill_resume_sweep(identity_scenario, tmp_path_factory):
    """The identity scenario's kill sweep (:func:`_kill_sweep`)."""
    return _kill_sweep(identity_scenario,
                       tmp_path_factory.mktemp("obs_kills"))


def _assert_resumed_progress_is_golden(scenario, sweep) -> None:
    """Each resumed directory's progress equals the uninterrupted
    run's on every key but ``sequence`` (a resume renumbers the events
    after its checkpoint)."""
    golden = read_progress(scenario[3])
    assert golden["finished"] is True
    assert golden["checkpoints"] == load_checkpoint(scenario[3])["index"] + 1
    del golden["sequence"]
    for kill_at, (_, run_dir) in enumerate(sweep):
        resumed = read_progress(run_dir)
        del resumed["sequence"]
        assert resumed == golden, (
            f"progress diverged after a kill at checkpoint {kill_at}")


def _assert_killed_progress_counts_the_log(sweep) -> None:
    """A killed, unresumed directory counts every record its log holds
    (the kill lands after the record's fsync, before its trace event)
    and is finished only once the final stage has finished."""
    for kill_at, (killed, _) in enumerate(sweep):
        progress = read_progress(killed)
        assert progress["checkpoints"] == \
            load_checkpoint(killed)["index"] + 1 == kill_at + 1
        # The last checkpoint follows the final stage_finished event.
        assert progress["finished"] is (kill_at == len(sweep) - 1), kill_at


class TestTelemetryByteIdentity:
    def test_run_dir_has_all_telemetry_artifacts(self, identity_scenario):
        _, _, _, golden_dir = identity_scenario
        for name in ("metrics.json", "spans.jsonl", "profile.json"):
            assert (golden_dir / name).is_file(), name
        document = json.loads((golden_dir / "metrics.json").read_text())
        assert document["format"] == METRICS_FORMAT
        metrics = document["metrics"]
        stages = {s["labels"]["stage"]: s["value"]
                  for s in metrics["corleone_stage_runs_total"]["series"]}
        assert stages["block"] == 1
        assert stages["train_matcher"] >= 1
        assert metrics["corleone_checkpoints_total"]["series"][0]["value"] \
            == load_checkpoint(golden_dir)["index"] + 1
        assert metrics["corleone_trees_trained_total"]["series"][0][
            "value"] > 0

    def test_spans_form_a_rooted_tree(self, identity_scenario):
        from repro.obs import read_spans
        _, _, _, golden_dir = identity_scenario
        spans = read_spans(golden_dir / "spans.jsonl")
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert [root["name"] for root in roots] == ["run"]
        for span in spans:
            if span["parent"] is not None:
                assert span["parent"] in by_id
            assert span["duration"] >= 0

    def test_replay_is_byte_identical(self, identity_scenario, tmp_path):
        dataset, config, crowd, golden_dir = identity_scenario
        replay_dir = tmp_path / "replay"
        Corleone(config, crowd(), seed=123, run_dir=replay_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert _telemetry_bytes(replay_dir) == _telemetry_bytes(golden_dir)

    def test_kill_resume_is_byte_identical_at_every_checkpoint(
            self, identity_scenario, kill_resume_sweep):
        golden = _telemetry_bytes(identity_scenario[3])
        assert len(kill_resume_sweep) >= 5
        for kill_at, (_, run_dir) in enumerate(kill_resume_sweep):
            assert _telemetry_bytes(run_dir) == golden, (
                f"telemetry diverged after a kill at checkpoint {kill_at}"
            )

    def test_resumed_progress_reports_the_whole_run(
            self, identity_scenario, kill_resume_sweep):
        _assert_resumed_progress_is_golden(identity_scenario,
                                           kill_resume_sweep)

    def test_killed_progress_counts_the_log(self, identity_scenario,
                                            kill_resume_sweep):
        _assert_killed_progress_counts_the_log(kill_resume_sweep)

    def test_report_smoke_on_a_real_run_dir(self, identity_scenario,
                                            capsys):
        _, _, _, golden_dir = identity_scenario
        assert obs_main(["report", str(golden_dir)]) == 0
        out = capsys.readouterr().out
        assert "stages" in out and "budget burn" in out
        assert "matcher iterations" in out
        assert "wall-clock profile" in out

    def test_telemetry_can_be_disabled(self, tmp_path):
        dataset = generate_restaurants(n_a=30, n_b=20, n_matches=8, seed=7)
        config = _identity_config()
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.0,
                               rng=np.random.default_rng(11))
        run_dir = tmp_path / "untelemetered"
        pipeline = Corleone(config, crowd, seed=123, run_dir=run_dir,
                            telemetry=False)
        pipeline.run(dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert pipeline.context.telemetry is None
        assert not (run_dir / "metrics.json").exists()
        assert not (run_dir / "spans.jsonl").exists()
        assert (run_dir / CHECKPOINT_LOG).is_file()


# ----------------------------------------------------------------------
# Telemetry object plumbing
# ----------------------------------------------------------------------


class TestSpendCountersMatchTheLedger:
    def test_counters_equal_the_ledger_when_hits_are_reposted(
            self, monkeypatch):
        dataset = generate_restaurants(n_a=60, n_b=40, n_matches=15,
                                       seed=7)
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                               rng=np.random.default_rng(11))
        faulty = FaultyCrowd(crowd, FaultSpec(expiry_rate=0.1), seed=77)
        gateway = ResilientCrowd(
            faulty, GatewayConfig(failure_threshold=20))
        bought = [0]
        label_one = LabelingService._label_one

        def counting_label_one(self, pair, scheme, served):
            label = label_one(self, pair, scheme, served)
            bought[0] += 1
            return label

        monkeypatch.setattr(LabelingService, "_label_one",
                            counting_label_one)
        pipeline = Corleone(_identity_config(), gateway, seed=123)
        pipeline.run(dataset.table_a, dataset.table_b, dataset.seed_labels)

        tracker = pipeline.tracker
        metrics = pipeline.context.telemetry.registry.snapshot()

        def value(name):
            return sum(series["value"]
                       for series in metrics[name]["series"])

        assert faulty.counts["expiry"] > 0
        assert value("corleone_hits_reposted_total") > 0
        assert value("corleone_answers_total") == tracker.answers
        assert value("corleone_hits_posted_total") == tracker.hits
        assert abs(value("corleone_dollars_spent_total")
                   - tracker.dollars) <= 1e-9
        assert value("corleone_labels_purchased_total") == bought[0]


class TestRunTelemetry:
    def test_stage_span_adopted_after_mid_stage_restore(self):
        telemetry = RunTelemetry()
        telemetry.open_run_span("full")
        first = telemetry.start_stage_span("train_matcher", 0)
        state = telemetry.state_dict()

        restored = RunTelemetry()
        restored.load_state(state)
        adopted = restored.start_stage_span("train_matcher", 1)
        assert adopted == first  # reused, not restarted
        runs = restored.registry.get("corleone_stage_runs_total")
        assert runs.labels(stage="train_matcher").value == 1

    def test_fresh_stage_span_counts_a_run(self):
        telemetry = RunTelemetry()
        telemetry.open_run_span("full")
        span_id = telemetry.start_stage_span("block", 0)
        telemetry.tracer.end(span_id)
        second = telemetry.start_stage_span("block", 1)
        assert second != span_id
        runs = telemetry.registry.get("corleone_stage_runs_total")
        assert runs.labels(stage="block").value == 2

    def test_checkpoint_counts_ride_inside_the_checkpoint(self):
        telemetry = RunTelemetry()
        telemetry.record_checkpoint()
        state = telemetry.state_dict()
        restored = RunTelemetry()
        restored.load_state(state)
        counter = restored.registry.get("corleone_checkpoints_total")
        assert counter.labels().value == 1


# ----------------------------------------------------------------------
# Sharded workers: per-worker telemetry + the same identity contract
# ----------------------------------------------------------------------


def _sharded_identity_config() -> CorleoneConfig:
    config = _identity_config()
    blocker = dataclasses.replace(config.blocker, n_workers=4)
    return dataclasses.replace(config, blocker=blocker)


@pytest.fixture(scope="module")
def sharded_identity_scenario(tmp_path_factory):
    """The identity scenario re-run through the 4-worker sharded path."""
    dataset = generate_restaurants(n_a=60, n_b=40, n_matches=15, seed=7)
    config = _sharded_identity_config()

    def crowd():
        return SimulatedCrowd(dataset.matches, error_rate=0.05,
                              rng=np.random.default_rng(11))

    golden_dir = tmp_path_factory.mktemp("obs_sharded") / "golden"
    Corleone(config, crowd(), seed=123, run_dir=golden_dir).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    return dataset, config, crowd, golden_dir


@pytest.fixture(scope="module")
def sharded_kill_resume_sweep(sharded_identity_scenario, tmp_path_factory):
    """The 4-worker scenario's kill sweep (:func:`_kill_sweep`)."""
    return _kill_sweep(sharded_identity_scenario,
                       tmp_path_factory.mktemp("obs_sharded_kills"))


class TestShardedWorkerTelemetry:
    """Worker-labelled telemetry from a real ``n_workers=4`` run."""

    def test_profile_has_per_worker_blocker_sections(
            self, sharded_identity_scenario):
        _, _, _, golden_dir = sharded_identity_scenario
        document = json.loads((golden_dir / "profile.json").read_text())
        sections = document["sections"]
        worker_sections = [name for name in sections
                           if name.startswith("worker")
                           and ".blocker." in name]
        assert worker_sections, sorted(sections)
        slots = {int(name.split(".")[0].removeprefix("worker"))
                 for name in worker_sections}
        assert slots <= set(range(4))
        assert len(slots) > 1  # the work really spread across slots
        for name in worker_sections:
            assert sections[name]["calls"] >= 1
            assert sections[name]["seconds"] >= 0.0

    def test_metrics_carry_worker_and_shard_labels(
            self, sharded_identity_scenario):
        _, _, _, golden_dir = sharded_identity_scenario
        metrics = json.loads(
            (golden_dir / "metrics.json").read_text())["metrics"]
        completed = metrics["corleone_worker_shards_completed_total"]
        assert completed["label_names"] == ["worker"]
        total = sum(s["value"] for s in completed["series"])
        assert total >= 4  # at least one shard per configured worker

        scanned = metrics["corleone_worker_shard_pairs_scanned_total"]
        assert scanned["label_names"] == ["worker", "shard"]
        assert scanned["series"], "no per-shard scan series"
        for series in scanned["series"]:
            shard = int(series["labels"]["shard"])
            worker = int(series["labels"]["worker"])
            assert worker == shard % 4  # the deterministic slot rule
        # Every scanned pair is accounted for exactly once across shards.
        assert sum(s["value"] for s in scanned["series"]) % (60 * 40) == 0

    def test_shard_spans_recorded_with_worker_attr(
            self, sharded_identity_scenario):
        _, _, _, golden_dir = sharded_identity_scenario
        spans = read_spans(golden_dir / "spans.jsonl")
        shard_spans = [s for s in spans if s["name"] == "shard"]
        assert shard_spans
        for span in shard_spans:
            assert span["attrs"]["worker"] == span["attrs"]["shard"] % 4
            assert "cached" not in span["attrs"]  # resume-variant attr

    def test_replay_is_byte_identical(self, sharded_identity_scenario,
                                      tmp_path):
        dataset, config, crowd, golden_dir = sharded_identity_scenario
        replay_dir = tmp_path / "replay"
        Corleone(config, crowd(), seed=123, run_dir=replay_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert _telemetry_bytes(replay_dir) == _telemetry_bytes(golden_dir)

    def test_kill_resume_is_byte_identical_at_every_checkpoint(
            self, sharded_identity_scenario, sharded_kill_resume_sweep):
        golden = _telemetry_bytes(sharded_identity_scenario[3])
        assert len(sharded_kill_resume_sweep) >= 5
        for kill_at, (_, run_dir) in enumerate(sharded_kill_resume_sweep):
            assert _telemetry_bytes(run_dir) == golden, (
                f"sharded telemetry diverged after a kill at "
                f"checkpoint {kill_at}"
            )

    def test_resumed_progress_reports_the_whole_run(
            self, sharded_identity_scenario, sharded_kill_resume_sweep):
        _assert_resumed_progress_is_golden(sharded_identity_scenario,
                                           sharded_kill_resume_sweep)

    def test_killed_progress_counts_the_log(self,
                                            sharded_kill_resume_sweep):
        _assert_killed_progress_counts_the_log(sharded_kill_resume_sweep)

    def test_progress_heartbeat_written_and_finished(
            self, sharded_identity_scenario):
        _, _, _, golden_dir = sharded_identity_scenario
        progress = read_progress(golden_dir)
        assert progress is not None
        assert progress["format"] == "corleone-progress"
        assert progress["finished"] is True
        assert progress["stage"] is None
        assert progress["checkpoints"] == \
            load_checkpoint(golden_dir)["index"] + 1
        assert progress["shards"]["completed"] \
            == progress["shards"]["started"] > 0
        assert progress["dollars_spent"] > 0


# ----------------------------------------------------------------------
# Torn-tail tolerance: read_spans and effective_trace
# ----------------------------------------------------------------------


class TestTornTails:
    def test_read_spans_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = {"id": 0, "parent": None, "name": "run", "attrs": {},
                "start_time": 0.0, "end_time": 1.0, "duration": 1.0}
        path.write_text(json.dumps(good) + "\n" + '{"id": 1, "par')
        spans = read_spans(path)
        assert [span["id"] for span in spans] == [0]

    def test_read_spans_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = {"id": 0, "parent": None, "name": "run", "attrs": {},
                "start_time": 0.0, "end_time": 1.0, "duration": 1.0}
        path.write_text('{"torn":' + "\n" + json.dumps(good) + "\n")
        with pytest.raises(DataError, match="not a torn tail"):
            read_spans(path)

    def test_effective_trace_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"event": "stage_started", "sequence": 0,
                        "stage": "block"}) + "\n"
            + '{"event": "stage_fin')
        (event,) = effective_trace(path)
        assert event["sequence"] == 0

    def test_effective_trace_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event": "broken"' + "\n"
            + json.dumps({"event": "stage_started", "sequence": 0}) + "\n")
        with pytest.raises(DataError, match="not a torn tail"):
            effective_trace(path)


# ----------------------------------------------------------------------
# Prometheus exposition edge cases
# ----------------------------------------------------------------------


class TestPrometheusEdgeCases:
    def test_empty_family_renders_headers_only(self):
        reg = MetricsRegistry()
        reg.counter("quiet_total", "Never incremented.",
                    label_names=("kind",))
        rendered = render_prometheus(reg.snapshot())
        assert rendered == ("# HELP quiet_total Never incremented.\n"
                            "# TYPE quiet_total counter\n")

    def test_newline_in_label_value_is_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", label_names=("kind",))
        reg.get("c_total").inc(kind="a\nb")
        rendered = render_prometheus(reg.snapshot())
        assert 'c_total{kind="a\\nb"} 1' in rendered
        assert "\na\n" not in rendered  # no raw newline leaks

    def test_labelled_histogram_buckets_carry_labels_and_inf(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", (2.0,), label_names=("stage",))
        reg.get("h_seconds").observe(1.0, stage="block")
        reg.get("h_seconds").observe(9.0, stage="block")
        rendered = render_prometheus(reg.snapshot())
        assert 'h_seconds_bucket{stage="block",le="2"} 1' in rendered
        assert 'h_seconds_bucket{stage="block",le="+Inf"} 2' in rendered
        assert 'h_seconds_sum{stage="block"} 10' in rendered
        assert 'h_seconds_count{stage="block"} 2' in rendered


# ----------------------------------------------------------------------
# Incremental trace tailing
# ----------------------------------------------------------------------


class TestTraceTail:
    def test_missing_file_polls_empty(self, tmp_path):
        tail = TraceTail(tmp_path / "trace.jsonl")
        assert tail.poll() == []
        assert tail.effective() == []

    def test_partial_final_line_buffers_until_complete(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail(path)
        first = json.dumps({"event": "a", "sequence": 0})
        second = json.dumps({"event": "b", "sequence": 1})
        path.write_text(first + "\n" + second[:7])
        records = tail.poll()
        assert [r["sequence"] for r in records] == [0]
        # The writer completes the torn line; the tail stitches it.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(second[7:] + "\n")
        records = tail.poll()
        assert [r["sequence"] for r in records] == [1]
        assert tail.invalid_lines == 0

    def test_rotation_resets_to_the_new_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail(path)
        path.write_text(
            json.dumps({"event": "old", "sequence": 0}) + "\n"
            + json.dumps({"event": "old", "sequence": 1}) + "\n")
        tail.poll()
        # A fresh run reuses the directory with a shorter trace.
        path.write_text(json.dumps({"event": "new", "sequence": 0}) + "\n")
        records = tail.poll()
        assert tail.rotations == 1
        assert [r["event"] for r in records] == ["new"]
        assert [r["event"] for r in tail.effective()] == ["new"]

    def test_duplicate_sequences_latest_wins(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail(path)
        path.write_text(
            json.dumps({"event": "killed", "sequence": 5}) + "\n")
        tail.poll()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"event": "resumed", "sequence": 5}) + "\n")
        tail.poll()
        (record,) = tail.effective()
        assert record["event"] == "resumed"

    def test_invalid_complete_lines_are_counted_and_skipped(self,
                                                           tmp_path):
        path = tmp_path / "trace.jsonl"
        tail = TraceTail(path)
        path.write_text(
            "not json at all\n"
            + json.dumps({"event": "no_sequence"}) + "\n"
            + json.dumps({"event": "ok", "sequence": 2}) + "\n")
        records = tail.poll()
        assert [r["sequence"] for r in records] == [2]
        assert tail.invalid_lines == 2


# ----------------------------------------------------------------------
# Progress view: folded from the trace, the log and run.json
# ----------------------------------------------------------------------


def _trace(events: list[tuple[str, dict]]) -> list[dict]:
    """Trace records of ``(event name, payload)`` pairs, numbered."""
    return [{"event": name, "sequence": sequence, **payload}
            for sequence, (name, payload) in enumerate(events)]


def _write_trace(run_dir: Path, records: list[dict]) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "trace.jsonl").write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n"
                for record in records))


def _write_budget(run_dir: Path, budget: float) -> None:
    """The one ``run.json`` field the progress view reads."""
    (run_dir / "run.json").write_text(
        json.dumps({"config": {"budget": budget}}))


def _first_purchase(answers: int, dollars: float) -> dict:
    """The ``labels_purchased`` payload of a run's first paid call,
    which bought one label."""
    return {"labels": 1, "strong": 1, "answers": answers,
            "dollars": dollars, "hits": 1, "pairs_labeled": 1,
            "total_answers": answers, "total_dollars": dollars}


class TestProgressHeartbeat:
    """The progress fold over trace records, and its reader."""

    def test_event_folding_and_round_trip(self, tmp_path):
        _write_trace(tmp_path, _trace([
            (EVENT_STAGE_STARTED, {"stage": "block", "iteration": 0}),
            (EVENT_SHARD_STARTED, {"shard": 0}),
            (EVENT_SHARD_STARTED, {"shard": 1}),
            (EVENT_SHARD_COMPLETED, {"shard": 0}),
            (EVENT_SHARD_COMPLETED, {"shard": 1}),
            (EVENT_LABELS_PURCHASED, _first_purchase(answers=4,
                                                     dollars=0.4)),
            (EVENT_CHECKPOINT_WRITTEN, {"index": 0, "stage": "block"}),
        ]))
        (tmp_path / CHECKPOINT_LOG).write_bytes(frame_record(b"{}"))
        _write_budget(tmp_path, 10.0)
        document = read_progress(tmp_path)
        assert document is not None
        assert document["stage"] == "block"
        assert document["finished"] is False
        assert document["checkpoints"] == 1
        assert document["shards"] == {"started": 2, "completed": 2}
        assert document["pairs_labeled"] == 1
        assert document["answers"] == 4
        assert document["dollars_spent"] == pytest.approx(0.4)
        assert document["budget_remaining"] == pytest.approx(9.6)
        assert document["sequence"] == 6

    def test_resumed_shard_events_do_not_double_count(self):
        document = fold_progress(_trace([
            (EVENT_SHARD_COMPLETED, {"shard": 3}),
            (EVENT_SHARD_COMPLETED, {"shard": 3}),  # resume re-emission
        ]))
        assert document["shards"]["completed"] == 1

    def test_stage_finished_dollars_are_authoritative(self):
        document = fold_progress(_trace([
            (EVENT_LABELS_PURCHASED, _first_purchase(answers=4,
                                                     dollars=0.4)),
            (EVENT_STAGE_FINISHED, {"stage": "block", "dollars": 2.4,
                                    "next_stage": None}),
        ]), budget=10.0)
        assert document["finished"] is True
        assert document["stage"] is None
        assert document["dollars_spent"] == pytest.approx(2.4)
        assert document["budget_remaining"] == pytest.approx(7.6)

    def test_read_progress_absent_or_damaged_is_none(self, tmp_path):
        assert read_progress(tmp_path) is None
        records = _trace([
            (EVENT_STAGE_STARTED, {"stage": "block", "iteration": 0}),
            (EVENT_STAGE_FINISHED, {"stage": "block", "dollars": 0.0,
                                    "next_stage": None}),
        ])
        _write_trace(tmp_path, records[:1])
        # A torn final line (a write the crash cut short) is not read.
        with open(tmp_path / "trace.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(records[1])[:20])
        document = read_progress(tmp_path)
        assert document["stage"] == "block"
        assert document["finished"] is False
        assert document["sequence"] == 0
        assert document["budget"] is None  # no run.json yet


# ----------------------------------------------------------------------
# The run monitor endpoint
# ----------------------------------------------------------------------


def _http_get(server, path: str) -> tuple[int, str]:
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


@pytest.fixture()
def monitor(tmp_path):
    """A fixture run directory served on an ephemeral port."""
    run_dir = tmp_path / "served_run"
    _write_fixture_run(run_dir)
    _write_budget(run_dir, 10.0)
    server = build_server(run_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield run_dir, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestRunMonitor:
    def test_metrics_endpoint_matches_offline_rendering(self, monitor):
        run_dir, server = monitor
        status, body = _http_get(server, "/metrics")
        assert status == 200
        document = json.loads((run_dir / "metrics.json").read_text())
        assert body == render_prometheus(document["metrics"])

    def test_metrics_404_before_first_checkpoint(self, tmp_path):
        server = build_server(tmp_path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _ = _http_get(server, "/metrics")
            assert status == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_metrics_503_on_damaged_document(self, monitor):
        run_dir, server = monitor
        (run_dir / "metrics.json").write_text("{ damaged")
        status, _ = _http_get(server, "/metrics")
        assert status == 503

    def test_progress_endpoint_serves_the_heartbeat(self, monitor):
        run_dir, server = monitor
        status, body = _http_get(server, "/progress")
        assert status == 200
        document = json.loads(body)
        assert document["format"] == "corleone-progress"
        assert document["budget"] == 10.0
        assert document == read_progress(run_dir)

    def test_trace_endpoint_filters_by_sequence(self, monitor):
        _, server = monitor
        status, body = _http_get(server, "/trace")
        assert status == 200
        events = json.loads(body)
        assert [e["sequence"] for e in events] == list(range(8))
        status, body = _http_get(server, "/trace?after=5")
        assert [e["sequence"] for e in json.loads(body)] == [6, 7]

    def test_trace_sees_appended_events_across_requests(self, monitor):
        run_dir, server = monitor
        _http_get(server, "/trace")
        with open(run_dir / "trace.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"event": "fault_injected", "sequence": 8,
                 "kind": "late"}) + "\n")
        _, body = _http_get(server, "/trace?after=7")
        (event,) = json.loads(body)
        assert event["kind"] == "late"

    def test_trace_rejects_non_integer_after(self, monitor):
        _, server = monitor
        status, _ = _http_get(server, "/trace?after=soon")
        assert status == 400

    def test_unknown_path_is_404(self, monitor):
        _, server = monitor
        status, body = _http_get(server, "/nope")
        assert status == 404
        assert "/metrics" in body


# ----------------------------------------------------------------------
# Cross-run diffing
# ----------------------------------------------------------------------


class TestRunDiffing:
    def test_identical_runs_diff_empty(self, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        _write_fixture_run(run_a)
        _write_fixture_run(run_b)
        diff = diff_runs(run_a, run_b)
        assert diff == {"metrics": [], "stages": []}
        assert "no differences" in render_diff(diff, run_a, run_b)

    def test_metric_and_stage_deltas_are_reported(self, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        _write_fixture_run(run_a)
        _write_fixture_run(run_b)
        # Perturb run B: bump one counter series, drop another, and
        # stretch one stage span.
        document = json.loads((run_b / "metrics.json").read_text())
        metrics = document["metrics"]
        for series in metrics["corleone_labels_purchased_total"]["series"]:
            if series["labels"]["strong"] == "true":
                series["value"] = 9
        metrics["corleone_hits_reposted_total"]["series"] = []
        (run_b / "metrics.json").write_text(json.dumps(document))
        spans = read_spans(run_b / "spans.jsonl")
        for span in spans:
            if span["attrs"].get("stage") == "block":
                span["duration"] = 99.0
        (run_b / "spans.jsonl").write_text(
            "".join(json.dumps(span, sort_keys=True) + "\n"
                    for span in spans))

        diff = diff_runs(run_a, run_b)
        by_family = {(d["family"], tuple(sorted(d["labels"].items()))): d
                     for d in diff["metrics"]}
        changed = by_family[("corleone_labels_purchased_total",
                             (("strong", "true"),))]
        assert changed["a"] == {"value": 7}
        assert changed["b"] == {"value": 9}
        dropped = by_family[("corleone_hits_reposted_total", ())]
        assert dropped["a"] == {"value": 1}
        assert dropped["b"] is None
        (stage,) = diff["stages"]
        assert stage["stage"] == "block"
        assert stage["a"] == pytest.approx(12.5)
        assert stage["b"] == pytest.approx(99.0)

        rendered = render_diff(diff, run_a, run_b)
        assert "corleone_labels_purchased_total{strong=true}" in rendered
        assert "(absent)" in rendered
        assert "block: A=12.500s  B=99.000s" in rendered

    def test_cli_exit_codes(self, tmp_path, capsys):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        _write_fixture_run(run_a)
        _write_fixture_run(run_b)
        assert obs_main(["diff", str(run_a), str(run_b)]) == 0
        assert "no differences" in capsys.readouterr().out

        document = json.loads((run_b / "metrics.json").read_text())
        document["metrics"]["corleone_answers_total"]["series"][0][
            "value"] = 999
        (run_b / "metrics.json").write_text(json.dumps(document))
        assert obs_main(["diff", str(run_a), str(run_b)]) == 1
        assert "corleone_answers_total" in capsys.readouterr().out

        assert obs_main(["diff", str(run_a),
                         str(tmp_path / "missing")]) == 2


# ----------------------------------------------------------------------
# Watch frames and the in-flight report banner
# ----------------------------------------------------------------------


class TestWatchAndInFlightReport:
    def test_watch_frame_without_progress(self):
        frame = render_watch(None, [])
        assert "waiting for trace.jsonl" in frame

    def test_watch_frame_with_progress_and_events(self, tmp_path):
        _write_trace(tmp_path, _trace([
            (EVENT_STAGE_STARTED, {"stage": "block", "iteration": 0}),
            (EVENT_SHARD_STARTED, {"shard": 0}),
            (EVENT_SHARD_COMPLETED, {"shard": 0}),
        ]))
        _write_budget(tmp_path, 10.0)
        events = [{"event": "stage_started", "sequence": 0,
                   "stage": "block"},
                  {"event": "shard_completed", "sequence": 1, "shard": 0}]
        frame = render_watch(read_progress(tmp_path), events, recent=1)
        assert "stage block" in frame
        assert "shards 1/1" in frame
        assert "events seen: 2" in frame
        assert "#1 shard_completed" in frame
        assert "#0 stage_started" not in frame  # recent=1 keeps the tail

    def test_report_marks_an_in_flight_run(self, tmp_path):
        run_dir = tmp_path / "inflight"
        _write_fixture_run(run_dir)
        _write_budget(run_dir, 10.0)
        # Cut the trace before the final stage_finished.
        trace = run_dir / "trace.jsonl"
        trace.write_text("".join(trace.read_text().splitlines(True)[:-1]))
        text = render_report(run_dir)
        assert "IN FLIGHT" in text
        assert "stage: train_matcher" in text
        assert "budget burn" in text  # the rest still renders

    def test_report_on_a_finished_run_has_no_banner(self, tmp_path):
        run_dir = tmp_path / "finished"
        _write_fixture_run(run_dir)
        _write_budget(run_dir, 10.0)
        assert read_progress(run_dir)["finished"] is True
        assert "IN FLIGHT" not in render_report(run_dir)
