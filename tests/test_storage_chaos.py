"""Crash-consistency harness: write-site × fault-kind over full runs.

The disk-side sibling of ``tests/test_chaos.py``: full Corleone runs on
the restaurants and products scenarios with a
:class:`~repro.storage.faults.StorageFaultInjector` armed against one
write site at a time.  The contract under test is the storage
subsystem's end-to-end promise:

* a simulated crash at *any* hook point of *any* run-dir artifact write
  (torn tmp file, crash before the atomic replace, crash after it; a
  torn checkpoint-log append, a crash before its fsync, after it)
  leaves a directory ``Corleone.resume`` drives to a result
  bit-identical to the uninterrupted run, with every delivered answer
  charged exactly once;
* bit rot at rest in a ``checkpoint.jsonl`` record is detected by the
  record's own checksum, the log is cut there and the tail
  quarantined, surfaced as ``artifact_corrupt`` /
  ``artifact_quarantined`` / ``checkpoint_fallback`` trace events, and
  the run recovers from the newest good record;
* bit rot in a blocking shard file is caught by the shard store's
  manifest: the file is quarantined and recomputed when the resume
  rebuilds the umbrella set, which no run writes;
* unrecoverable corruption (``run.json`` — written once, no generation
  chain) raises a typed :class:`~repro.exceptions.DataError` naming the
  file and checksums;
* stale ``.tmp`` litter is swept and a torn trace tail is repaired (and
  recorded as a ``trace_torn_tail`` event) on resume.

``ENOSPC`` is the one non-crash fault: the write fails with a real
``OSError`` the caller sees, and the directory stays resumable.
"""

from __future__ import annotations

import errno

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
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_ARTIFACT_WRITTEN,
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_TRACE_TORN,
)
from repro.engine.checkpoint import CHECKPOINT_LOG, RUN_FILE, TRACE_FILE
from repro.engine.events import read_trace
from repro.exceptions import DataError
from repro.storage import (
    QUARANTINE_DIR,
    SimulatedCrashError,
    StorageFaultInjector,
    file_sha256,
    load_manifest,
    verify_artifact,
)
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants

STORAGE_SEED = 29
"""Root seed for every storage fault injector in the sweep."""


def _engine_config(t_b: int) -> CorleoneConfig:
    """A fast full-pipeline configuration for the crash sweeps."""
    return CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=t_b, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=12),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=1,
        seed=0,
    )


_SCENARIOS = {
    "restaurants": (
        lambda: generate_restaurants(n_a=60, n_b=40, n_matches=15, seed=7),
        _engine_config(t_b=1500),
        0.05,
    ),
    "products": (
        lambda: generate_products(n_a=40, n_b=120, n_matches=18, seed=17),
        _engine_config(t_b=3000),
        0.0,
    ),
}


def accounted_stack(crowd):
    """A transparent gateway stack that still counts deliveries.

    Zero injected crowd faults — this harness breaks the *disk*, not
    the crowd — but routing through :class:`FaultyCrowd` gives the
    ``answers_delivered`` counter the charged==delivered assertions
    need, and the gateway carries checkpointable state so a resume
    fast-forwards it.
    """
    faulty = FaultyCrowd(crowd, FaultSpec(), seed=3)
    gateway = ResilientCrowd(
        faulty, GatewayConfig(failure_threshold=20))
    return gateway, faulty


@pytest.fixture(scope="module", params=sorted(_SCENARIOS))
def scenario(request):
    """(name, dataset, config, crowd factory, golden report) per set."""
    name = request.param
    make_dataset, config, error_rate = _SCENARIOS[name]
    dataset = make_dataset()

    def crowd():
        if error_rate:
            return SimulatedCrowd(dataset.matches, error_rate=error_rate,
                                  rng=np.random.default_rng(11))
        return PerfectCrowd(dataset.matches, rng=np.random.default_rng(11))

    gateway, _ = accounted_stack(crowd())
    golden = Corleone(config, gateway, seed=123).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    return (name, dataset, config, crowd,
            persistence.result_report(golden))


def _crash_run(scenario, run_dir, site: str, kind: str,
               skip: int) -> StorageFaultInjector:
    """Run the pipeline into an armed storage fault; assert it fired."""
    _, dataset, config, crowd, _ = scenario
    gateway, _ = accounted_stack(crowd())
    injector = StorageFaultInjector(seed=STORAGE_SEED)
    injector.arm(kind, site, skip=skip)
    with injector, pytest.raises(SimulatedCrashError) as excinfo:
        Corleone(config, gateway, seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
    assert excinfo.value.kind == kind
    assert site in excinfo.value.path.name
    assert injector.counts[kind] == 1
    return injector


def _resume_and_check(scenario, run_dir) -> list:
    """Resume the crashed directory; assert bit-identity + accounting.

    Returns the resumed run's full trace for event assertions.
    """
    _, dataset, config, crowd, golden_report = scenario
    gateway, faulty = accounted_stack(crowd())
    resumed = Corleone.resume(run_dir, gateway)
    assert persistence.result_report(resumed) == golden_report
    assert resumed.cost.answers == faulty.answers_delivered
    manifest = load_manifest(run_dir)
    unverified = [key for key in sorted(manifest)
                  if not verify_artifact(run_dir, run_dir / key,
                                         manifest)[0]]
    assert unverified == []
    return read_trace(run_dir / TRACE_FILE)


# Write-site x fault-kind sweep: every durable artifact of the run
# directory crossed with every crash point of the write discipline.
# ``skip`` picks a mid-run occurrence of the site (0 for write-once
# artifacts).
_SWEEP = [
    # The checkpoint log's second record (a matcher iteration's): torn
    # mid-append, crashed before its fsync, crashed after it.
    (CHECKPOINT_LOG, "torn_write", 1),
    (CHECKPOINT_LOG, "crash_before", 1),
    (CHECKPOINT_LOG, "crash_after", 1),
    ("metrics.json", "crash_before", 1),
    ("spans.jsonl", "crash_after", 1),
    ("shard-00001", "torn_write", 0),       # a blocking shard file
    ("MANIFEST.json", "crash_after", 2),    # a shard store's ledger
    # The run-end flush of the run's ledger, after the log's last
    # record (five of the eight before it are the shard store's).
    ("MANIFEST.json", "crash_before", 8),
]


def _record_spans(log) -> list[tuple[int, int]]:
    """(start, stop) byte offsets of each record line of a log."""
    spans, start = [], 0
    for line in log.read_bytes().splitlines(keepends=True):
        spans.append((start, start + len(line)))
        start += len(line)
    return spans


class TestCrashSweep:
    """Kill the write at each site and hook point; resume bit-identical."""

    @pytest.mark.parametrize(("site", "kind", "skip"), _SWEEP)
    def test_resume_is_bit_identical(self, scenario, tmp_path,
                                     site, kind, skip):
        run_dir = tmp_path / "run"
        _crash_run(scenario, run_dir, site, kind, skip)
        _resume_and_check(scenario, run_dir)

    def test_enospc_is_a_real_oserror_and_run_dir_stays_resumable(
            self, scenario, tmp_path):
        _, dataset, config, crowd, _ = scenario
        run_dir = tmp_path / "run"
        gateway, _ = accounted_stack(crowd())
        injector = StorageFaultInjector(seed=STORAGE_SEED)
        injector.arm("enospc", CHECKPOINT_LOG, skip=1)
        with injector, pytest.raises(OSError) as excinfo:
            Corleone(config, gateway, seed=123, run_dir=run_dir).run(
                dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert excinfo.value.errno == errno.ENOSPC
        _resume_and_check(scenario, run_dir)


class TestArtifactEventsAndManifest:
    """The happy path: writes are evented and the manifest verifies."""

    def test_clean_run_traces_writes_and_manifests_artifacts(
            self, scenario, tmp_path):
        _, dataset, config, crowd, golden_report = scenario
        run_dir = tmp_path / "run"
        gateway, _ = accounted_stack(crowd())
        result = Corleone(config, gateway, seed=123, run_dir=run_dir).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        assert persistence.result_report(result) == golden_report

        written = [event for event in read_trace(run_dir / TRACE_FILE)
                   if event.name == EVENT_ARTIFACT_WRITTEN]
        assert written  # every checkpoint cycle emits its artifacts
        names = {event.payload["artifact"] for event in written}
        assert names == {CHECKPOINT_LOG}

        manifest = load_manifest(run_dir)
        assert manifest is not None
        assert RUN_FILE in manifest
        # The run end records the whole log, every record verified.
        assert manifest[CHECKPOINT_LOG]["prefix"] is True
        assert manifest[CHECKPOINT_LOG]["sha256"] == \
            file_sha256(run_dir / CHECKPOINT_LOG)
        # The umbrella set is rebuilt on resume, never written.
        assert not (run_dir / "candidates.npz").exists()
        # Telemetry exports: mid-run snapshots are volatile and
        # unmanifested, but the run-end export records the final bytes.
        for name in ("metrics.json", "spans.jsonl"):
            assert manifest[name]["sha256"] == \
                file_sha256(run_dir / name)
        assert "profile.json" not in manifest
        # Progress is folded from the trace and the log, never written.
        assert not (run_dir / "progress.json").exists()


class TestBitRotRecovery:
    """At-rest corruption: quarantine, fall back, surface events."""

    def test_checkpoint_bitflip_falls_back_to_generation(
            self, scenario, tmp_path):
        # Each log record is a generation: rot in the newest one falls
        # back to the one before it.
        run_dir = tmp_path / "run"
        injector = _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                              "crash_after", skip=2)
        log = run_dir / CHECKPOINT_LOG
        start, stop = _record_spans(log)[-1]
        injector.flip_bit(log, start, stop)

        trace = _resume_and_check(scenario, run_dir)
        names = {event.name for event in trace}
        assert EVENT_ARTIFACT_CORRUPT in names
        assert EVENT_ARTIFACT_QUARANTINED in names
        assert EVENT_CHECKPOINT_FALLBACK in names
        assert (run_dir / QUARANTINE_DIR / CHECKPOINT_LOG).exists()

    def test_middle_record_bitflip_resumes_before_it(
            self, scenario, tmp_path):
        run_dir = tmp_path / "run"
        injector = _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                              "crash_after", skip=4)
        log = run_dir / CHECKPOINT_LOG
        spans = _record_spans(log)
        assert len(spans) == 5
        injector.flip_bit(log, *spans[2])

        trace = _resume_and_check(scenario, run_dir)
        fallbacks = [event.payload for event in trace
                     if event.name == EVENT_CHECKPOINT_FALLBACK]
        assert [payload["index"] for payload in fallbacks] == [1]
        # Records 2-4 went to quarantine together: 3 depend on 2.
        quarantined = run_dir / QUARANTINE_DIR / CHECKPOINT_LOG
        assert len(quarantined.read_bytes()) == spans[4][1] - spans[2][0]

    def test_all_generations_corrupt_restarts_deterministically(
            self, scenario, tmp_path):
        run_dir = tmp_path / "run"
        _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                   "crash_before", skip=2)
        (run_dir / CHECKPOINT_LOG).write_text("garbage")

        trace = _resume_and_check(scenario, run_dir)
        names = {event.name for event in trace}
        assert EVENT_ARTIFACT_QUARANTINED in names
        # Nothing to fall back to: the run restarted from run.json, so
        # no fallback event — just the quarantine.
        assert EVENT_CHECKPOINT_FALLBACK not in names

    def test_corrupt_shard_file_is_recomputed(self, scenario, tmp_path):
        # Shard files are machine work: the resume's rebuild of the
        # umbrella set quarantines a rotten one and recomputes it.
        run_dir = tmp_path / "run"
        injector = _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                              "crash_after", skip=2)
        shards = run_dir / "shards"
        shard = shards / "shard-00001.npz"
        injector.flip_bit(shard)

        _resume_and_check(scenario, run_dir)
        assert (shards / QUARANTINE_DIR / shard.name).exists()
        assert verify_artifact(shards, shard)[0] is True

    def test_corrupt_run_inputs_is_unrecoverable_and_typed(
            self, scenario, tmp_path):
        run_dir = tmp_path / "run"
        injector = _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                              "crash_after", skip=1)
        injector.flip_bit(run_dir / RUN_FILE)

        _, dataset, config, crowd, _ = scenario
        gateway, _ = accounted_stack(crowd())
        with pytest.raises(DataError) as excinfo:
            Corleone.resume(run_dir, gateway)
        assert RUN_FILE in str(excinfo.value)


class TestResumeHygiene:
    """Sweep the litter, repair the tail, note it in the trace."""

    def test_stale_tmp_litter_is_swept_on_resume(self, scenario, tmp_path):
        run_dir = tmp_path / "run"
        injector = _crash_run(scenario, run_dir, "metrics.json",
                              "crash_before", skip=1)
        # The crash itself left metrics.json.tmp; pile on the kind of
        # junk a few more dead predecessors would leave.
        injector.scatter_stale_tmp(run_dir, count=2)
        injector.scatter_stale_tmp(run_dir / QUARANTINE_DIR, count=1)
        assert list(run_dir.rglob("*.tmp"))

        _resume_and_check(scenario, run_dir)
        assert not list(run_dir.rglob("*.tmp"))

    def test_torn_trace_tail_is_repaired_and_evented(
            self, scenario, tmp_path):
        run_dir = tmp_path / "run"
        _crash_run(scenario, run_dir, CHECKPOINT_LOG,
                   "crash_after", skip=1)
        with open(run_dir / TRACE_FILE, "ab") as handle:
            handle.write(b'{"sequence": 999, "event": "torn')

        trace = _resume_and_check(scenario, run_dir)
        torn = [event for event in trace
                if event.name == EVENT_TRACE_TORN]
        assert len(torn) == 1
        assert torn[0].payload["bytes_truncated"] == len(
            b'{"sequence": 999, "event": "torn')
