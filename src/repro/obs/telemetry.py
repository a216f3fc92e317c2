"""Run telemetry: one object binding registry, tracer and profiler.

A :class:`RunTelemetry` is created per :class:`~repro.engine.context.
RunContext` and aggregates three instruments:

* the **metrics registry** (:mod:`repro.obs.registry`) with the full
  metric catalog pre-registered — the snapshot's shape is fixed up
  front, which is what makes ``metrics.json`` diffable across runs;
* the **span tracer** (:mod:`repro.obs.spans`) on the platform stack's
  shared simulated clock;
* the **profiler** (:mod:`repro.obs.profiling`) — the run's entry on
  the ambient activation stack: wall-clock sections (the one
  deliberately non-deterministic instrument, kept out of checkpoints)
  plus the two hot-path metrics it feeds into this registry.

Metrics are fed three ways: the telemetry subscribes to the engine's
:class:`~repro.engine.events.EventBus` (faults, retries, reposts,
circuit trips, and spend: one ``labels_purchased`` event per paid
labelling call carries its labels, answers, dollars and HITs, gateway
reposts included), takes direct calls for figures that never cross the
bus or that resume would double-count off the bus (stage runs,
blocking-rule coverage), and receives trees trained and entropy-pool
sizes from the hot paths through its activated profiler.
``checkpoint_written`` events are deliberately *ignored*: the
checkpoint counter must increment before the checkpoint document is
serialized (see :meth:`RunTelemetry.record_checkpoint`), or a run
killed at a checkpoint would resume with one count fewer than the
uninterrupted run and break the byte-identity contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..engine.events import (
    EVENT_ARTIFACT_CORRUPT,
    EVENT_ARTIFACT_QUARANTINED,
    EVENT_BLOCKER_FALLBACK,
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_CIRCUIT_OPENED,
    EVENT_FAULT_INJECTED,
    EVENT_HIT_REPOSTED,
    EVENT_LABELS_PURCHASED,
    EVENT_RETRY_SCHEDULED,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EVENT_TRACE_TORN,
    Event,
)
from ..storage.writer import atomic_write_json
from . import profiling
from .registry import MetricsRegistry
from .spans import SPANS_FILE, SpanTracer

METRICS_FILE = "metrics.json"
METRICS_FORMAT = "corleone-metrics"
METRICS_VERSION = 1

ENTROPY_POOL_BUCKETS = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
RULE_COVERAGE_BUCKETS = (10.0, 100.0, 1000.0, 10000.0, 100000.0)
RETRY_DELAY_BUCKETS = (0.5, 1.0, 2.0, 5.0, 15.0, 60.0)


def build_catalog(registry: MetricsRegistry) -> None:
    """Pre-register the full metric catalog on ``registry``.

    Registering everything up front (rather than on first touch) fixes
    the snapshot's key set for every run, so an idle counter shows up
    as an empty family instead of silently vanishing.
    """
    registry.counter(
        "corleone_labels_purchased_total",
        "Labels bought from the crowd, by vote strength (a pair "
        "relabelled to a stronger standard counts again).",
        label_names=("strong",))
    registry.counter(
        "corleone_answers_total",
        "Paid single-worker answers consumed.")
    registry.counter(
        "corleone_dollars_spent_total",
        "Crowd dollars spent.")
    registry.counter(
        "corleone_hits_posted_total",
        "HITs posted to the platform (reposts included).")
    registry.counter(
        "corleone_hits_reposted_total",
        "HITs reposted by the resilient gateway after expiry.")
    registry.counter(
        "corleone_stage_runs_total",
        "Engine stage executions, by stage name.",
        label_names=("stage",))
    registry.counter(
        "corleone_checkpoints_total",
        "Checkpoints written to the run directory.")
    registry.counter(
        "corleone_faults_injected_total",
        "Crowd faults injected, by fault kind.",
        label_names=("kind",))
    registry.counter(
        "corleone_retries_scheduled_total",
        "Gateway retries scheduled, by failure kind.",
        label_names=("kind",))
    registry.counter(
        "corleone_circuit_opened_total",
        "Circuit-breaker trips.")
    registry.counter(
        "corleone_trees_trained_total",
        "Decision trees trained across every forest.")
    registry.counter(
        "corleone_matcher_iterations_total",
        "Active-learning iterations completed by the engine matcher.")
    registry.gauge(
        "corleone_candidate_pairs",
        "Size of the blocked (umbrella) candidate set.")
    registry.gauge(
        "corleone_cartesian_pairs",
        "Size of the unblocked cross product A x B.")
    registry.gauge(
        "corleone_blocking_rules_applied",
        "Blocking rules the crowd accepted and the blocker applied.")
    registry.gauge(
        "corleone_working_set_size",
        "Pairs in the current training working set.")
    registry.gauge(
        "corleone_best_f1",
        "Best estimated F1 reached so far.")
    registry.gauge(
        "corleone_budget_dollars",
        "Configured run budget (absent series when unlimited).")
    registry.histogram(
        "corleone_entropy_pool_size", ENTROPY_POOL_BUCKETS,
        "Entropy-pool sizes per active-learning batch selection.")
    registry.histogram(
        "corleone_blocking_rule_candidates", RULE_COVERAGE_BUCKETS,
        "Pairs removed per evaluated blocking rule (coverage).")
    registry.counter(
        "corleone_shards_started_total",
        "Blocking shards started (resume-loaded shards included).")
    registry.counter(
        "corleone_shards_completed_total",
        "Blocking shards completed (resume-loaded shards included).")
    registry.counter(
        "corleone_shard_pairs_scanned_total",
        "A x B pairs scanned by completed blocking shards.")
    registry.counter(
        "corleone_blocker_parallel_fallback_total",
        "Sharded blocking runs that could not fork workers and ran "
        "in-process, by reason.",
        label_names=("reason",))
    registry.counter(
        "corleone_worker_shards_completed_total",
        "Blocking shards completed per logical worker slot.",
        label_names=("worker",))
    registry.counter(
        "corleone_worker_shard_pairs_scanned_total",
        "A x B pairs scanned per blocking shard, by worker and shard.",
        label_names=("worker", "shard"))
    registry.counter(
        "corleone_worker_shard_survivors_total",
        "Surviving pairs per blocking shard, by worker and shard.",
        label_names=("worker", "shard"))
    registry.counter(
        "corleone_plan_feature_cells_total",
        "Feature cells the plan executor computed vs. pruned, by outcome.",
        label_names=("outcome",))
    registry.counter(
        "corleone_spill_bytes_total",
        "Feature-matrix bytes spilled to memory-mapped run-dir files.")
    registry.histogram(
        "corleone_retry_delay_seconds", RETRY_DELAY_BUCKETS,
        "Backoff delays of gateway-scheduled retries (simulated s).")
    registry.counter(
        "corleone_storage_artifacts_written_total",
        "Run-dir artifacts durably written per checkpoint cycle, by kind.",
        label_names=("kind",))
    registry.counter(
        "corleone_storage_artifacts_corrupt_total",
        "Artifacts that failed their manifest checksum on load.")
    registry.counter(
        "corleone_storage_artifacts_quarantined_total",
        "Corrupt artifacts moved under the run's quarantine/ directory.")
    registry.counter(
        "corleone_storage_checkpoint_fallbacks_total",
        "Resumes that fell back to an older checkpoint generation.")
    registry.counter(
        "corleone_storage_trace_repairs_total",
        "Torn trace.jsonl tails truncated during resume.")


class RunTelemetry:
    """All telemetry instruments of one hands-off run."""

    def __init__(self, clock: Any | None = None) -> None:
        self.registry = MetricsRegistry()
        build_catalog(self.registry)
        self.tracer = SpanTracer(clock=clock)
        self.profiler = profiling.Profiler(self.registry)
        self._activations = 0  # corlint: derived — activation depth,
        # an activation-scoped runtime counter, not checkpoint state

    # -- event-bus feed -------------------------------------------------

    def on_event(self, event: Event) -> None:
        """EventBus sink: fold one engine event into the metrics."""
        reg = self.registry
        payload = event.payload
        if event.name == EVENT_LABELS_PURCHASED:
            # A count of zero touches no series, so a series exists only
            # once something was bought into it.
            labels = reg.get("corleone_labels_purchased_total")
            strong = payload["strong"]
            weak = payload["labels"] - strong
            if strong:
                labels.inc(strong, strong="true")
            if weak:
                labels.inc(weak, strong="false")
            if payload["answers"]:
                reg.get("corleone_answers_total").inc(payload["answers"])
                reg.get("corleone_dollars_spent_total").inc(
                    payload["dollars"])
            if payload["hits"]:
                reg.get("corleone_hits_posted_total").inc(payload["hits"])
        elif event.name == EVENT_FAULT_INJECTED:
            reg.get("corleone_faults_injected_total").inc(
                kind=str(payload["kind"]))
        elif event.name == EVENT_RETRY_SCHEDULED:
            reg.get("corleone_retries_scheduled_total").inc(
                kind=str(payload["kind"]))
            reg.get("corleone_retry_delay_seconds").observe(
                payload["delay_seconds"])
        elif event.name == EVENT_HIT_REPOSTED:
            reg.get("corleone_hits_reposted_total").inc()
        elif event.name == EVENT_CIRCUIT_OPENED:
            reg.get("corleone_circuit_opened_total").inc()
        elif event.name == EVENT_SHARD_STARTED:
            reg.get("corleone_shards_started_total").inc()
        elif event.name == EVENT_SHARD_COMPLETED:
            # Resume-loaded shards re-emit both events with the same
            # counts, so a resumed run's totals converge to exactly the
            # uninterrupted run's values (the byte-identity contract).
            reg.get("corleone_shards_completed_total").inc()
            scanned = int(payload.get("pairs_scanned", 0))
            survivors = int(payload.get("survivors", 0))
            reg.get("corleone_shard_pairs_scanned_total").inc(scanned)
            # Per-worker attribution: the `worker` field is the logical
            # slot (shard index mod configured n_workers), identical
            # across the pool, the in-process fallback and a cached
            # replay — never an OS pid.  Shard labels are zero-padded
            # so the sorted snapshot lists them in shard order.
            worker = str(int(payload.get("worker", 0)))
            shard = f"{int(payload.get('shard', 0)):05d}"
            reg.get("corleone_worker_shards_completed_total").inc(
                worker=worker)
            reg.get("corleone_worker_shard_pairs_scanned_total").inc(
                scanned, worker=worker, shard=shard)
            reg.get("corleone_worker_shard_survivors_total").inc(
                survivors, worker=worker, shard=shard)
            # A zero-duration `shard` span marks the completion on the
            # simulated clock (blocking consumes no simulated time).
            # Checkpoints never land mid-blocking, and cached shards
            # re-emit this event, so the span list stays byte-identical
            # across replay and kill/resume; `cached` is deliberately
            # not an attribute — it differs between those histories.
            span_id = self.tracer.start(
                "shard", shard=int(payload.get("shard", 0)),
                worker=int(payload.get("worker", 0)),
                pairs_scanned=scanned, survivors=survivors)
            self.tracer.end(span_id)
        elif event.name == EVENT_BLOCKER_FALLBACK:
            reg.get("corleone_blocker_parallel_fallback_total").inc(
                reason=str(payload.get("reason")))
        elif event.name == EVENT_ARTIFACT_CORRUPT:
            reg.get("corleone_storage_artifacts_corrupt_total").inc()
        elif event.name == EVENT_ARTIFACT_QUARANTINED:
            reg.get("corleone_storage_artifacts_quarantined_total").inc()
        elif event.name == EVENT_CHECKPOINT_FALLBACK:
            reg.get("corleone_storage_checkpoint_fallbacks_total").inc()
        elif event.name == EVENT_TRACE_TORN:
            reg.get("corleone_storage_trace_repairs_total").inc()
        # checkpoint_written and artifact_written are intentionally not
        # handled here — their counters increment *before* the
        # checkpoint document is serialized (see record_checkpoint /
        # record_artifact_write), or a run killed at a checkpoint would
        # resume with fewer counts than the uninterrupted run and break
        # the byte-identity contract.  The recovery events above are
        # safe off the bus: they replay only on a corrupted resume,
        # after the checkpointed state has been restored.

    # -- direct instrumentation ----------------------------------------

    def record_checkpoint(self) -> None:
        """Count a checkpoint *before* its document is written.

        Incrementing pre-write puts the count inside the checkpoint's
        own telemetry state, so a kill at exactly this checkpoint
        resumes with the same count the uninterrupted run carries.
        """
        self.registry.get("corleone_checkpoints_total").inc()

    def shard_counts(self) -> tuple[int, int]:
        """Blocking shards (started, completed) counted so far; a
        resumed run's progress heartbeat starts from them."""
        return (
            int(self.registry.get("corleone_shards_started_total").total()),
            int(self.registry.get("corleone_shards_completed_total").total()),
        )

    def record_artifact_write(self, kind: str) -> None:
        """Count one checkpoint-cycle artifact write, pre-serialize.

        Same discipline as :meth:`record_checkpoint`: the checkpointer
        calls this for each artifact the cycle is about to write,
        *before* serializing the checkpoint document, so the counts
        ride inside the checkpoint itself and kill/resume converges.
        Writes outside the checkpoint cycle (``run.json``, the final
        telemetry export, shard files) are deliberately unmetered —
        they happen at points a restarted run may legitimately skip, so
        counting them would break metric convergence; the run manifest
        records them all regardless.
        """
        self.registry.get(
            "corleone_storage_artifacts_written_total").inc(kind=kind)

    def record_budget(self, budget: float | None) -> None:
        """Record the configured dollar budget (if capped)."""
        if budget is not None:
            self.registry.get("corleone_budget_dollars").set(float(budget))

    def record_blocker_result(self, result: Any) -> None:
        """Fold a :class:`~repro.core.blocker.BlockerResult` in."""
        reg = self.registry
        reg.get("corleone_candidate_pairs").set(result.umbrella_size)
        reg.get("corleone_cartesian_pairs").set(result.cartesian)
        reg.get("corleone_blocking_rules_applied").set(
            len(result.applied_rules))
        coverage = reg.get("corleone_blocking_rule_candidates")
        for evaluation in result.evaluations:
            coverage.observe(evaluation.coverage)

    def record_plan_stats(self, stats: dict[str, Any]) -> None:
        """Fold the plan executor's cell accounting in.

        The counts are deterministic (chunk- and shard-order invariant,
        and shard files persist per-shard cell counts), so unlike the
        process-lifetime cache-miss counters in
        :mod:`repro.features.batch` they are safe inside the
        checkpointed registry.
        """
        cells = self.registry.get("corleone_plan_feature_cells_total")
        cells.inc(int(stats.get("cells_computed", 0)), outcome="computed")
        cells.inc(int(stats.get("cells_pruned", 0)), outcome="pruned")

    def record_spill(self, bytes_spilled: int) -> None:
        """Count feature-matrix bytes spilled to memory-mapped files."""
        if bytes_spilled > 0:
            self.registry.get("corleone_spill_bytes_total").inc(
                int(bytes_spilled))

    def record_working_set(self, size: int) -> None:
        """Record the current training working-set size."""
        self.registry.get("corleone_working_set_size").set(int(size))

    def record_best_f1(self, f1: float) -> None:
        """Record a new best estimated F1."""
        self.registry.get("corleone_best_f1").set(float(f1))

    def record_matcher_iteration(self) -> None:
        """Count one completed active-learning iteration."""
        self.registry.get("corleone_matcher_iterations_total").inc()

    # -- activation -----------------------------------------------------

    def activate(self) -> None:
        """Route the ambient hot-path reports (:mod:`repro.obs.profiling`)
        to this run."""
        self._activations += 1
        if self._activations == 1:
            profiling.activate(self.profiler)

    def deactivate(self) -> None:
        """Undo one :meth:`activate` (stack-scoped, exception-safe)."""
        if self._activations > 0:
            self._activations -= 1
            if self._activations == 0:
                profiling.deactivate(self.profiler)

    # -- spans ----------------------------------------------------------

    def open_run_span(self, mode: str) -> None:
        """Open the root ``run`` span unless one is already open.

        A resumed run restores its open root span from the checkpoint,
        so this is a no-op on resume.
        """
        if self.tracer.open_depth == 0:
            self.tracer.start("run", mode=mode)

    def start_stage_span(self, stage_name: str, iteration: int) -> int:
        """Open a ``stage`` span, counting the stage run — or adopt one.

        A mid-stage checkpoint (a matcher-iteration checkpoint inside
        ``train_matcher``) restores the tracer with the enclosing stage
        span still *open*.  The resumed engine loop then re-enters that
        stage from the top; starting a second span (and counting a
        second stage run) would diverge from the uninterrupted run.  So
        when the innermost open span is a ``stage`` span for the same
        stage, it is adopted as-is — same id, original start time and
        attributes — and the stage-run counter is left alone.
        """
        top = self.tracer.innermost_open
        if (top is not None and top["name"] == "stage"
                and top["attrs"].get("stage") == stage_name):
            return int(top["id"])
        self.registry.get("corleone_stage_runs_total").inc(stage=stage_name)
        return self.tracer.start("stage", stage=stage_name,
                                 iteration=iteration)

    def close_run_span(self) -> None:
        """Close the root span (and any stragglers) at run end."""
        self.tracer.close_all_open()

    # -- persistence ----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Deterministic telemetry state for the engine checkpoint.

        The wall-clock profiler is deliberately excluded: its numbers
        are non-deterministic by definition and must never influence a
        resumed run's artifacts.
        """
        return {
            "metrics": self.registry.state_dict(),
            "spans": self.tracer.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.registry.load_state(state["metrics"])
        self.tracer.load_state(state["spans"])

    def metrics_document(self) -> dict[str, Any]:
        """The ``metrics.json`` document for the run directory."""
        return {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "metrics": self.registry.snapshot(),
        }

    def export(self, run_dir: str | Path,
               include_profile: bool = False,
               writer: Any = None) -> None:
        """Write ``metrics.json`` + ``spans.jsonl`` and, at run end,
        ``profile.json``.

        All writes go through :mod:`repro.storage.writer`, and the
        ``writer`` argument picks the durability tier.  With the run's
        :class:`~repro.storage.writer.ArtifactWriter` (the pipeline's
        run-end export) the files land fully durable and are recorded
        in the run manifest, so the manifest checksums describe the
        final bytes.  Without one (the live export at each stage
        boundary) they are written as *volatile snapshots* — atomic
        replace so ``/metrics`` readers never see a torn file, but no
        fsync and no manifest entry: both files are regenerated
        byte-for-byte from the checkpointed telemetry state on resume,
        so mid-run durability buys nothing and costs two fsync pairs
        per export.  ``profile.json`` is *never* manifested — it is
        wall-clock noise by design, and a checksum over it would flag
        every legitimate rewrite as corruption.
        """
        run_dir = Path(run_dir)
        document = self.metrics_document()
        # Compact, not indented: indent= forces json's pure-Python
        # encoder, about five times slower on this document.
        if writer is not None:
            writer.atomic_write_json(run_dir / METRICS_FILE, document,
                                     sort_keys=True)
        else:
            atomic_write_json(run_dir / METRICS_FILE, document,
                              sort_keys=True, durable=False)
        self.tracer.write(run_dir / SPANS_FILE, writer=writer)
        if include_profile:
            self.profiler.write(run_dir / profiling.PROFILE_FILE)
