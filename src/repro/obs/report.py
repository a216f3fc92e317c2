"""Run-directory inspection: the ``obs report`` tables.

Renders a human-readable accounting of one checkpointed run — where the
budget, time, labels and faults went, per stage — purely from the run
directory's artifacts (``trace.jsonl``, ``spans.jsonl``,
``metrics.json``, ``profile.json``, ``checkpoint.json``).  Nothing is
recomputed from the data tables and nothing beyond the standard library
is imported, so the report works on any machine that can read JSON.

A resumed run's ``trace.jsonl`` deliberately contains duplicate
sequence numbers (the appended tail re-covers the events after the
crash point); :func:`effective_trace` resolves that by letting the
*latest* occurrence of each sequence number win, which reconstructs the
authoritative history of the run that actually completed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..engine.checkpoint import CHECKPOINT_FILE, TRACE_FILE
from ..storage.recovery import read_jsonl
from .profiling import PROFILE_FILE
from .progress import read_progress
from .spans import SPANS_FILE, read_spans
from .telemetry import METRICS_FILE


def effective_trace(path: str | Path) -> list[dict[str, Any]]:
    """The authoritative event history of a (possibly resumed) trace.

    Tolerates a torn *final* line exactly like
    :func:`repro.engine.events.read_trace` (both read through
    :func:`repro.storage.recovery.read_jsonl`) — an in-flight run's
    trace may end mid-write, and the report/serve surfaces must render
    what is there rather than raise.  An invalid line anywhere earlier
    is real corruption and raises :class:`~repro.exceptions.DataError`.
    """
    by_sequence = {int(event["sequence"]): event
                   for event in read_jsonl(path, "trace")}
    return [by_sequence[seq] for seq in sorted(by_sequence)]


def load_artifacts(run_dir: str | Path) -> dict[str, Any]:
    """Every readable artifact of ``run_dir`` (missing ones -> None)."""
    run_dir = Path(run_dir)

    def read_json(name: str) -> Any | None:
        path = run_dir / name
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    trace_path = run_dir / TRACE_FILE
    spans_path = run_dir / SPANS_FILE
    return {
        "trace": (effective_trace(trace_path)
                  if trace_path.is_file() else None),
        "spans": read_spans(spans_path) if spans_path.is_file() else None,
        "metrics": read_json(METRICS_FILE),
        "profile": read_json(PROFILE_FILE),
        "checkpoint": read_json(CHECKPOINT_FILE),
        "progress": read_progress(run_dir),
    }


def _table(headers: list[str], rows: list[list[str]],
           align_left: int = 1) -> list[str]:
    """Render a fixed-width text table (first ``align_left`` columns
    left-aligned, the rest right-aligned)."""
    table = [headers, *rows]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        cells = [
            cell.ljust(widths[col]) if col < align_left
            else cell.rjust(widths[col])
            for col, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def _series(metrics: dict[str, Any] | None,
            name: str) -> list[dict[str, Any]]:
    """A metric family's series list (empty when absent)."""
    if not metrics:
        return []
    family = metrics.get("metrics", {}).get(name)
    return family["series"] if family else []


def _value(metrics: dict[str, Any] | None, name: str,
           default: float = 0) -> float:
    """An unlabelled metric's value (``default`` when absent)."""
    series = _series(metrics, name)
    return series[0]["value"] if series else default


def _stage_rollup(trace: list[dict[str, Any]]) -> tuple[
        list[str], dict[str, dict[str, float]]]:
    """Aggregate labels/dollars/faults per stage from the event trace."""
    order: list[str] = []
    stats: dict[str, dict[str, float]] = {}
    current: str | None = None
    for event in trace:
        name = event["event"]
        if name == "stage_started":
            current = event["stage"]
            if current not in stats:
                order.append(current)
                stats[current] = {"runs": 0, "labels": 0,
                                  "dollars": 0.0, "faults": 0}
            stats[current]["runs"] += 1
        elif name == "stage_finished":
            current = None
        elif current is not None:
            if name == "labels_purchased":
                stats[current]["labels"] += 1
            elif name == "budget_spent":
                stats[current]["dollars"] += event["dollars"]
            elif name == "fault_injected":
                stats[current]["faults"] += 1
    return order, stats


def _stage_sim_seconds(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Total simulated seconds per stage from the span records."""
    totals: dict[str, float] = {}
    for span in spans:
        if span["name"] == "stage":
            stage = span["attrs"]["stage"]
            totals[stage] = totals.get(stage, 0.0) + span["duration"]
    return totals


def render_report(run_dir: str | Path) -> str:
    """The full ``obs report`` text for one run directory."""
    run_dir = Path(run_dir)
    artifacts = load_artifacts(run_dir)
    metrics = artifacts["metrics"]
    lines: list[str] = [f"Corleone run report — {run_dir.name}"]

    checkpoint = artifacts["checkpoint"]
    if checkpoint is not None:
        state = checkpoint.get("state", {})
        lines.append(
            f"mode: {state.get('mode', '?')}"
            f" | stop: {state.get('stop_reason') or 'running'}"
            f" | iterations: {state.get('iteration', '?')}"
            f" | checkpoints: {checkpoint.get('index', -1) + 1}"
        )
    progress = artifacts["progress"]
    if progress is not None and not progress.get("finished"):
        # An incomplete run: render whatever artifacts exist below, but
        # say up front that the numbers are a snapshot, not a result.
        shards = progress.get("shards", {})
        lines.append(
            f"IN FLIGHT — stage: {progress.get('stage') or '?'}"
            f" | iteration: {progress.get('iteration', 0)}"
            f" | shards {shards.get('completed', 0)}"
            f"/{shards.get('started', 0)}"
            f" | spent ${progress.get('dollars_spent', 0.0):.2f}"
        )
    lines.append("")

    trace = artifacts["trace"] or []
    spans = artifacts["spans"] or []
    if trace:
        order, stats = _stage_rollup(trace)
        sim = _stage_sim_seconds(spans)
        rows = [
            [stage,
             str(int(stats[stage]["runs"])),
             str(int(stats[stage]["labels"])),
             f"{stats[stage]['dollars']:.2f}",
             str(int(stats[stage]["faults"])),
             f"{sim.get(stage, 0.0):.1f}"]
            for stage in order
        ]
        lines.append("stages")
        lines.extend(_table(
            ["stage", "runs", "labels", "dollars", "faults", "sim_s"],
            rows))
        lines.append("")

    budget = _value(metrics, "corleone_budget_dollars", default=None)
    spent = _value(metrics, "corleone_dollars_spent_total")
    labels_total = sum(s["value"] for s in
                       _series(metrics, "corleone_labels_purchased_total"))
    burn = (f" of ${budget:.2f}"
            f" ({100.0 * spent / budget:.1f}%)" if budget else "")
    lines.append("budget burn")
    lines.append(
        f"  spent ${spent:.2f}{burn}"
        f" | answers {int(_value(metrics, 'corleone_answers_total'))}"
        f" | pairs labelled {int(labels_total)}"
        f" | HITs {int(_value(metrics, 'corleone_hits_posted_total'))}"
        f" ({int(_value(metrics, 'corleone_hits_reposted_total'))}"
        " reposted)"
    )
    lines.append("")

    fault_series = _series(metrics, "corleone_faults_injected_total")
    retry_series = _series(metrics, "corleone_retries_scheduled_total")
    if fault_series or retry_series:
        lines.append("faults and retries")
        rows = [["fault", s["labels"]["kind"], str(int(s["value"]))]
                for s in fault_series]
        rows += [["retry", s["labels"]["kind"], str(int(s["value"]))]
                 for s in retry_series]
        lines.extend(_table(["what", "kind", "count"], rows,
                            align_left=2))
        lines.append("")

    shards_started = _value(metrics, "corleone_shards_started_total")
    shards_completed = _value(metrics, "corleone_shards_completed_total")
    fallback_series = _series(
        metrics, "corleone_blocker_parallel_fallback_total")
    if shards_started or shards_completed or fallback_series:
        lines.append("sharded blocking")
        pairs_scanned = _value(
            metrics, "corleone_shard_pairs_scanned_total")
        lines.append(
            f"  shards {int(shards_completed)}/{int(shards_started)}"
            " completed"
            f" | pairs scanned {int(pairs_scanned)}"
        )
        for series in fallback_series:
            lines.append(
                f"  fallback [{series['labels']['reason']}]"
                f" x{int(series['value'])}"
            )
        lines.append("")

    write_series = _series(metrics,
                           "corleone_storage_artifacts_written_total")
    recovery_kinds = {
        "artifact_corrupt": "corrupt artifact",
        "artifact_quarantined": "quarantined",
        "checkpoint_fallback": "generation fallback",
        "trace_torn_tail": "torn trace tail",
    }
    recovery_rows = [
        [recovery_kinds[event["event"]],
         str(event.get("artifact")
             or f"{event.get('bytes_truncated', '?')} bytes")]
        for event in trace if event["event"] in recovery_kinds
    ]
    if write_series or recovery_rows:
        lines.append("storage durability")
        written_events = sum(1 for event in trace
                             if event["event"] == "artifact_written")
        per_kind = ", ".join(
            f"{series['labels']['kind']} "
            f"{int(series['value'])}"
            for series in write_series)
        lines.append(
            f"  artifacts written"
            f" {sum(int(s['value']) for s in write_series)}"
            f" ({per_kind or 'none metered'})"
            f" | write events {written_events}"
        )
        if recovery_rows:
            lines.extend(_table(["recovery", "artifact"], recovery_rows,
                                align_left=2))
        lines.append("")

    iteration_spans = [s for s in spans
                       if s["name"] == "matcher_iteration"]
    if iteration_spans:
        per_iteration: dict[int, dict[str, float]] = {}
        for span in iteration_spans:
            entry = per_iteration.setdefault(
                int(span["attrs"]["iteration"]),
                {"steps": 0, "sim_s": 0.0})
            entry["steps"] += 1
            entry["sim_s"] += span["duration"]
        lines.append("matcher iterations")
        lines.extend(_table(
            ["iteration", "al_steps", "sim_s"],
            [[str(index),
              str(int(per_iteration[index]["steps"])),
              f"{per_iteration[index]['sim_s']:.1f}"]
             for index in sorted(per_iteration)]))
        lines.append("")

    profile = artifacts["profile"]
    if profile is not None and profile.get("sections"):
        lines.append("wall-clock profile (non-deterministic)")
        lines.extend(_table(
            ["section", "calls", "seconds"],
            [[name,
              str(entry["calls"]),
              f"{entry['seconds']:.3f}"]
             for name, entry in sorted(profile["sections"].items())]))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def render_watch(progress: dict[str, Any] | None,
                 events: list[dict[str, Any]],
                 recent: int = 8) -> str:
    """One frame of the ``obs watch`` terminal view.

    Pure function over the heartbeat document and the effective event
    list (latest-wins, as produced by
    :class:`repro.obs.tail.TraceTail`), so the refresh loop in
    ``python -m repro.obs watch`` stays trivially testable.
    """
    lines = []
    if progress is None:
        lines.append("waiting for progress.json — run not started "
                     "(or telemetry disabled)")
    else:
        state = ("finished" if progress.get("finished")
                 else f"stage {progress.get('stage') or '?'}")
        shards = progress.get("shards", {})
        budget = progress.get("budget")
        spent = progress.get("dollars_spent", 0.0)
        burn = (f" / ${budget:.2f}" if budget is not None else "")
        lines.append(
            f"{state}"
            f" | iteration {progress.get('iteration', 0)}"
            f" | checkpoints {progress.get('checkpoints', 0)}"
            f" | shards {shards.get('completed', 0)}"
            f"/{shards.get('started', 0)}"
        )
        lines.append(
            f"spent ${spent:.2f}{burn}"
            f" | labels {progress.get('labels_purchased', 0)}"
            f" | answers {progress.get('answers', 0)}"
        )
    lines.append(f"events seen: {len(events)}")
    for event in events[-recent:]:
        detail = ", ".join(
            f"{key}={event[key]}" for key in sorted(event)
            if key not in ("event", "sequence"))
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"  #{event.get('sequence')} "
                     f"{event.get('event')}{suffix}")
    return "\n".join(lines) + "\n"
