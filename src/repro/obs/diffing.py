"""Cross-run diffing: explain how two run directories' telemetry differ.

``python -m repro.obs diff <run_a> <run_b>`` aligns the two runs'
metric families series-by-series (label combination by label
combination) and their stage spans stage-by-stage (simulated seconds),
then prints every delta with its direction — the tool answers "what
changed between these runs" without eyeballing two JSON files.

Because ``metrics.json`` and ``spans.jsonl`` are deterministic
artifacts, a *seeded replay* of a run diffs empty against the original;
any non-empty diff therefore reflects a real configuration, code or
data difference, which is what makes the output usable as a regression
explanation (``collect_results.py --check-regress`` is the numeric
gate; this is the forensic view).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .spans import SPANS_FILE, read_spans
from .telemetry import METRICS_FILE


def _load_metrics(run_dir: Path) -> dict[str, Any]:
    path = run_dir / METRICS_FILE
    if not path.is_file():
        return {}
    document = json.loads(path.read_text(encoding="utf-8"))
    return document.get("metrics", {})


def _series_values(family: dict[str, Any]) -> dict[tuple, dict[str, Any]]:
    """Flatten a family snapshot into {label-tuple: comparable values}."""
    flattened = {}
    for entry in family.get("series", []):
        key = tuple(sorted(entry.get("labels", {}).items()))
        if family.get("type") == "histogram":
            flattened[key] = {"count": entry.get("count", 0),
                              "sum": entry.get("sum", 0.0)}
        else:
            flattened[key] = {"value": entry.get("value", 0)}
    return flattened


def _stage_seconds(run_dir: Path) -> dict[str, float]:
    """Total simulated seconds per stage name, from ``spans.jsonl``."""
    path = run_dir / SPANS_FILE
    if not path.is_file():
        return {}
    totals: dict[str, float] = {}
    for span in read_spans(path):
        if span.get("name") != "stage":
            continue
        stage = str(span.get("attrs", {}).get("stage"))
        totals[stage] = round(
            totals.get(stage, 0.0) + float(span.get("duration", 0.0)), 9)
    return totals


def diff_runs(run_a: str | Path, run_b: str | Path) -> dict[str, Any]:
    """Structured telemetry differences between two run directories.

    Returns ``{"metrics": [...], "stages": [...]}`` where each metrics
    entry names a family, a label combination and the two values (one
    side ``None`` when the series exists in only one run), and each
    stages entry carries the per-stage simulated seconds.  Both lists
    empty means the runs' telemetry is identical.
    """
    run_a, run_b = Path(run_a), Path(run_b)
    metrics_a, metrics_b = _load_metrics(run_a), _load_metrics(run_b)
    metric_diffs = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        series_a = _series_values(metrics_a.get(name, {}))
        series_b = _series_values(metrics_b.get(name, {}))
        for key in sorted(set(series_a) | set(series_b)):
            value_a, value_b = series_a.get(key), series_b.get(key)
            if value_a != value_b:
                metric_diffs.append({
                    "family": name,
                    "labels": dict(key),
                    "a": value_a,
                    "b": value_b,
                })
    stages_a, stages_b = _stage_seconds(run_a), _stage_seconds(run_b)
    stage_diffs = []
    for stage in sorted(set(stages_a) | set(stages_b)):
        seconds_a = stages_a.get(stage)
        seconds_b = stages_b.get(stage)
        if seconds_a != seconds_b:
            stage_diffs.append({"stage": stage,
                                "a": seconds_a, "b": seconds_b})
    return {"metrics": metric_diffs, "stages": stage_diffs}


def _format_side(value: dict[str, Any] | None) -> str:
    if value is None:
        return "(absent)"
    if "value" in value:
        return str(value["value"])
    return f"count={value['count']} sum={value['sum']}"


def render_diff(diff: dict[str, Any], run_a: str | Path,
                run_b: str | Path) -> str:
    """Human-readable rendering of a :func:`diff_runs` result."""
    lines = [f"telemetry diff: A={run_a}  B={run_b}", ""]
    if not diff["metrics"] and not diff["stages"]:
        lines.append("no differences — the runs' deterministic "
                     "telemetry is identical")
        return "\n".join(lines) + "\n"
    if diff["metrics"]:
        lines.append(f"metrics ({len(diff['metrics'])} differing series)")
        for entry in diff["metrics"]:
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(entry["labels"].items()))
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(f"  {entry['family']}{suffix}: "
                         f"A={_format_side(entry['a'])}  "
                         f"B={_format_side(entry['b'])}")
        lines.append("")
    if diff["stages"]:
        lines.append("stage spans (simulated seconds)")
        for entry in diff["stages"]:
            side_a = ("(absent)" if entry["a"] is None
                      else f"{entry['a']:.3f}s")
            side_b = ("(absent)" if entry["b"] is None
                      else f"{entry['b']:.3f}s")
            lines.append(f"  {entry['stage']}: A={side_a}  B={side_b}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
