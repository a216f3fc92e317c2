"""Run telemetry: metrics, spans, wall-clock profiles, run inspection.

The observability layer of the staged engine (``docs/observability.md``):

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms with deterministic JSON snapshots;
* :mod:`repro.obs.spans` — nested spans on the shared simulated clock,
  written as ``spans.jsonl`` and bit-identical across seeded replays
  and kill/resume;
* :mod:`repro.obs.profiling` — the ambient activation stack the
  algorithmic hot paths report through without ever seeing a run
  context: the one wall-clock instrument (dumped to ``profile.json``
  and excluded from every deterministic artifact) plus the two
  hot-path metrics it feeds into the run's registry;
* :mod:`repro.obs.telemetry` — the per-run binder feeding metrics from
  the event bus and direct instrumentation;
* :mod:`repro.obs.workers` — worker-side telemetry capture for the
  sharded executor (logical worker slots, section capture/merge);
* :mod:`repro.obs.prometheus` — text-exposition rendering;
* :mod:`repro.obs.report` — the ``python -m repro.obs report`` tables;
* :mod:`repro.obs.progress` — the live progress view (read, not written);
* :mod:`repro.obs.tail` — incremental, torn-tolerant trace tailing;
* :mod:`repro.obs.serve` — the ``/metrics`` + ``/progress`` +
  ``/trace`` run-monitor HTTP endpoint;
* :mod:`repro.obs.diffing` — cross-run telemetry diffing;
* :mod:`repro.obs.timing` — the single platform-timing scraper behind
  every ``timing`` report section.

This package namespace re-exports only the engine-independent pieces:
:mod:`~repro.obs.telemetry`, :mod:`~repro.obs.report`,
:mod:`~repro.obs.progress`, :mod:`~repro.obs.serve` and
:mod:`~repro.obs.diffing` import engine modules (directly or through
the report loader) and are imported lazily by their users (the run
context, the CLI) to keep package initialization cycle-free — import
them by their full dotted path.
"""

from .prometheus import render_prometheus
from .profiling import PROFILE_FILE, SECTION_NAMES, Profiler, \
    profile_section
from .registry import MetricsRegistry
from .spans import SPAN_NAMES, SPANS_FILE, SpanTracer, read_spans
from .tail import TraceTail
from .timing import platform_timing
from .workers import capture_worker_sections, merge_worker_sections, \
    worker_slot

__all__ = [
    "MetricsRegistry",
    "PROFILE_FILE",
    "Profiler",
    "SECTION_NAMES",
    "SPAN_NAMES",
    "SPANS_FILE",
    "SpanTracer",
    "TraceTail",
    "capture_worker_sections",
    "merge_worker_sections",
    "platform_timing",
    "profile_section",
    "read_spans",
    "render_prometheus",
    "worker_slot",
]
