"""Command-line run inspection: ``python -m repro.obs <command>``.

Commands:

* ``report <run_dir>`` — render the per-stage time/cost/label/fault
  tables and the budget-burn summary from a run directory's artifacts
  (an incomplete run renders what exists and is marked in-flight);
* ``prom <run_dir>`` — render the run's ``metrics.json`` in Prometheus
  text-exposition format (what a scrape endpoint would serve);
* ``serve <run_dir>`` — expose ``/metrics``, ``/progress`` and
  ``/trace?after=N`` over stdlib HTTP (the live run monitor);
* ``watch <run_dir>`` — tail ``trace.jsonl`` into a refreshing
  terminal progress view;
* ``diff <run_a> <run_b>`` — align two runs' metric families and stage
  spans and print every delta (exit 1 when the runs differ).

Everything reads only the run directory (JSON + JSONL); importing
``repro`` still loads numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .prometheus import render_prometheus
from .report import render_report, render_watch
from .telemetry import METRICS_FILE


def _watch(run_dir: Path, interval: float, iterations: int) -> int:
    """The ``watch`` refresh loop (bounded when ``iterations`` > 0)."""
    from .progress import ProgressView

    view = ProgressView(run_dir)
    count = 0
    while True:
        frame = render_watch(view.read(), view.tail.effective())
        # One ANSI clear per frame; piped output just concatenates.
        if sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        sys.stdout.write(f"watching {run_dir}\n{frame}")
        sys.stdout.flush()
        count += 1
        if iterations > 0 and count >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect a Corleone run directory's telemetry.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report", help="render the run-inspection tables")
    report.add_argument("run_dir", help="a checkpointed run directory")
    prom = commands.add_parser(
        "prom", help="render metrics.json as Prometheus text exposition")
    prom.add_argument("run_dir", help="a checkpointed run directory")
    serve = commands.add_parser(
        "serve", help="serve /metrics, /progress and /trace over HTTP")
    serve.add_argument("run_dir", help="a (possibly live) run directory")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port (default 8000; 0 = ephemeral)")
    watch = commands.add_parser(
        "watch", help="tail a live run into a refreshing terminal view")
    watch.add_argument("run_dir", help="a (possibly live) run directory")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default 1.0)")
    watch.add_argument("--iterations", type=int, default=0,
                       help="stop after N frames (0 = until Ctrl-C)")
    diff = commands.add_parser(
        "diff", help="explain telemetry deltas between two run dirs")
    diff.add_argument("run_a", help="baseline run directory")
    diff.add_argument("run_b", help="comparison run directory")
    args = parser.parse_args(argv)

    if args.command == "diff":
        from .diffing import diff_runs, render_diff
        for candidate in (args.run_a, args.run_b):
            if not Path(candidate).is_dir():
                print(f"error: {candidate} is not a directory",
                      file=sys.stderr)
                return 2
        result = diff_runs(args.run_a, args.run_b)
        sys.stdout.write(render_diff(result, args.run_a, args.run_b))
        return 1 if (result["metrics"] or result["stages"]) else 0

    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"error: {run_dir} is not a directory", file=sys.stderr)
        return 2
    if args.command == "report":
        sys.stdout.write(render_report(run_dir))
        return 0
    if args.command == "serve":
        from .serve import serve as run_server
        run_server(run_dir, host=args.host, port=args.port)
        return 0
    if args.command == "watch":
        return _watch(run_dir, args.interval, args.iterations)
    metrics_path = run_dir / METRICS_FILE
    if not metrics_path.is_file():
        print(f"error: {metrics_path} not found (telemetry disabled?)",
              file=sys.stderr)
        return 2
    document = json.loads(metrics_path.read_text())
    sys.stdout.write(render_prometheus(document["metrics"]))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
