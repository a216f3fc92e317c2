"""The run monitor: ``/metrics``, ``/progress`` and ``/trace`` over HTTP.

``python -m repro.obs serve <run_dir>`` binds a tiny stdlib
:class:`~http.server.ThreadingHTTPServer` against a run directory —
live or finished — and exposes:

* ``/metrics`` — the Prometheus text exposition rendered from
  ``metrics.json`` **at request time**.  The engine atomically rewrites
  that file at every stage boundary from checkpointed state, so each
  response is a prefix-consistent snapshot of the run so far and the
  sequence of responses converges to the final export, byte for byte —
  no torn reads, no partially applied checkpoints.
* ``/progress`` — the progress document (:mod:`repro.obs.progress`)
  as JSON, folded at request time from the trace tail below, the
  checkpoint log and ``run.json``.
* ``/trace?after=N`` — engine events with ``sequence > N`` as a JSON
  array, read through the torn-tolerant incremental tail
  (:class:`repro.obs.tail.TraceTail`), resume seams deduplicated
  latest-wins.

No third-party dependency, no background thread beyond what
``ThreadingHTTPServer`` spawns per request, and strictly read-only over
the run directory — the monitor can never perturb the run it watches.
This surface is the foundation for ROADMAP item 2's
Corleone-as-a-service ``/metrics``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .progress import ProgressView
from .prometheus import render_prometheus
from .telemetry import METRICS_FILE


class RunMonitorHandler(BaseHTTPRequestHandler):
    """Serves one run directory; bound via :func:`build_server`."""

    progress: ProgressView
    progress_lock: threading.Lock

    # -- endpoints ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's casing
        """Dispatch ``/metrics``, ``/progress`` and ``/trace``."""
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            self._serve_metrics()
        elif parsed.path == "/progress":
            self._serve_progress()
        elif parsed.path == "/trace":
            self._serve_trace(parse_qs(parsed.query))
        else:
            self._respond(404, "text/plain; charset=utf-8",
                          "not found: try /metrics, /progress or /trace\n")

    def _serve_metrics(self) -> None:
        path = self.progress.run_dir / METRICS_FILE
        if not path.is_file():
            self._respond(404, "text/plain; charset=utf-8",
                          "metrics.json not written yet\n")
            return
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            body = render_prometheus(document["metrics"])
        except (ValueError, KeyError):
            # Atomic rewrites make this unreachable for engine-written
            # files; a hand-damaged document degrades to a 503 rather
            # than a traceback in the monitor.
            self._respond(503, "text/plain; charset=utf-8",
                          "metrics.json is unreadable\n")
            return
        self._respond(200, "text/plain; version=0.0.4; charset=utf-8",
                      body)

    def _serve_progress(self) -> None:
        with self.progress_lock:
            document = self.progress.read()
        if document is None:
            self._respond(404, "text/plain; charset=utf-8",
                          "trace.jsonl not written yet\n")
            return
        self._respond(200, "application/json",
                      json.dumps(document, indent=2, sort_keys=True) + "\n")

    def _serve_trace(self, query: dict[str, list[str]]) -> None:
        try:
            after = int(query.get("after", ["-1"])[0])
        except ValueError:
            self._respond(400, "text/plain; charset=utf-8",
                          "after must be an integer sequence number\n")
            return
        tail = self.progress.tail
        with self.progress_lock:
            tail.poll()
            events = [record for record in tail.effective()
                      if record["sequence"] > after]
        self._respond(200, "application/json",
                      json.dumps(events, sort_keys=True) + "\n")

    # -- plumbing -------------------------------------------------------

    def _respond(self, status: int, content_type: str,
                 body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:
        """Silence per-request stderr chatter (the CLI prints the URL)."""


def build_server(run_dir: str | Path, host: str = "127.0.0.1",
                 port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` serving ``run_dir``.

    ``port=0`` picks a free ephemeral port (the tests' path); the bound
    address is on ``server.server_address``.  The caller owns the
    lifecycle: ``serve_forever()`` to block, ``shutdown()`` to stop.
    """
    handler = type("BoundRunMonitorHandler", (RunMonitorHandler,), {
        "progress": ProgressView(run_dir),
        "progress_lock": threading.Lock(),
    })
    return ThreadingHTTPServer((host, port), handler)


def serve(run_dir: str | Path, host: str = "127.0.0.1",
          port: int = 8000) -> None:
    """Blocking CLI entry point for ``python -m repro.obs serve``."""
    server = build_server(run_dir, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving {Path(run_dir)} on http://{bound_host}:{bound_port} "
          f"(/metrics /progress /trace?after=N) — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
