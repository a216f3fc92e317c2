"""The single source of run-timing truth.

:func:`platform_timing` scrapes a platform stack once; every ``timing``
report section comes from it.  All figures are *simulated* seconds
from the stack's shared :class:`~repro.crowd.latency.SimulatedClock`.
"""

from __future__ import annotations

from typing import Any

from ..crowd.base import layers


def platform_timing(platform: Any) -> dict[str, Any] | None:
    """Timing telemetry scraped from a platform stack (or None).

    One pass over the layers collects ``elapsed_seconds``/
    ``retry_seconds`` from :class:`~repro.crowd.latency.TimedCrowd` and
    retry counters from :class:`~repro.crowd.gateway.ResilientCrowd`;
    without a timed layer, elapsed time is the first clock's (a gateway
    keeps one).  None when no layer tracks time.
    """
    timing: dict[str, Any] = {}
    retry_seconds = 0.0
    saw_timer = False
    clock_now = None
    for layer in layers(platform):
        if (hasattr(layer, "elapsed_seconds")
                and "elapsed_seconds" not in timing):
            timing["elapsed_seconds"] = float(layer.elapsed_seconds)
            saw_timer = True
        if hasattr(layer, "retry_seconds"):
            retry_seconds += float(layer.retry_seconds)
            saw_timer = True
        for counter in ("retries_scheduled", "hits_reposted",
                        "answers_recovered"):
            if hasattr(layer, counter) and counter not in timing:
                timing[counter] = int(getattr(layer, counter))
        clock = getattr(layer, "clock", None)
        if clock_now is None and hasattr(clock, "now"):
            clock_now = float(clock.now)
    if not saw_timer:
        return None
    if "elapsed_seconds" not in timing and clock_now is not None:
        timing["elapsed_seconds"] = clock_now
    timing["retry_seconds"] = retry_seconds
    return timing
