"""The run-metrics registry: counters, gauges and histograms.

A :class:`MetricsRegistry` holds metric *families* (one per metric
name); each family holds one series per distinct label combination.
Three deliberate constraints keep the registry inside the engine's
determinism contract (``docs/observability.md``):

* snapshots are plain, fully ordered JSON structures — two registries
  fed the same updates in the same order serialize byte-identically;
* state round-trips losslessly through :meth:`MetricsRegistry.state_dict`
  / :meth:`MetricsRegistry.load_state`, so metric state rides inside
  engine checkpoints and a resumed run's final snapshot equals the
  uninterrupted run's;
* histograms use *fixed* bucket bounds declared at registration time —
  no adaptive binning, so bucket layout never depends on the data.

Nothing here reads clocks (simulated or wall); the registry only counts
what instrumentation hands it.
"""

from __future__ import annotations

import bisect
from typing import Any

from ..exceptions import DataError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def format_bound(bound: float) -> str:
    """Render one histogram bucket bound the way Prometheus does.

    Integral bounds drop the trailing ``.0`` and infinity becomes
    ``+Inf``, so snapshots and the text exposition agree.
    """
    if bound == float("inf"):
        return "+Inf"
    value = float(bound)
    if value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """One monotonically increasing series."""

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise DataError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """One last-value-wins series."""

    def __init__(self) -> None:
        self.value: int | float = 0

    # corlint: disable-next-line=CL006 — Prometheus gauge verb
    def set(self, value: int | float) -> None:
        """Replace the series value."""
        self.value = value


class Histogram:
    """One fixed-bucket distribution series.

    ``bounds`` are the *upper* bucket bounds in increasing order; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    Counts are stored per bucket (non-cumulative) and rendered
    cumulatively, matching Prometheus histogram semantics.
    """

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += float(value)
        self.count += 1


class MetricFamily:
    """All series of one metric name, keyed by label values."""

    def __init__(self, kind: str, name: str, help_text: str,
                 label_names: tuple[str, ...] = (),
                 buckets: tuple[float, ...] | None = None) -> None:
        self.kind = kind
        self.name = name
        self.help_text = help_text
        self.label_names = label_names
        self.buckets = buckets
        self._series: dict[tuple[str, ...], Any] = {}

    def labels(self, **labels: str) -> Any:
        """The series for one label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise DataError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        if key not in self._series:
            self._series[key] = self._new_series()
        return self._series[key]

    def inc(self, amount: int | float = 1, **labels: str) -> None:
        """Increment the (labelled) counter series."""
        self.labels(**labels).inc(amount)

    # corlint: disable-next-line=CL006 — Prometheus gauge verb
    def set(self, value: int | float, **labels: str) -> None:
        """Set the (labelled) gauge series."""
        self.labels(**labels).set(value)

    def observe(self, value: int | float, **labels: str) -> None:
        """Observe into the (labelled) histogram series."""
        self.labels(**labels).observe(value)

    def total(self) -> int | float:
        """Sum of the counter or gauge series, 0 with none yet (read
        without creating a series)."""
        return sum(child.value for child in self._series.values())

    def _new_series(self) -> Any:
        if self.kind == COUNTER:
            return Counter()
        if self.kind == GAUGE:
            return Gauge()
        return Histogram(self.buckets or ())

    # -- serialization --------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """This family as an ordered, JSON-compatible dict."""
        series = []
        for key in sorted(self._series):
            entry: dict[str, Any] = {
                "labels": dict(zip(self.label_names, key)),
            }
            child = self._series[key]
            if self.kind == HISTOGRAM:
                cumulative, running = [], 0
                for bound, count in zip((*child.bounds, float("inf")),
                                        child.counts):
                    running += count
                    cumulative.append({"le": format_bound(bound),
                                       "count": running})
                entry["buckets"] = cumulative
                entry["count"] = child.count
                entry["sum"] = child.sum
            else:
                entry["value"] = child.value
            series.append(entry)
        return {
            "type": self.kind,
            "help": self.help_text,
            "label_names": list(self.label_names),
            "series": series,
        }

    def state_dict(self) -> list[list[Any]]:
        """Raw series state (label values + internal counters)."""
        state = []
        for key in sorted(self._series):
            child = self._series[key]
            if self.kind == HISTOGRAM:
                value: Any = {"counts": list(child.counts),
                              "sum": child.sum, "count": child.count}
            else:
                value = child.value
            state.append([list(key), value])
        return state

    def load_state(self, state: list[list[Any]]) -> None:
        """Restore series captured by :meth:`state_dict`."""
        self._series.clear()
        for key, value in state:
            child = self._new_series()
            if self.kind == HISTOGRAM:
                child.counts = [int(c) for c in value["counts"]]
                child.sum = float(value["sum"])
                child.count = int(value["count"])
            else:
                child.value = value
            self._series[tuple(str(k) for k in key)] = child


class MetricsRegistry:
    """A named collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def counter(self, name: str, help_text: str = "",
                label_names: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(COUNTER, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(GAUGE, name, help_text, label_names)

    def histogram(self, name: str, buckets: tuple[float, ...],
                  help_text: str = "",
                  label_names: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._register(HISTOGRAM, name, help_text, label_names,
                              buckets=tuple(float(b) for b in buckets))

    def get(self, name: str) -> MetricFamily:
        """The registered family called ``name``."""
        try:
            return self._families[name]
        except KeyError:
            raise DataError(f"unknown metric {name!r}") from None

    def _register(self, kind: str, name: str, help_text: str,
                  label_names: tuple[str, ...],
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise DataError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        family = MetricFamily(kind, name, help_text,
                              tuple(label_names), buckets)
        self._families[name] = family
        return family

    def snapshot(self) -> dict[str, Any]:
        """Every family, name-sorted, as one JSON-compatible dict."""
        return {name: self._families[name].snapshot()
                for name in sorted(self._families)}

    def state_dict(self) -> dict[str, Any]:
        """Checkpointable registry state (series values only)."""
        return {name: family.state_dict()
                for name, family in sorted(self._families.items())
                if family.state_dict()}

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore series state into the already-registered families.

        Families absent from ``state`` are reset to empty; unknown names
        in ``state`` are an error (the catalog is fixed per run).
        """
        for name, family in self._families.items():
            family.load_state(state.get(name, []))
        unknown = set(state) - set(self._families)
        if unknown:
            raise DataError(
                f"checkpoint carries unregistered metrics: {sorted(unknown)}"
            )
