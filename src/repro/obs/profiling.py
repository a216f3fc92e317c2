"""The ambient activation stack the hot paths report through.

The engine *activates* the run's :class:`Profiler` for the duration of
a run (nested runs push their own; reports go to the innermost), so the
hot paths report without ever seeing a run context; with nothing
active every call is a cheap no-op.  Two kinds of figure flow here:

* **wall-clock sections** — :func:`profile_section` measures *real*
  time (``time.perf_counter``) into ``profile.json``, the one
  sanctioned non-deterministic instrument: it is excluded from traces,
  spans, metrics and checkpoints and marked ``deterministic: false``;
* **two deterministic metrics** — :func:`record_trees_trained` and
  :func:`record_entropy_pool` feed the active profiler's metrics
  registry (a :class:`~repro.obs.telemetry.RunTelemetry` builds its
  profiler with the run's registry; worker-capture profilers have
  none).  The registry is checkpointed, so they survive kill/resume.

Most of the hot paths live inside corlint CL001's wall-clock-free zone
(``core/``, ``forest/``, ``crowd/``, ``rules/``), so they must not
read clocks directly; instead they call :func:`profile_section`.  The
clock reads happen here, in ``obs/``, outside CL001's scope — by
design, not by loophole: the measurements never feed back into any
algorithmic decision.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..storage.writer import atomic_write_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import MetricsRegistry

PROFILE_FILE = "profile.json"

SECTION_NAMES = (
    "blocker.shard_prewarm",
    "blocker.shard_flush",
    "features.vectorize_pairs",
    "forest.train_forest",
)
"""The closed registry of profiled hot-path sections.

corlint CL017 requires every ``profile_section(...)`` call site to pass
a string literal drawn from this tuple, so the profile schema stays
greppable and ``docs/observability.md`` can enumerate it.  Worker-side
sections are re-keyed as ``worker{slot}.{name}`` when merged (see
:mod:`repro.obs.workers`); only the base names are registered here.
"""

_ACTIVE: list["Profiler"] = []
"""The activation stack; every hot-path report goes to the top."""


class Profiler:
    """Accumulates wall-clock call counts and seconds per section."""

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.sections: dict[str, dict[str, float]] = {}
        self.registry = registry
        """Where the two hot-path metrics go (None: dropped)."""

    def record(self, name: str, seconds: float) -> None:
        """Add one timed call to section ``name``."""
        entry = self.sections.setdefault(name,
                                         {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += seconds

    def to_dict(self) -> dict[str, Any]:
        """The profile document written to ``profile.json``."""
        return {
            "format": "corleone-profile",
            "deterministic": False,
            "note": ("wall-clock seconds; varies run to run and is "
                     "excluded from traces, spans and checkpoints"),
            "sections": {
                name: {"calls": int(entry["calls"]),
                       "seconds": round(entry["seconds"], 6)}
                for name, entry in sorted(self.sections.items())
            },
        }

    def write(self, path: str | Path) -> None:
        """Atomically write the profile document.

        Routed through :mod:`repro.storage.writer` as a volatile
        snapshot (atomic replace, no fsync) and never recorded in the
        run manifest: the profile is wall-clock noise by design, so a
        checksum over it would flag every legitimate rewrite as
        corruption — and losing it to a power cut loses nothing.
        """
        atomic_write_json(Path(path), self.to_dict(), indent=2,
                          sort_keys=True, durable=False)


def activate(profiler: Profiler) -> None:
    """Make ``profiler`` the target of every hot-path report."""
    _ACTIVE.append(profiler)


def deactivate(profiler: Profiler) -> None:
    """Remove ``profiler`` from the activation stack (no-op if absent)."""
    if profiler in _ACTIVE:
        _ACTIVE.remove(profiler)


def active_profiler() -> Profiler | None:
    """The innermost active profiler (None when nothing is active)."""
    return _ACTIVE[-1] if _ACTIVE else None


def record_trees_trained(n_trees: int) -> None:
    """Count ``n_trees`` freshly trained decision trees."""
    profiler = active_profiler()
    if profiler is not None and profiler.registry is not None:
        profiler.registry.get("corleone_trees_trained_total").inc(
            int(n_trees))


def record_entropy_pool(size: int) -> None:
    """Observe the size of one active-learning entropy pool."""
    profiler = active_profiler()
    if profiler is not None and profiler.registry is not None:
        profiler.registry.get("corleone_entropy_pool_size").observe(
            int(size))


@contextmanager
def profile_section(name: str):
    """Time a hot-path section on the active profiler (if any).

    With no active profiler this is a cheap pass-through, so the hot
    paths can keep the call unconditionally.
    """
    if not _ACTIVE:
        yield
        return
    profiler = _ACTIVE[-1]
    started = time.perf_counter()
    try:
        yield
    finally:
        profiler.record(name, time.perf_counter() - started)
