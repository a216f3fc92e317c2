"""The run context: named RNG streams plus the run's shared services.

One :class:`RunContext` is built per hands-off run.  It owns everything
the stages share:

* **named RNG streams** — each orchestration component (blocker,
  matcher, estimator, locator) draws from its *own*
  ``np.random.Generator``, spawned from the run seed via
  ``np.random.SeedSequence``.  Streams are independent by construction,
  so an extra draw in one stage can no longer silently perturb every
  later stage (the coupling the old shared ``self.rng`` had);
* the :class:`~repro.crowd.service.LabelingService` and its
  :class:`~repro.crowd.cost.CostTracker`, wired to emit
  ``labels_purchased`` / ``budget_spent`` events on the bus;
* the optional :class:`~repro.core.budgeting.PhaseBudgetManager`;
* the :class:`~repro.engine.events.EventBus` and, when checkpointing is
  enabled, the engine's checkpoint callback;
* the run's :class:`~repro.obs.telemetry.RunTelemetry` (metrics
  registry, span tracer, wall-clock profiler), subscribed to the bus
  and sharing the platform stack's simulated clock — pass
  ``telemetry=False`` to run without instrumentation (the overhead
  benchmark's baseline).
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..config import CorleoneConfig
from ..crowd.base import CrowdPlatform, layers
from ..crowd.cost import CostTracker
from ..crowd.faults import FaultyCrowd
from ..crowd.gateway import ResilientCrowd, find_clock
from ..crowd.service import LabelingService
from ..core.budgeting import BudgetPlan, PhaseBudgetManager
from .events import (
    EVENT_BUDGET_SPENT,
    EVENT_CIRCUIT_OPENED,
    EVENT_FAULT_INJECTED,
    EVENT_HIT_REPOSTED,
    EVENT_LABELS_PURCHASED,
    EVENT_RETRY_SCHEDULED,
    EventBus,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .state import RunState

RNG_STREAMS = ("blocker", "matcher", "estimator", "locator", "engine")
"""The named streams every run pre-spawns, in fixed spawn-key order.

The order is part of the on-disk checkpoint contract: stream *i* is
spawned as child *i* of the run's root ``SeedSequence``, so the mapping
from name to stream is independent of first-access order.  Names
outside this tuple hash to high spawn keys (see
:meth:`RunContext.rng`), so ad-hoc streams are deterministic too.
"""

_HASH_KEY_BASE = 1 << 20
"""Spawn keys for unregistered stream names start here, far above the
registered range, so adding a registered stream never collides."""


class RunContext:
    """Everything one hands-off run shares across its stages."""

    def __init__(self, config: CorleoneConfig, platform: CrowdPlatform,
                 seed: int | np.random.SeedSequence | None = None,
                 rng: np.random.Generator | None = None,
                 budget_plan: BudgetPlan | None = None,
                 bus: EventBus | None = None,
                 telemetry: bool = True) -> None:
        self.config = config
        self.platform = platform
        self.bus = bus if bus is not None else EventBus()
        if rng is not None:
            # Back-compat: callers that hand in a Generator get streams
            # derived from that generator's own seed sequence.
            self._root_seed = rng.bit_generator.seed_seq
        elif isinstance(seed, np.random.SeedSequence):
            # Resume path: the exact root sequence from the run directory.
            self._root_seed = seed
        else:
            entropy = seed if seed is not None else config.seed
            self._root_seed = np.random.SeedSequence(entropy)
        self._streams: dict[str, np.random.Generator] = {}

        self.tracker = CostTracker(
            price_per_question=config.crowd.price_per_question,
            budget=config.budget,
        )
        self.service = LabelingService(platform, config.crowd, self.tracker)
        self.manager = (PhaseBudgetManager(budget_plan, self.tracker)
                        if budget_plan is not None else None)
        self.checkpoint: Callable[["RunState"], None] | None = None
        """Set by the engine when a run directory is configured; stages
        call it to persist the run state mid-stage (e.g. after every
        matcher iteration)."""

        self.run_dir: Any = None
        """Set by the engine alongside :attr:`checkpoint`: the run's
        directory (a :class:`~pathlib.Path`), which the sharded blocking
        executor uses for its per-shard resume files (``shards/``).
        None when the run is not persisted."""

        self.telemetry = None
        if telemetry:
            # Imported lazily: obs.telemetry pulls in engine.events, so
            # a module-level import would be circular during package
            # initialization.
            from ..obs.telemetry import RunTelemetry
            self.telemetry = RunTelemetry(clock=find_clock(platform))
            self.bus.subscribe(self.telemetry.on_event)
            self.telemetry.record_budget(config.budget)
            self.tracker.on_hits = self.telemetry.record_hits

        self.service.on_label = self._emit_label
        self.tracker.on_spend = self._emit_spend
        self._wire_platform(platform)

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------

    @property
    def root_seed(self) -> np.random.SeedSequence:
        """The run's root seed sequence (persisted in ``run.json``)."""
        return self._root_seed

    def rng(self, name: str) -> np.random.Generator:
        """The named stream's generator (one instance per run).

        Registered names map to fixed spawn keys; unregistered names get
        a CRC32-derived key, so every stream is a deterministic function
        of the run seed and its own name only.
        """
        if name not in self._streams:
            if name in RNG_STREAMS:
                key = RNG_STREAMS.index(name)
            else:
                key = _HASH_KEY_BASE + zlib.crc32(name.encode("utf-8"))
            child = np.random.SeedSequence(
                entropy=self._root_seed.entropy,
                spawn_key=(*self._root_seed.spawn_key, key),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def rng_states(self) -> dict[str, dict[str, Any]]:
        """Bit-generator state of every stream touched so far."""
        return {
            name: generator.bit_generator.state
            for name, generator in sorted(self._streams.items())
        }

    def restore_rng_states(self, states: dict[str, dict[str, Any]]) -> None:
        """Restore stream states captured by :meth:`rng_states`."""
        for name, state in states.items():
            self.rng(name).bit_generator.state = state

    # ------------------------------------------------------------------
    # Budget phases
    # ------------------------------------------------------------------

    def phase(self, name: str | None):
        """Context manager scoping spend to a budget phase (or a no-op)."""
        if self.manager is None or name is None:
            return nullcontext()
        return self.manager.phase(name)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Context manager opening a telemetry span (or a no-op)."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    # Event wiring
    # ------------------------------------------------------------------

    def _emit_label(self, pair, label: bool, strong: bool) -> None:
        """Forward one label purchase from the service to the bus."""
        self.bus.emit(
            EVENT_LABELS_PURCHASED,
            pair=[pair.a_id, pair.b_id],
            label=bool(label),
            strong=bool(strong),
            pairs_labeled=self.tracker.pairs_labeled,
        )

    def _emit_spend(self, answers: int, dollars: float) -> None:
        """Forward one spend increment from the tracker to the bus."""
        self.bus.emit(
            EVENT_BUDGET_SPENT,
            answers=int(answers),
            dollars=round(float(dollars), 10),
            total_dollars=round(self.tracker.dollars, 10),
        )

    def _wire_platform(self, platform: CrowdPlatform) -> None:
        """Hook the robustness wrappers in the stack up to this run.

        Walks every layer of the platform stack: a
        :class:`~repro.crowd.gateway.ResilientCrowd` is bound to the
        run's cost tracker (reposted HITs are metered) and its
        retry/repost/circuit hooks emit ``retry_scheduled`` /
        ``hit_reposted`` / ``circuit_opened`` events; a
        :class:`~repro.crowd.faults.FaultyCrowd` emits
        ``fault_injected``.  Plain platforms pass through untouched.
        """
        for layer in layers(platform):
            if isinstance(layer, ResilientCrowd):
                layer.bind_tracker(self.tracker)
                layer.on_retry = self._emit_retry
                layer.on_repost = self._emit_repost
                layer.on_circuit_open = self._emit_circuit_open
            if isinstance(layer, FaultyCrowd):
                layer.on_fault = self._emit_fault

    def _emit_fault(self, kind: str, pair) -> None:
        """Forward one injected fault from a FaultyCrowd to the bus."""
        self.bus.emit(EVENT_FAULT_INJECTED, kind=kind,
                      pair=[pair.a_id, pair.b_id])

    def _emit_retry(self, kind: str, attempt: int, delay: float) -> None:
        """Forward one scheduled retry from the gateway to the bus."""
        self.bus.emit(EVENT_RETRY_SCHEDULED, kind=kind,
                      attempt=int(attempt),
                      delay_seconds=round(float(delay), 6))

    def _emit_repost(self, pair, attempt: int) -> None:
        """Forward one HIT repost from the gateway to the bus."""
        self.bus.emit(EVENT_HIT_REPOSTED, pair=[pair.a_id, pair.b_id],
                      attempt=int(attempt))

    def _emit_circuit_open(self, failures: int) -> None:
        """Forward a circuit-breaker trip from the gateway to the bus."""
        self.bus.emit(EVENT_CIRCUIT_OPENED, failures=int(failures))
