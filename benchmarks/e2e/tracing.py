"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public callables of ``repro`` at every module that
holds a reference to them, records one span per call (id, parent, name,
layer, t0, t1 and a few counts) in memory, and turns the span tree into
per-layer metrics.  Nothing in ``src/`` knows it is being traced; the
benchmark checks that a traced instance produces the same output as an
untraced one.

A span's *self* time is its duration minus the durations of its direct
children, so the self times of a tree sum to its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  "Class.method" patches the class;
# a plain function is replaced in every loaded ``repro`` module that
# holds it, which covers ``from x import f`` import sites.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.stages", "BlockStage.run", "engine.block"),
    ("repro.engine.stages", "TrainMatcherStage.run", "engine.train_matcher"),
    ("repro.engine.stages", "EstimateStage.run", "engine.estimate"),
    ("repro.engine.stages", "LocateDifficultStage.run", "engine.locate"),
    ("repro.engine.checkpoint", "Checkpointer.write", "engine.checkpoint"),
    ("repro.engine.checkpoint", "Checkpointer.write_inputs",
     "engine.checkpoint"),
    ("repro.core.blocker", "apply_rules_streaming", "core.blocker.apply"),
    ("repro.exec.executor", "apply_rules_sharded", "core.blocker.apply"),
    ("repro.plan.executor", "apply_rules_plan", "core.blocker.apply"),
    ("repro.core.blocker", "Blocker.select_rule_subset",
     "core.blocker.select"),
    ("repro.features.library", "build_feature_library", "features.library"),
    ("repro.features.vectorize", "vectorize_pairs", "features.vectorize"),
    ("repro.core.matcher", "ActiveLearningMatcher.step", "core.matcher.step"),
    ("repro.core.matcher", "ActiveLearningMatcher.train",
     "core.matcher.step"),
    ("repro.forest.forest", "train_forest", "forest.train"),
    ("repro.forest.forest", "RandomForest.vote_fractions", "forest.score"),
    ("repro.rules.extraction", "extract_rules", "rules.extract"),
    ("repro.rules.extraction", "extract_negative_rules", "rules.extract"),
    ("repro.rules.selection", "select_top_k", "rules.rank"),
    ("repro.rules.evaluation", "evaluate_rules", "rules.evaluate"),
    ("repro.core.estimator", "AccuracyEstimator.estimate",
     "core.estimator.estimate"),
    ("repro.core.locator", "DifficultPairsLocator.locate",
     "core.locator.locate"),
    ("repro.crowd.service", "LabelingService.label_batch", "crowd.label"),
    ("repro.crowd.service", "LabelingService.label_all", "crowd.label"),
    ("repro.storage.writer", "atomic_write_bytes", "storage.write"),
    ("repro.storage.writer", "atomic_write_text", "storage.write"),
    ("repro.storage.writer", "atomic_write_json", "storage.write"),
    ("repro.storage.writer", "atomic_write_npz", "storage.write"),
    ("repro.storage.writer", "ArtifactWriter.atomic_write_bytes",
     "storage.write"),
    ("repro.storage.writer", "ArtifactWriter.atomic_write_text",
     "storage.write"),
    ("repro.storage.writer", "ArtifactWriter.atomic_write_json",
     "storage.write"),
    ("repro.storage.writer", "ArtifactWriter.atomic_write_npz",
     "storage.write"),
    ("repro.obs.telemetry", "RunTelemetry.export", "obs.export"),
)

ROOT = "run"
"""The span the child opens around ``Corleone(...)`` and ``run``."""

STEP = "ActiveLearningMatcher.step"
"""Counted on its own: ``train`` calls it, so it is rarely outermost."""

GENERATE = "synth.generate"
"""The span around table generation, outside the root (set-up)."""

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    [name for _, _, name in TARGETS] + [GENERATE]))


def _tracker(service) -> int:
    return service.tracker.pairs_labeled


def _count_apply(args, result, before):
    return {"pairs": len(args[0]) * len(args[1])}


def _count_vectorize(args, result, before):
    return {"pairs": len(args[2])}


def _count_score(args, result, before):
    return {"rows": int(args[1].shape[0])}


def _count_labels(args, result, before):
    return {"requested": len(args[1]),
            "fresh": _tracker(args[0]) - before}


def _count_estimate(args, result, before):
    return {"labeled": _tracker(args[0].service) - before}


# span name -> (state taken before the call, counts taken after it)
_COUNTERS = {
    "core.blocker.apply": (None, _count_apply),
    "features.vectorize": (None, _count_vectorize),
    "forest.score": (None, _count_score),
    "crowd.label": (lambda args: _tracker(args[0]), _count_labels),
    "core.estimator.estimate": (lambda args: _tracker(args[0].service),
                                _count_estimate),
}


class Tracer:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        """Targets not found in this tree (renamed or removed code)."""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _open(self, name: str, function: str | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": name.rpartition(".")[0] or name,
            "fn": function,
            "t0": time.perf_counter() - self._origin,
            "t1": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter() - self._origin
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, function, name: str, attribute: str):
        before_fn, after_fn = _COUNTERS.get(name, (None, None))

        @functools.wraps(function)
        def traced(*args, **kwargs):
            before = before_fn(args) if before_fn is not None else None
            span = self._open(name, attribute)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if after_fn is not None:
                span["counts"] = after_fn(args, result, before)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the imported tree."""
        wrappers: dict[int, tuple[object, object]] = {}
        for module_name, attribute, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            owner_name, _, attr = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            original = (vars(owner).get(attr) if owner is not None
                        else None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(original, name, attribute)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        # Functions: every module-level name bound to the original,
        # in every loaded repro module, is an import site.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one traced call adds to a plain one, measured on a
        no-op with a scratch tracer (this tracer's spans are untouched)."""
        scratch = Tracer()

        def plain():
            return None

        traced = scratch._wrap(plain, "probe", "probe")
        start = time.perf_counter()
        for _ in range(calls):
            plain()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        return max(0.0, ((end - middle) - (middle - start)) / calls)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["t1"] - span["t0"]
    return own


def layer_metrics(spans: list[dict], root_id: int) -> dict[str, float]:
    """One instance's per-layer metrics from its span list.

    ``<name>_s`` sums self seconds over every span of that name;
    ``<name>_calls`` counts outermost spans of that name (a call made
    from inside another call of the same name is not counted again).
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def outermost(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == span["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
    totals: dict[str, dict[str, int]] = {}
    steps = 0
    for span in spans:
        name = span["name"]
        if name == ROOT:
            continue
        out[f"{name}_s"] += own[span["id"]]
        if span["fn"] == STEP:
            steps += 1
        if outermost(span):
            out[f"{name}_calls"] += 1
            for key, value in span.get("counts", {}).items():
                bucket = totals.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
    apply = totals.get("core.blocker.apply", {})
    labels = totals.get("crowd.label", {})
    out["engine.unattributed_s"] = own[root_id]
    out["core.matcher.steps"] = steps
    out["core.blocker.apply_pairs_per_s"] = (
        apply.get("pairs", 0) / out["core.blocker.apply_s"]
        if out["core.blocker.apply_s"] > 0 else 0.0)
    out["features.vectorized_pairs"] = totals.get(
        "features.vectorize", {}).get("pairs", 0)
    out["forest.rows_scored"] = totals.get("forest.score", {}).get("rows", 0)
    out["crowd.pairs_requested"] = labels.get("requested", 0)
    out["crowd.pairs_fresh"] = labels.get("fresh", 0)
    out["crowd.cache_hit_frac"] = (
        1.0 - labels["fresh"] / labels["requested"]
        if labels.get("requested") else 0.0)
    out["core.estimator.pairs_labeled"] = totals.get(
        "core.estimator.estimate", {}).get("labeled", 0)
    return out
