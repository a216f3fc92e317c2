"""corlint: the repo gate plus fixture tests for every rule.

Two layers: (1) the tier-1 gate — ``src/repro`` must produce zero
non-baselined findings against the checked-in baseline, with no stale
entries; (2) framework tests — per-rule fixture snippets (positive,
negative, suppressed, baselined), baseline semantics, reporter
round-trips and the CLI contract.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    Baseline,
    Severity,
    baseline_from_findings,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.cli import main as corlint_main
from repro.analysis.reporters import JSON_REPORT_VERSION

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "corlint-baseline.json"


def check(tree: dict[str, str], tmp_path: Path,
          baseline: Baseline | None = None):
    """Write ``relpath -> source`` fixtures and analyze the tree."""
    for relpath, source in tree.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    analyzer = Analyzer(use_cache=False, root=tmp_path)
    return analyzer.run([tmp_path], baseline=baseline)


def rule_ids(report) -> set[str]:
    """The distinct rule ids among a report's new findings."""
    return {finding.rule_id for finding in report.new_findings}


# ----------------------------------------------------------------------
# The repo gate (tier-1): src/repro is corlint-clean
# ----------------------------------------------------------------------


class TestRepoIsClean:
    def test_src_repro_has_no_new_findings(self):
        report = run_analysis([SRC], baseline_path=BASELINE)
        rendered = render_text(report)
        assert not report.new_findings, (
            "corlint found non-baselined findings:\n" + rendered
        )

    def test_baseline_has_no_stale_entries(self):
        report = run_analysis([SRC], baseline_path=BASELINE)
        assert not report.stale_entries, (
            "stale corlint baseline entries: "
            + ", ".join(e.fingerprint for e in report.stale_entries)
        )

    def test_every_baseline_entry_is_justified(self):
        payload = json.loads(BASELINE.read_text())
        for entry in payload["entries"]:
            justification = entry.get("justification", "")
            assert justification and "TODO" not in justification, (
                f"baseline entry {entry['fingerprint']} lacks a real "
                "justification"
            )


# ----------------------------------------------------------------------
# CL001 determinism
# ----------------------------------------------------------------------


class TestDeterminismRule:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL001"}
        assert len(report.new_findings) == 1

    def test_seeded_default_rng_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_legacy_numpy_global_rng_flagged(self, tmp_path):
        report = check({"forest/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    np.random.seed(4)\n"
            "    return np.random.rand(3)\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL001"}
        assert len(report.new_findings) == 2

    def test_stdlib_random_flagged(self, tmp_path):
        report = check({"crowd/mod.py": (
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL001"}

    def test_wall_clock_and_datetime_flagged(self, tmp_path):
        report = check({"rules/mod.py": (
            "import time\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    return time.time(), datetime.now()\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL001"}
        assert len(report.new_findings) == 2

    def test_threaded_generator_parameter_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.random()\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        report = check({"synth/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_inline_suppression(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()"
            "  # corlint: disable=CL001\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_disable_next_line_suppression(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    # corlint: disable-next-line=CL001\n"
            "    return np.random.default_rng()\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_pragma_in_string_literal_does_not_suppress(self, tmp_path):
        report = check({"core/mod.py": (
            "import numpy as np\n"
            "def f():\n"
            "    s = '# corlint: disable=CL001'\n"
            "    return np.random.default_rng(), s\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL001"}


# ----------------------------------------------------------------------
# CL002 accounting
# ----------------------------------------------------------------------

_DIRECT_ASK = (
    "def label(platform, pair):\n"
    "    return platform.ask(pair).label\n"
)


class TestAccountingRule:
    def test_direct_ask_flagged(self, tmp_path):
        report = check({"core/mod.py": _DIRECT_ASK}, tmp_path)
        assert rule_ids(report) == {"CL002"}

    def test_ask_many_flagged(self, tmp_path):
        report = check({"evaluation/mod.py": (
            "def label(platform, pairs):\n"
            "    return platform.ask_many(pairs, 3)\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL002"}

    def test_service_module_exempt(self, tmp_path):
        report = check({"crowd/service.py": _DIRECT_ASK}, tmp_path)
        assert report.new_findings == []

    def test_platform_subclass_forwarding_exempt(self, tmp_path):
        report = check({"crowd/wrapper.py": (
            "from .base import CrowdPlatform\n"
            "class Proxy(CrowdPlatform):\n"
            "    def ask(self, pair):\n"
            "        return self._inner.ask(pair)\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_test_modules_exempt(self, tmp_path):
        report = check({"tests/test_mod.py": _DIRECT_ASK}, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# CL003 kernel parity
# ----------------------------------------------------------------------

_LIBRARY_TEMPLATE = (
    "_MEASURE_COSTS = {{\n{measures}}}\n"
)
_BATCH_TEMPLATE = (
    "def _k(*args):\n"
    "    return None\n"
    "_KERNELS = {{\n{kernels}}}\n"
    "def kernel_for(measure, attr_type):\n"
    "    if measure == 'exact':\n"
    "        return _k\n"
    "    return _KERNELS.get(measure)\n"
)


def _parity_tree(measures: str, kernels: str) -> dict[str, str]:
    return {
        "features/library.py": _LIBRARY_TEMPLATE.format(measures=measures),
        "features/batch.py": _BATCH_TEMPLATE.format(kernels=kernels),
    }


class TestKernelParityRule:
    def test_matched_registries_ok(self, tmp_path):
        tree = _parity_tree(
            "    'exact': 1.0,\n    'jaccard': 3.0,\n",
            "    'jaccard': _k,\n",
        )
        report = check(tree, tmp_path)
        assert report.new_findings == []

    def test_measure_without_kernel_flagged(self, tmp_path):
        tree = _parity_tree(
            "    'exact': 1.0,\n    'orphan_measure': 3.0,\n",
            "",
        )
        report = check(tree, tmp_path)
        assert rule_ids(report) == {"CL003"}
        (finding,) = report.new_findings
        assert "orphan_measure" in finding.message
        assert finding.path.endswith("features/library.py")

    def test_kernel_without_measure_flagged(self, tmp_path):
        tree = _parity_tree(
            "    'exact': 1.0,\n",
            "    'orphan_kernel': _k,\n",
        )
        report = check(tree, tmp_path)
        assert rule_ids(report) == {"CL003"}
        (finding,) = report.new_findings
        assert "orphan_kernel" in finding.message
        assert finding.path.endswith("features/batch.py")

    def test_rule_silent_without_both_registries(self, tmp_path):
        report = check({
            "features/library.py": "_MEASURE_COSTS = {'exact': 1.0}\n",
        }, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# CL004 numeric hygiene
# ----------------------------------------------------------------------


class TestNumericHygieneRule:
    def test_float_literal_equality_flagged(self, tmp_path):
        report = check({"features/mod.py": (
            "def f(x):\n"
            "    return x == 0.5\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL004"}
        assert report.new_findings[0].severity is Severity.WARNING

    def test_nan_idiom_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "def f(x):\n"
            "    return x != x\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL004"}
        assert "isnan" in report.new_findings[0].message

    def test_untyped_comparison_not_flagged(self, tmp_path):
        report = check({"features/mod.py": (
            "def f(a, b):\n"
            "    return a == b\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_union_find_parent_lookup_not_flagged(self, tmp_path):
        # parent[x] != x is NOT the NaN idiom: the sides differ.
        report = check({"core/mod.py": (
            "def find(parent, x):\n"
            "    while parent[x] != x:\n"
            "        x = parent[x]\n"
            "    return x\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_intent_comment_suppresses(self, tmp_path):
        report = check({"rules/mod.py": (
            "def f(d):\n"
            "    # corlint: disable-next-line=CL004 — exact-zero guard\n"
            "    if d == 0.0:\n"
            "        return 0.0\n"
            "    return 1.0 / d\n"
        )}, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# CL005 picklability
# ----------------------------------------------------------------------


class TestPicklabilityRule:
    def test_lambda_into_pool_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "def run(pool, jobs):\n"
            "    return pool.map(lambda job: job, jobs)\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL005"}

    def test_nested_def_into_pool_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "def run(pool, jobs):\n"
            "    def worker(job):\n"
            "        return job\n"
            "    return pool.map(worker, jobs)\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL005"}

    def test_module_level_worker_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "def worker(job):\n"
            "    return job\n"
            "def run(pool, jobs):\n"
            "    return pool.map(worker, jobs)\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_partial_of_nested_def_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "from functools import partial\n"
            "def run(pool, jobs):\n"
            "    def worker(job, k):\n"
            "        return job + k\n"
            "    return pool.map(partial(worker, k=1), jobs)\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL005"}

    def test_non_pool_map_not_flagged(self, tmp_path):
        report = check({"core/mod.py": (
            "def run(frame, jobs):\n"
            "    return frame.map(lambda j: j, jobs)\n"
        )}, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# CL006 generic hygiene
# ----------------------------------------------------------------------


class TestGenericHygieneRule:
    def test_mutable_default_flagged(self, tmp_path):
        report = check({"anywhere/mod.py": (
            "def f(items=[]):\n"
            "    return items\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL006"}

    def test_none_default_ok(self, tmp_path):
        report = check({"anywhere/mod.py": (
            "def f(items=None):\n"
            "    return items or []\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_shadowed_builtin_flagged(self, tmp_path):
        report = check({"anywhere/mod.py": (
            "def f(values):\n"
            "    list = sorted(values)\n"
            "    return list\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL006"}

    def test_ordinary_names_ok(self, tmp_path):
        report = check({"anywhere/mod.py": (
            "def f(values):\n"
            "    ordered = sorted(values)\n"
            "    return ordered\n"
        )}, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# CL007 RNG stream sharing
# ----------------------------------------------------------------------


_SHARED_RNG = (
    "class Pipeline:\n"
    "    def run(self):\n"
    "        blocker = Blocker(self.config, self.rng)\n"
    "        matcher = Matcher(self.config, rng=self.rng)\n"
    "        return blocker, matcher\n"
)


class TestRngSharingRule:
    def test_two_constructors_sharing_self_rng_flagged(self, tmp_path):
        report = check({"core/mod.py": _SHARED_RNG}, tmp_path)
        assert rule_ids(report) == {"CL007"}
        assert len(report.new_findings) == 1

    def test_single_constructor_ok(self, tmp_path):
        report = check({"engine/mod.py": (
            "class Pipeline:\n"
            "    def run(self):\n"
            "        return Blocker(self.config, rng=self.rng)\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_distinct_streams_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "class Pipeline:\n"
            "    def run(self, ctx):\n"
            "        blocker = Blocker(self.config, ctx.rng('blocker'))\n"
            "        matcher = Matcher(self.config, ctx.rng('matcher'))\n"
            "        return blocker, matcher\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_sharing_across_functions_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "class Pipeline:\n"
            "    def block(self):\n"
            "        return Blocker(self.config, self.rng)\n"
            "    def match(self):\n"
            "        return Matcher(self.config, self.rng)\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_lowercase_helpers_ok(self, tmp_path):
        report = check({"core/mod.py": (
            "class Pipeline:\n"
            "    def run(self):\n"
            "        a = shuffle(self.rng)\n"
            "        b = sample(self.rng)\n"
            "        return a, b\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_outside_scope_ok(self, tmp_path):
        report = check({"crowd/mod.py": _SHARED_RNG}, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({"core/mod.py": (
            "class Pipeline:\n"
            "    def run(self):\n"
            "        blocker = Blocker(self.config, self.rng)\n"
            "        matcher = Matcher(self.config, rng=self.rng)"
            "  # corlint: disable=CL007\n"
            "        return blocker, matcher\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_baselined_sharing_allowed(self, tmp_path):
        first = check({"core/mod.py": _SHARED_RNG}, tmp_path)
        assert rule_ids(first) == {"CL007"}
        baseline = baseline_from_findings(first.new_findings)
        second = check({"core/mod.py": _SHARED_RNG}, tmp_path,
                       baseline=baseline)
        assert second.new_findings == []
        assert len(second.baselined_findings) == 1


_SWALLOWED = (
    "def fetch(platform, pair):\n"
    "    try:\n"
    "        return platform.submit(pair)\n"
    "    except CrowdError:\n"
    "        return None\n"
)


class TestSwallowedCrowdErrorRule:
    def test_silent_handler_flagged(self, tmp_path):
        report = check({"crowd/mod.py": _SWALLOWED}, tmp_path)
        assert rule_ids(report) == {"CL008"}
        assert len(report.new_findings) == 1

    def test_reraise_ok(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except TransientCrowdError:\n"
            "        cleanup()\n"
            "        raise\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_conditional_raise_ok(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair, attempt, limit):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except TransientCrowdError as error:\n"
            "        if attempt >= limit:\n"
            "            raise CrowdUnavailableError(attempt) from error\n"
            "        return None\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_emit_ok(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair, bus):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except CrowdError as error:\n"
            "        bus.emit('fault_injected', kind=str(error))\n"
            "        return None\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_budget_exhausted_exempt(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except BudgetExhaustedError:\n"
            "        return None\n"
        )}, tmp_path)
        assert report.new_findings == []

    def test_tuple_clause_flagged(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except (ValueError, HitExpiredError):\n"
            "        return None\n"
        )}, tmp_path)
        assert rule_ids(report) == {"CL008"}

    def test_test_modules_exempt(self, tmp_path):
        report = check({"test_mod.py": _SWALLOWED}, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({"crowd/mod.py": (
            "def fetch(platform, pair):\n"
            "    try:\n"
            "        return platform.submit(pair)\n"
            "    except CrowdError:  # corlint: disable=CL008\n"
            "        return None\n"
        )}, tmp_path)
        assert report.new_findings == []


_EVENT_REGISTRY = (
    "EVENT_STAGE_STARTED = \"stage_started\"\n"
    "EVENT_STAGE_FINISHED = \"stage_finished\"\n"
    "EVENT_NAMES = (\n"
    "    EVENT_STAGE_STARTED,\n"
    "    EVENT_STAGE_FINISHED,\n"
    ")\n"
)


class TestEventRegistryRule:
    def test_undeclared_literal_emit_flagged(self, tmp_path):
        report = check({
            "engine/events.py": _EVENT_REGISTRY,
            "engine/mod.py": (
                "def go(bus):\n"
                "    bus.emit(\"stage_stated\", stage=\"block\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL009"}
        assert len(report.new_findings) == 1
        assert "stage_stated" in report.new_findings[0].message

    def test_declared_literal_emit_ok(self, tmp_path):
        report = check({
            "engine/events.py": _EVENT_REGISTRY,
            "engine/mod.py": (
                "def go(bus):\n"
                "    bus.emit(\"stage_started\", stage=\"block\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_emit_via_constant_ok(self, tmp_path):
        report = check({
            "engine/events.py": _EVENT_REGISTRY,
            "engine/mod.py": (
                "from .events import EVENT_STAGE_FINISHED\n"
                "def go(bus):\n"
                "    bus.emit(EVENT_STAGE_FINISHED, stage=\"block\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_constant_missing_from_tuple_flagged(self, tmp_path):
        report = check({
            "engine/events.py": (
                _EVENT_REGISTRY
                + "EVENT_ORPHANED = \"orphaned\"\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL009"}
        assert "EVENT_ORPHANED" in report.new_findings[0].message

    def test_non_event_constant_in_registry_module_ok(self, tmp_path):
        report = check({
            "engine/events.py": (
                _EVENT_REGISTRY
                + "TRACE_FILE = \"trace.jsonl\"\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_no_registry_in_scan_stays_silent(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "def go(bus):\n"
                "    bus.emit(\"anything_at_all\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_test_modules_exempt(self, tmp_path):
        report = check({
            "engine/events.py": _EVENT_REGISTRY,
            "test_mod.py": (
                "def test_go(bus):\n"
                "    bus.emit(\"made_up_event\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({
            "engine/events.py": _EVENT_REGISTRY,
            "engine/mod.py": (
                "def go(bus):\n"
                "    bus.emit(\"made_up\")"
                "  # corlint: disable=CL009\n"
            ),
        }, tmp_path)
        assert report.new_findings == []


_TELEMETRY_REGISTRIES = {
    "obs/profiling.py": (
        "SECTION_NAMES = (\n"
        "    \"blocker.stream_flush\",\n"
        "    \"forest.train_forest\",\n"
        ")\n"
    ),
    "obs/spans.py": (
        "SPAN_NAMES = (\n"
        "    \"run\",\n"
        "    \"stage\",\n"
        ")\n"
    ),
}


class TestTelemetryNameRule:
    def test_unregistered_section_literal_flagged(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "core/mod.py": (
                "def go():\n"
                "    with profile_section(\"blocker.steam_flush\"):\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL017"}
        assert "blocker.steam_flush" in report.new_findings[0].message

    def test_registered_section_literal_ok(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "core/mod.py": (
                "def go():\n"
                "    with profile_section(\"forest.train_forest\"):\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_computed_section_name_flagged(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "core/mod.py": (
                "def go(index):\n"
                "    with profile_section(f\"node.{index}\"):\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL017"}
        assert "not a string literal" in report.new_findings[0].message

    def test_unregistered_tracer_start_flagged(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "obs/mod.py": (
                "def go(tracer):\n"
                "    return tracer.start(\"stge\", stage=\"block\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL017"}
        assert "stge" in report.new_findings[0].message

    def test_registered_tracer_attribute_start_ok(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "obs/mod.py": (
                "def go(self):\n"
                "    return self.tracer.start(\"run\", mode=\"fresh\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_non_tracer_start_skipped(self, tmp_path):
        # Matcher objects expose .start too; only tracer receivers are
        # span-name call sites.
        report = check({
            **_TELEMETRY_REGISTRIES,
            "core/mod.py": (
                "def go(matcher, working):\n"
                "    return matcher.start(working, None)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_unregistered_span_literal_flagged(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "engine/mod.py": (
                "def go(ctx):\n"
                "    with ctx.span(\"stages\", stage=\"block\"):\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL017"}
        assert "stages" in report.new_findings[0].message

    def test_forwarded_span_name_skipped(self, tmp_path):
        # The run context's span() wrapper forwards a non-literal name;
        # .span is only audited when the name is a literal.
        report = check({
            **_TELEMETRY_REGISTRIES,
            "engine/mod.py": (
                "def span(self, name, **attrs):\n"
                "    return self.telemetry.tracer.span(name, **attrs)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_silent_without_registries_in_scan(self, tmp_path):
        report = check({
            "core/mod.py": (
                "def go():\n"
                "    with profile_section(\"anything.at.all\"):\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_test_modules_exempt(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "test_mod.py": (
                "def test_go(tracer):\n"
                "    return tracer.start(\"bogus\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({
            **_TELEMETRY_REGISTRIES,
            "core/mod.py": (
                "def go(index):\n"
                "    with profile_section(f\"node.{index}\"):"
                "  # corlint: disable=CL017\n"
                "        pass\n"
            ),
        }, tmp_path)
        assert report.new_findings == []


class TestSpillOwnershipRule:
    def test_open_memmap_outside_spill_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.lib.format.open_memmap(path, mode=\"w+\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL015"}
        assert "SpillManager" in report.new_findings[0].message

    def test_raw_memmap_outside_spill_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.memmap(path, dtype=\"float64\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL015"}

    def test_bare_open_memmap_import_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "from numpy.lib.format import open_memmap\n"
                "def f(path):\n"
                "    return open_memmap(path, mode=\"w+\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL015"}

    def test_load_with_mmap_mode_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.load(path, mmap_mode=\"r\")\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL015"}
        assert "SpillManager" in report.new_findings[0].message

    def test_plain_load_ok(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.load(path, allow_pickle=False)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_load_mmap_mode_none_ok(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.load(path, mmap_mode=None)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_owner_module_exempt(self, tmp_path):
        report = check({
            "plan/spill.py": (
                "import numpy as np\n"
                "def allocate(path, shape):\n"
                "    return np.lib.format.open_memmap(\n"
                "        path, mode=\"w+\", shape=shape)\n"
                "def open_readonly(path):\n"
                "    return np.load(path, mmap_mode=\"r\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_test_modules_exempt(self, tmp_path):
        report = check({
            "test_mod.py": (
                "import numpy as np\n"
                "def test_f(path):\n"
                "    return np.load(path, mmap_mode=\"r\")\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import numpy as np\n"
                "def f(path):\n"
                "    return np.memmap(path)"
                "  # corlint: disable=CL015\n"
            ),
        }, tmp_path)
        assert report.new_findings == []


class TestStorageOwnershipRule:
    def test_os_replace_outside_storage_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import os\n"
                "def f(tmp, path):\n"
                "    os.replace(tmp, path)\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL016"}
        assert "repro.storage.writer" in report.new_findings[0].message

    def test_os_rename_and_fsync_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import os\n"
                "def f(tmp, path, fd):\n"
                "    os.rename(tmp, path)\n"
                "    os.fsync(fd)\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL016"}
        assert len(report.new_findings) == 2

    def test_bare_replace_import_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "from os import replace\n"
                "def f(tmp, path):\n"
                "    replace(tmp, path)\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL016"}

    def test_aliased_os_import_flagged(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import os as operating_system\n"
                "def f(tmp, path):\n"
                "    operating_system.replace(tmp, path)\n"
            ),
        }, tmp_path)
        assert rule_ids(report) == {"CL016"}

    def test_unowned_os_calls_ok(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import os\n"
                "def f(path):\n"
                "    os.remove(path)\n"
                "    return os.cpu_count()\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_storage_package_exempt(self, tmp_path):
        report = check({
            "repro/storage/writer.py": (
                "import os\n"
                "def atomic(tmp, path, fd):\n"
                "    os.fsync(fd)\n"
                "    os.replace(tmp, path)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_test_modules_exempt(self, tmp_path):
        report = check({
            "test_mod.py": (
                "import os\n"
                "def test_f(tmp, path):\n"
                "    os.replace(tmp, path)\n"
            ),
        }, tmp_path)
        assert report.new_findings == []

    def test_suppressed_with_pragma(self, tmp_path):
        report = check({
            "engine/mod.py": (
                "import os\n"
                "def f(tmp, path):\n"
                "    os.replace(tmp, path)"
                "  # corlint: disable=CL016\n"
            ),
        }, tmp_path)
        assert report.new_findings == []


# ----------------------------------------------------------------------
# Baseline semantics
# ----------------------------------------------------------------------

_BAD_RNG = {
    "core/mod.py": (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng()\n"
    ),
}


class TestBaseline:
    def test_baselined_finding_does_not_fail(self, tmp_path):
        first = check(_BAD_RNG, tmp_path)
        assert len(first.new_findings) == 1
        baseline = baseline_from_findings(first.new_findings)
        second = check(_BAD_RNG, tmp_path, baseline=baseline)
        assert second.new_findings == []
        assert len(second.baselined_findings) == 1
        assert second.stale_entries == []
        assert second.clean

    def test_fixed_finding_turns_entry_stale(self, tmp_path):
        first = check(_BAD_RNG, tmp_path)
        baseline = baseline_from_findings(first.new_findings)
        fixed = {"core/mod.py": (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )}
        second = check(fixed, tmp_path, baseline=baseline)
        assert second.new_findings == []
        assert len(second.stale_entries) == 1
        assert not second.clean

    def test_fingerprint_survives_line_shift(self, tmp_path):
        first = check(_BAD_RNG, tmp_path)
        baseline = baseline_from_findings(first.new_findings)
        shifted = {"core/mod.py": (
            "import numpy as np\n"
            "\n"
            "# an unrelated comment pushes the finding down\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )}
        second = check(shifted, tmp_path, baseline=baseline)
        assert second.new_findings == []
        assert len(second.baselined_findings) == 1

    def test_update_preserves_justifications(self, tmp_path):
        first = check(_BAD_RNG, tmp_path)
        baseline = baseline_from_findings(first.new_findings)
        entry = baseline.entries[0]
        object.__setattr__(entry, "justification", "kept on purpose")
        again = baseline_from_findings(first.new_findings,
                                       previous=baseline)
        assert again.entries[0].justification == "kept on purpose"

    def test_roundtrip_through_file(self, tmp_path):
        first = check(_BAD_RNG, tmp_path)
        baseline = baseline_from_findings(first.new_findings)
        target = tmp_path / "baseline.json"
        baseline.write(target)
        loaded = Baseline.load(target)
        assert [e.fingerprint for e in loaded.entries] == [
            e.fingerprint for e in baseline.entries
        ]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


class TestReporters:
    def test_json_report_is_stable_and_parseable(self, tmp_path):
        report = check(_BAD_RNG, tmp_path)
        once = render_json(report)
        twice = render_json(check(_BAD_RNG, tmp_path))
        assert once == twice
        payload = json.loads(once)
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["tool"] == "corlint"
        (finding,) = payload["findings"]
        assert finding["rule"] == "CL001"
        assert finding["severity"] == "error"
        assert finding["baselined"] is False
        assert payload["summary"]["new_by_rule"] == {"CL001": 1}

    def test_json_findings_sorted_by_location(self, tmp_path):
        report = check({
            "core/b.py": _BAD_RNG["core/mod.py"],
            "core/a.py": _BAD_RNG["core/mod.py"],
        }, tmp_path)
        payload = json.loads(render_json(report))
        paths = [f["path"] for f in payload["findings"]]
        assert paths == sorted(paths)

    def test_text_report_names_rule_and_location(self, tmp_path):
        report = check(_BAD_RNG, tmp_path)
        rendered = render_text(report)
        assert "core/mod.py:3" in rendered
        assert "CL001 error" in rendered
        assert "1 new finding(s)" in rendered


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_dirty_tree_exits_1(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        code = corlint_main([str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CL001" in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("X = 1\n")
        code = corlint_main([str(tmp_path), "--no-cache"])
        assert code == 0

    def test_select_restricts_rules(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        code = corlint_main([str(tmp_path), "--no-cache",
                             "--select", "CL006"])
        assert code == 0

    def test_select_does_not_stale_other_rules_baseline(self, tmp_path,
                                                        capsys):
        # A CL001 baseline entry must not be reported stale when the
        # run is restricted to an unrelated rule.
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        baseline_path = tmp_path / "baseline.json"
        assert corlint_main([str(tmp_path), "--no-cache",
                             "--baseline", str(baseline_path),
                             "--update-baseline"]) == 0
        code = corlint_main([str(tmp_path), "--no-cache",
                             "--baseline", str(baseline_path),
                             "--select", "CL006"])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        code = corlint_main([str(tmp_path), "--no-cache",
                             "--select", "CL999"])
        assert code == 2

    def test_list_rules_catalogs_all_six(self, capsys):
        code = corlint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ("CL001", "CL002", "CL003", "CL004", "CL005",
                        "CL006"):
            assert rule_id in out

    def test_update_baseline_writes_file(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        baseline_path = tmp_path / "baseline.json"
        code = corlint_main([str(tmp_path), "--no-cache",
                             "--baseline", str(baseline_path),
                             "--update-baseline"])
        assert code == 0
        assert baseline_path.is_file()
        rerun = corlint_main([str(tmp_path), "--no-cache",
                              "--baseline", str(baseline_path)])
        assert rerun == 0

    def test_json_output_to_file(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("X = 1\n")
        out_path = tmp_path / "report.json"
        code = corlint_main([str(tmp_path), "--no-cache",
                             "--format", "json",
                             "--output", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["tool"] == "corlint"


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


class TestCache:
    def test_warm_cache_reproduces_findings(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        analyzer = Analyzer(use_cache=True, root=tmp_path)
        cold = analyzer.run([tmp_path])
        assert (tmp_path / ".corlint_cache" / "findings.json").is_file()
        warm = Analyzer(use_cache=True, root=tmp_path).run([tmp_path])
        assert [f.to_dict() for f in warm.new_findings] == [
            f.to_dict() for f in cold.new_findings
        ]

    def test_cache_invalidates_on_edit(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(_BAD_RNG["core/mod.py"])
        analyzer = Analyzer(use_cache=True, root=tmp_path)
        first = analyzer.run([tmp_path])
        assert len(first.new_findings) == 1
        (target / "mod.py").write_text(
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        second = Analyzer(use_cache=True, root=tmp_path).run([tmp_path])
        assert second.new_findings == []
