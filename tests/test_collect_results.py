"""The benchmark results collector script."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "benchmarks" / "collect_results.py"


@pytest.fixture
def collector(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("collect_results",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(module, "OUTPUT", tmp_path / "RESULTS.md")
    return module, tmp_path


def test_collects_in_experiment_order(collector):
    module, tmp_path = collector
    results = tmp_path / "results"
    results.mkdir()
    (results / "sec93_sensitivity.txt").write_text("sensitivity body")
    (results / "table2_overall.txt").write_text("table2 body")
    (results / "zzz_custom.txt").write_text("custom body")
    module.main()
    output = (tmp_path / "RESULTS.md").read_text()
    assert output.index("table2_overall") < output.index(
        "sec93_sensitivity"
    )
    # Unknown tables still appear, after the known ones.
    assert "zzz_custom" in output
    assert "custom body" in output


def test_fenced_blocks(collector):
    module, tmp_path = collector
    results = tmp_path / "results"
    results.mkdir()
    (results / "table1_datasets.txt").write_text("line one\nline two")
    module.main()
    output = (tmp_path / "RESULTS.md").read_text()
    assert "```text\nline one\nline two\n```" in output


def test_missing_results_dir_fails_clearly(collector):
    module, tmp_path = collector
    with pytest.raises(SystemExit):
        module.main()


def test_distill_substrates_baseline(collector):
    import json
    module, tmp_path = collector
    dump = {
        "benchmarks": [
            {
                "name": "test_vectorize_products_10k_scalar",
                "stats": {"mean": 4.0, "stddev": 0.1, "rounds": 2},
                "extra_info": {"engine": "scalar", "pairs": 10_000},
            },
            {
                "name": "test_vectorize_products_10k_batched",
                "stats": {"mean": 0.5, "stddev": 0.01, "rounds": 5},
                "extra_info": {"engine": "batched", "pairs": 10_000},
            },
            {
                "name": "test_levenshtein",
                "stats": {"mean": 0.001, "stddev": 0.0, "rounds": 100},
            },
        ],
    }
    source = tmp_path / "bench.json"
    source.write_text(json.dumps(dump))
    output = tmp_path / "BENCH_substrates.json"
    baseline = module.distill_substrates(source, output=output)
    assert baseline["vectorize_products_10k"]["speedup"] == 8.0
    assert baseline["vectorize_products_10k"][
        "batched_pairs_per_second"] == 20_000.0
    assert "test_levenshtein" in baseline["benchmarks"]
    assert json.loads(output.read_text()) == baseline


def test_distill_substrates_without_engine_pair(collector):
    """A dump missing the engine comparison still produces a baseline."""
    import json
    module, tmp_path = collector
    dump = {"benchmarks": [
        {"name": "test_levenshtein",
         "stats": {"mean": 0.001, "stddev": 0.0, "rounds": 100}},
    ]}
    source = tmp_path / "bench.json"
    source.write_text(json.dumps(dump))
    output = tmp_path / "BENCH_substrates.json"
    baseline = module.distill_substrates(source, output=output)
    assert "vectorize_products_10k" not in baseline
    assert output.is_file()


def test_collect_lint_records_per_rule_counts(collector):
    import json
    module, tmp_path = collector
    output = tmp_path / "BENCH_lint.json"
    payload = module.collect_lint(output=output)
    assert payload["files_scanned"] > 0
    # Every shipped rule is reported, and src/repro is corlint-clean:
    # nothing new, only justified baseline entries.
    for rule_id in ("CL001", "CL002", "CL003", "CL004", "CL005", "CL006"):
        assert rule_id in payload["rules"]
        assert payload["rules"][rule_id]["new"] == 0
    assert payload["totals"]["new"] == 0
    assert payload["totals"]["stale_baseline_entries"] == 0
    assert json.loads(output.read_text()) == payload
    table = (tmp_path / "results" / "lint_findings.txt").read_text()
    assert "CL001" in table and "baselined" in table


def test_order_constant_covers_known_artifacts():
    spec = importlib.util.spec_from_file_location("collect_results",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for required in ("table2_overall", "figure3_confidence_real",
                     "sec93_estimator_savings", "ext_money_time",
                     "engine_overhead", "fault_gateway", "obs_overhead",
                     "shard_scaling"):
        assert required in module.ORDER


def _fake_obs_payload(overhead: float) -> dict:
    return {"run": {"instrumentation_overhead_fraction": overhead,
                    "acceptance_bar_fraction": 0.05}}


@pytest.mark.parametrize(
    "committed,fresh,expected",
    [
        (0.01, 0.012, 0),   # tiny wobble: fine
        (0.01, 0.06, 1),    # fresh measurement breaks the 5% bar
        (0.005, 0.045, 1),  # under the bar but regressed > 3pp
        (0.04, 0.01, 0),    # improvements never fail the gate
    ],
)
def test_check_regress_gate(collector, monkeypatch, committed, fresh,
                            expected):
    """--check-regress compares fresh vs committed overhead numbers."""
    import json
    module, tmp_path = collector
    record = tmp_path / "BENCH_obs.json"
    record.write_text(json.dumps(_fake_obs_payload(committed)))
    monkeypatch.setattr(module, "OBS_OUTPUT", record)
    monkeypatch.setattr(
        module, "collect_obs",
        lambda output=None, repeats=3, keep_run_dir=None,
        write_table=True: _fake_obs_payload(fresh))
    assert module.check_regress() == expected


def test_check_regress_without_committed_record(collector, monkeypatch):
    module, tmp_path = collector
    monkeypatch.setattr(module, "OBS_OUTPUT",
                        tmp_path / "BENCH_obs.json")
    assert module.check_regress() == 2


def test_collect_shard_scaling_curve(collector):
    """--shard records the worker curve and the determinism check, and
    carries a committed paper-scale ``citations_full`` entry over."""
    import json
    module, tmp_path = collector
    output = tmp_path / "BENCH_shard.json"
    committed = {"dataset": "citations 2616x64263", "n_workers": 1,
                 "pairs": 168112008, "pairs_per_second": 387341.6,
                 "reduction_ratio": 0.001177, "seconds": 434.0,
                 "survivors": 197785}
    output.write_text(json.dumps({"citations_full": committed}))
    payload = module.collect_shard(output=output, repeats=1,
                                   n_a=20, n_b=40,
                                   worker_counts=(1, 2))
    assert payload["run"]["pairs"] == 20 * 40
    assert payload["run"]["cpu_count"] >= 1
    assert set(payload["workers"]) == {"1", "2"}
    for entry in payload["workers"].values():
        assert entry["bit_identical"]
        assert entry["seconds"] > 0
        assert entry["speedup_vs_streaming"] > 0
    assert payload["merge_determinism_ok"]
    assert payload["citations_full"] == committed
    assert json.loads(output.read_text()) == payload
    table = (tmp_path / "results" / "shard_scaling.txt").read_text()
    assert "workers" in table and "bit-identical" in table
    assert "stream" in table
    assert "168112008 pairs in 434 s" in table



def test_every_named_collector_runs_in_command_line_order(collector,
                                                          monkeypatch):
    module, _ = collector
    calls = []
    for name in ("collect_plan", "collect_shard", "collect_engine",
                 "collect_storage", "main"):
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, **k: calls.append(
                                (_name, a, k)))
    assert module.cli(["--plan", "--shard"]) == 0
    assert [call[0] for call in calls] == ["collect_plan", "collect_shard"]
    calls.clear()
    assert module.cli(["--storage", "--engine", "--storage",
                       "--shard-full"]) == 0
    assert calls == [("collect_storage", (), {}),
                     ("collect_engine", (), {}),
                     ("collect_shard", (), {"full": True})]
    calls.clear()
    assert module.cli([]) == 0
    assert [call[0] for call in calls] == ["main"]


def test_a_failed_regression_check_sets_the_exit_status(collector,
                                                        monkeypatch):
    module, _ = collector
    calls = []
    monkeypatch.setattr(module, "check_regress",
                        lambda threshold: calls.append(threshold) or 1)
    monkeypatch.setattr(module, "collect_engine",
                        lambda: calls.append("engine"))
    assert module.cli(["--check-regress", "--regress-threshold-pp", "2",
                       "--engine"]) == 1
    assert calls == [2.0, "engine"]
