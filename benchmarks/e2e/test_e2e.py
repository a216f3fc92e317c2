"""Self-test of the whole-run benchmark on a 60x40 restaurants instance.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload("tiny", "restaurants", (60, 40, 15), t_b=100_000,
                child_s=1.0)
TINY_DURABLE = Workload("tiny-durable", "restaurants", (60, 40, 15),
                        t_b=100_000, child_s=1.0, durable=True)
BENCH = run.load_benchmark()


def child(workload: Workload, trace: bool, durable: bool) -> dict:
    report, error = run.run_child(workload, 7, trace, durable,
                                  time.monotonic() + 120)
    assert error is None, error
    return report


@pytest.fixture(scope="module")
def traced() -> dict:
    return child(TINY, trace=True, durable=False)


def test_tracing_changes_no_output(traced):
    untraced = child(TINY, trace=False, durable=False)
    assert traced["output_sha"] == untraced["output_sha"]
    assert traced["missing_targets"] == []


def test_durable_run_matches_and_verifies():
    durable = child(TINY_DURABLE, trace=False, durable=True)
    plain = child(TINY, trace=False, durable=False)
    assert durable["output_sha"] == plain["output_sha"]
    assert durable["unverified"] == []
    assert run.instance_failure(durable) is None


def test_self_times_partition_the_root(traced):
    spans = traced["spans"]
    own = tracing.self_times(spans)
    assert all(value >= 0 for value in own.values())
    root = next(s for s in spans if s["id"] == traced["root_id"])
    by_id = {s["id"]: s for s in spans}

    def under_root(span):
        while span is not None:
            if span["id"] == root["id"]:
                return True
            span = by_id.get(span["parent"])
        return False

    total = sum(own[s["id"]] for s in spans if under_root(s))
    duration = root["t1"] - root["t0"]
    assert total == pytest.approx(duration, rel=0.01)
    assert duration == pytest.approx(traced["run_s"], rel=0.01)


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    result = run.measure(TINY, seed=3, seconds=1.0, trace=trace)
    line = run.contract_line(result, BENCH)
    assert line["failed"] == 0 and line["attempted"] == 1 + trace
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in line["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "restaurants", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _stats(values):
    return {"median": sorted(values)[len(values) // 2],
            "min": min(values), "max": max(values), "n": len(values)}


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "within bound"),
    ([10.0, 10.1, 10.2], [13.0, 13.1, 13.2], "worse"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "better"),
    ([8.0, 10.0, 12.0], [11.0, 13.0, 15.0], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    entry = {"name": "run_s", "better": "lower", "bound": 0.1}
    assert run.verdict(entry, _stats(a), _stats(b))[1] == expected


def _document(run_s=(10.0, 10.1, 10.2), failed=0, drop=()):
    """A set with one workload; ``drop`` names metrics every rep lost."""
    metrics = {entry["name"]: _stats([1.0, 1.0, 1.0])
               for entry in BENCH["end_to_end"] if entry["name"] not in drop}
    if "run_s" not in drop:
        metrics["run_s"] = _stats(list(run_s))
    return {"workloads": {"restaurants": {"failed": failed,
                                          "metrics": metrics}}}


def _compare(tmp_path, a: dict, b: dict) -> int:
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    return run.compare(str(path_a), str(path_b), BENCH)


def test_compare_exits_0_on_the_same_set(tmp_path):
    assert _compare(tmp_path, _document(), _document()) == 0


def test_compare_exits_1_on_worse(tmp_path):
    assert _compare(tmp_path, _document(),
                    _document(run_s=(13.0, 13.1, 13.2))) == 1


def test_compare_exits_1_on_more_failed_operations(tmp_path):
    assert _compare(tmp_path, _document(), _document(failed=1)) == 1
    assert _compare(tmp_path, _document(failed=1), _document()) == 0


def test_compare_exits_1_on_a_workload_missing_from_b(tmp_path):
    assert _compare(tmp_path, _document(), {"workloads": {}}) == 1


def test_compare_exits_1_on_a_metric_missing_from_b(tmp_path):
    assert _compare(tmp_path, _document(), _document(drop=("f1",))) == 1
    every = tuple(entry["name"] for entry in BENCH["end_to_end"])
    assert _compare(tmp_path, _document(),
                    _document(failed=3, drop=every)) == 1
