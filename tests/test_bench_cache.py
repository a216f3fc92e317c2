"""The benchmark suite's disk cache is keyed by the program's code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

COMMON = Path(__file__).parent.parent / "benchmarks" / "_common.py"


@pytest.fixture
def common(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_DISK_CACHE_DIR", tmp_path / "cache")
    return module


def test_memo_disk_replays_only_for_the_same_code(common, monkeypatch):
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    assert common.memo_disk(("key", 1), compute) == 1
    assert common.memo_disk(("key", 1), compute) == 1  # from disk
    assert common.memo_disk(("key", 2), compute) == 2
    monkeypatch.setattr(common, "_code_digest", lambda: "changed code")
    assert common.memo_disk(("key", 1), compute) == 3


def test_code_digest_is_not_computed_at_import(common):
    # The whole-run benchmark's child imports the module for its
    # configuration only and must not pay for hashing the tree.
    assert common._code_digest.cache_info().currsize == 0
