"""Table 2 — overall performance: Corleone vs Baseline 1 / Baseline 2.

For each dataset: Corleone's true P/R/F1, crowd cost and pairs labelled,
against two traditional baselines that use developer blocking and
perfectly labelled random training data (Baseline 1 uses as many training
pairs as Corleone labelled; Baseline 2 uses 20% of the candidate set).

Shape checks (the paper's qualitative claims):
* Corleone beats Baseline 1 everywhere (active learning matters);
* Corleone is comparable-or-better vs Baseline 2 on the easy datasets
  and clearly better on Products, despite Baseline 2's 10x training data.
"""

from __future__ import annotations

import pytest

from _common import DATASETS, bench_config, memo_disk, save_table
from repro.core.baselines import build_baseline_candidates, run_baseline
from repro.evaluation.reporting import pct

_BASELINES: dict[str, tuple] = {}


def _baselines(runs, name):
    """Baseline 1 and 2 for a dataset, sharing one vectorization.

    Results are disk-cached next to the pipeline runs (baseline-2
    training on 20% of the candidate set takes minutes).
    """
    if name not in _BASELINES:
        n_train = runs.corleone(name).pairs_labeled
        _BASELINES[name] = memo_disk(
            ("baselines", name, n_train),
            lambda: _run_baselines(runs.dataset(name), n_train),
        )
    return _BASELINES[name]


def _run_baselines(dataset, n_train):
    candidates = build_baseline_candidates(dataset)
    config = bench_config()
    baseline1 = run_baseline(
        dataset, n_train=n_train, config=config,
        candidates=candidates, seed=2, name="baseline1",
    )
    baseline2 = run_baseline(
        dataset, n_train=max(1, len(candidates) // 5), config=config,
        candidates=candidates, seed=2, name="baseline2",
    )
    return baseline1, baseline2


@pytest.mark.parametrize("name", DATASETS)
def test_table2_corleone_run(runs, benchmark, name):
    summary = benchmark.pedantic(
        lambda: runs.corleone(name), rounds=1, iterations=1
    )
    floor = {"restaurants": 0.85, "citations": 0.8, "products": 0.6}
    assert summary.f1 >= floor[name]
    assert summary.pairs_labeled > 0
    assert summary.dollars > 0


@pytest.mark.parametrize("name", DATASETS)
def test_table2_baselines(runs, benchmark, name):
    baseline1, baseline2 = benchmark.pedantic(
        lambda: _baselines(runs, name), rounds=1, iterations=1
    )
    assert 0.0 <= baseline1.f1 <= 1.0
    assert 0.0 <= baseline2.f1 <= 1.0


def test_table2_report(runs, benchmark):
    # Report assembly is immediate; the pedantic call keeps this test
    # visible under --benchmark-only (which skips non-benchmark tests).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name in DATASETS:
        summary = runs.corleone(name)
        baseline1, baseline2 = _baselines(runs, name)
        rows.append([
            name,
            pct(summary.precision), pct(summary.recall), pct(summary.f1),
            f"${summary.dollars:.1f}", summary.pairs_labeled,
            pct(baseline1.precision), pct(baseline1.recall),
            pct(baseline1.f1),
            pct(baseline2.precision), pct(baseline2.recall),
            pct(baseline2.f1),
        ])
    save_table(
        "table2_overall",
        "Table 2: Corleone vs traditional solutions "
        "(simulated crowd, 10% error rate)",
        ["dataset", "P", "R", "F1", "cost", "#pairs",
         "B1 P", "B1 R", "B1 F1", "B2 P", "B2 R", "B2 F1"],
        rows,
        notes=(
            "Paper (real AMT crowd): restaurants 97.0/96.1/96.5 $9.2 274; "
            "citations 89.9/94.3/92.1 $69.5 2082; "
            "products 91.5/87.4/89.3 $256.8 3205.\n"
            "Paper baselines F1: B1 7.6/87.1/40.5, B2 96.4/92.0/69.5."
        ),
    )

    # Shape assertions.
    for name in DATASETS:
        summary = runs.corleone(name)
        baseline1, baseline2 = _BASELINES[name]
        assert summary.f1 > baseline1.f1, (
            f"{name}: Corleone must beat Baseline 1"
        )
    products = runs.corleone("products")
    _, products_b2 = _BASELINES["products"]
    assert products.f1 > products_b2.f1, (
        "products: Corleone must beat even the strong Baseline 2"
    )
