"""Table 4 — per-iteration performance.

For each dataset and iteration: pairs labelled by the matcher, the true
P/R/F1 of the combined predictions, pairs labelled during estimation,
the estimated P/R/F1, pairs labelled during reduction and the size of
the difficult set.  The key claims checked:

* the crowd-estimated F1 tracks the true F1 closely (the paper saw
  0.5-5.4% absolute error);
* iteration happens only while the estimate improves.
"""

from __future__ import annotations

import pytest

from _common import DATASETS, save_table
from repro.evaluation.experiment import score_iteration
from repro.evaluation.reporting import pct


@pytest.mark.parametrize("name", DATASETS)
def test_table4_iterations_run(runs, benchmark, name):
    summary = benchmark.pedantic(
        lambda: runs.corleone(name), rounds=1, iterations=1
    )
    iterations = summary.result.iterations
    assert 1 <= len(iterations) <= 2
    assert iterations[0].estimate is not None


def test_table4_report(runs, benchmark):
    # Report assembly is immediate; the pedantic call keeps this test
    # visible under --benchmark-only (which skips non-benchmark tests).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    estimate_errors = []
    for name in DATASETS:
        summary = runs.corleone(name)
        for record in summary.result.iterations:
            truth = score_iteration(record, summary.dataset)
            estimate = record.estimate
            est_cols = ["-", "-", "-", "-"]
            if estimate is not None:
                est_cols = [
                    record.estimation_pairs_labeled,
                    pct(estimate.precision), pct(estimate.recall),
                    pct(estimate.f1),
                ]
                estimate_errors.append((name, record.index,
                                        abs(estimate.f1 - truth.f1)))
            rows.append([
                name, record.index,
                record.matcher.pairs_labeled,
                pct(truth.precision), pct(truth.recall), pct(truth.f1),
                *est_cols,
                record.reduction_pairs_labeled,
                record.difficult_size if record.difficult_size else "-",
            ])
    save_table(
        "table4_iterations",
        "Table 4: per-iteration performance "
        "(truth columns use gold labels; est columns are crowd-only)",
        ["dataset", "iter", "#pairs", "true P", "true R", "true F1",
         "est #pairs", "est P", "est R", "est F1", "red #pairs",
         "difficult"],
        rows,
        notes=(
            "Paper (restaurants): iter1 140 pairs, F1 96.5, est F1 96.0; "
            "reduction left 157 difficult pairs -> stop. Citations and "
            "products each ran 2 iterations with estimates within 0.5-5.4% "
            "of true F1."
        ),
    )

    # The kept iteration's estimate must track truth reasonably.
    kept = [(n, i, e) for (n, i, e) in estimate_errors if i == 1]
    for name, index, error in kept:
        assert error <= 0.20, (
            f"{name} iter {index}: estimated F1 off by {error:.2f}"
        )
