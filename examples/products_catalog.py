"""Product-catalog matching: the paper's hardest workload, step by step.

Matches an Amazon-style catalog against a Walmart-style one, where
product *families* (same brand/line, different capacities) create hard
negatives, and the second store mangles model numbers and prices.  The
script surfaces what each Corleone module did: the blocking rules it
invented, the matcher's confidence trajectory, the accuracy estimate and
the per-iteration telemetry — the view a practitioner would want before
trusting the output.

Run:  python examples/products_catalog.py
"""

import numpy as np

from repro import Corleone, SimulatedCrowd, load_dataset, scaled_config
from repro.evaluation import score_iteration


def main() -> None:
    dataset = load_dataset("products", seed=3)
    stats = dataset.stats()
    print(f"products: |A|={stats.size_a} |B|={stats.size_b} "
          f"gold matches={stats.n_matches} "
          f"(cartesian {stats.cartesian:,} pairs)\n")

    crowd = SimulatedCrowd(dataset.matches, error_rate=0.10,
                           rng=np.random.default_rng(11))
    config = scaled_config(t_b=20_000).replace(max_pipeline_iterations=2)
    pipeline = Corleone(config, crowd, rng=np.random.default_rng(1))
    result = pipeline.run(dataset.table_a, dataset.table_b,
                          dataset.seed_labels)

    # ------------------------------------------------------------------
    # 1. What the Blocker did.
    # ------------------------------------------------------------------
    blocker = result.blocker
    print("== Blocking ==")
    print(f"cartesian {blocker.cartesian:,} -> umbrella "
          f"{blocker.umbrella_size:,} "
          f"({blocker.reduction_ratio:.2%} kept), "
          f"${blocker.dollars:.2f}, {blocker.pairs_labeled} pairs labelled")
    print(f"{blocker.n_candidate_rules} candidate rules extracted; "
          f"{len(blocker.applied_rules)} applied:")
    for rule in blocker.applied_rules:
        print(f"  {rule}")

    # ------------------------------------------------------------------
    # 2. What each iteration did.
    # ------------------------------------------------------------------
    print("\n== Iterations ==")
    for record in result.iterations:
        conf = record.matcher.confidence_history
        print(f"iteration {record.index}: "
              f"{record.matcher.pairs_labeled} pairs for training, "
              f"stopped by '{record.matcher.stop_reason}' after "
              f"{record.matcher.n_iterations} rounds "
              f"(conf {conf[0]:.2f} -> {conf[-1]:.2f})")
        if record.estimate is not None:
            est = record.estimate
            print(f"  crowd estimate: P={est.precision:.1%} "
                  f"R={est.recall:.1%} F1={est.f1:.1%} "
                  f"using {record.estimation_pairs_labeled} labels, "
                  f"{len(est.applied_rules)} reduction rules")
        truth = score_iteration(record, dataset)
        print(f"  true accuracy : P={truth.precision:.1%} "
              f"R={truth.recall:.1%} F1={truth.f1:.1%}")
        if record.difficult_size:
            print(f"  difficult set for next iteration: "
                  f"{record.difficult_size} pairs")

    # ------------------------------------------------------------------
    # 3. The bottom line.
    # ------------------------------------------------------------------
    print(f"\nstop reason: {result.stop_reason}")
    print(f"total: ${result.cost.dollars:.2f}, "
          f"{result.cost.pairs_labeled} pairs labelled, "
          f"{result.cost.hits} HITs posted")
    truth = dataset.matches
    predicted = result.predicted_matches
    tp = len(predicted & truth)
    print(f"final true F1: "
          f"{2 * tp / (len(predicted) + len(truth)):.1%}")

    # ------------------------------------------------------------------
    # 4. Why did it match these?  (forest-path explanations)
    # ------------------------------------------------------------------
    from repro.evaluation import explain_pair
    forest = result.iterations[0].matcher.forest
    candidates = result.candidates
    example_match = next(
        (pair for pair in sorted(predicted & truth)
         if pair in candidates), None,
    )
    if example_match is not None:
        print("\n== Why this pair matched ==")
        explanation = explain_pair(forest, candidates, example_match)
        print(explanation.to_text())


if __name__ == "__main__":
    main()
