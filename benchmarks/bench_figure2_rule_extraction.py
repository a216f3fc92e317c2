"""Figure 2 — extracting negative rules from a random forest.

Recreates the paper's toy example: a forest over book pairs whose trees
test isbn_match / #pages_match / publisher_match-style features, from
which every root-to-"no"-leaf path becomes a candidate blocking rule.
"""

from __future__ import annotations

import numpy as np

from _common import save_table
from repro.config import ForestConfig
from repro.forest.forest import train_forest
from repro.rules.extraction import extract_negative_rules, extract_positive_rules

FEATURES = ["isbn_match", "pages_match", "title_sim", "publisher_match"]


def _toy_books(n: int = 600, seed: int = 0):
    """Book pairs: a match needs matching ISBNs and page counts."""
    rng = np.random.default_rng(seed)
    isbn = (rng.random(n) < 0.3).astype(float)
    pages = (rng.random(n) < 0.5).astype(float)
    title = rng.random(n)
    publisher = (rng.random(n) < 0.6).astype(float)
    x = np.column_stack([isbn, pages, title, publisher])
    y = (isbn > 0.5) & (pages > 0.5)
    return x, y


def test_figure2_negative_rule_extraction(benchmark):
    x, y = _toy_books()
    rng = np.random.default_rng(1)
    forest = train_forest(x, y, ForestConfig(n_trees=2, max_depth=3), rng)

    negative = benchmark.pedantic(
        lambda: extract_negative_rules(forest, FEATURES),
        rounds=5, iterations=1,
    )
    positive = extract_positive_rules(forest, FEATURES)

    rows = [[i + 1, str(rule)] for i, rule in enumerate(negative)]
    save_table(
        "figure2_rules",
        "Figure 2: negative rules extracted from a 2-tree toy forest",
        ["#", "rule"],
        rows,
        notes="Paper's toy forest yields 5 negative rules; counts vary "
              "with the learned tree shapes.",
    )

    # Structural claims from the figure.
    assert negative, "a forest on separable data must yield negative rules"
    assert positive, "and positive rules"
    # Every negative rule must actually identify non-matches on the
    # training data with high precision.
    for rule in negative:
        mask = rule.applies(x)
        assert mask.any()
        assert (~y[mask]).mean() >= 0.9

    # The isbn-mismatch rule from the paper ("isbn_match = N -> no match")
    # must be among the extracted rules: a single-predicate rule on isbn.
    single = [
        rule for rule in negative
        if len(rule.predicates) == 1
        and rule.predicates[0].feature_name == "isbn_match"
        and rule.predicates[0].le
    ]
    assert single, "the classic ISBN blocking rule should be extracted"


def test_figure2_rule_count_scales_with_leaves(benchmark):
    x, y = _toy_books(n=2000, seed=3)
    rng = np.random.default_rng(2)
    forest = train_forest(x, y, ForestConfig(n_trees=10), rng)
    rules = benchmark.pedantic(
        lambda: extract_negative_rules(forest, FEATURES),
        rounds=3, iterations=1,
    )
    no_leaves = sum(
        int(np.count_nonzero(tree.is_leaf & ~tree.label))
        for tree in forest.trees
    )
    assert len(rules) <= no_leaves  # dedup can only shrink
