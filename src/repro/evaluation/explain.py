"""Explaining matcher decisions.

A hands-off system still has to answer "why did you match these two
records?" — the retailer of Example 3.1 will not ship catalog merges on
faith.  Random forests explain well: each prediction is a vote of
human-readable root-to-leaf paths over named similarity features.  This
module turns one prediction into:

* the vote split across trees;
* the decisive *path* each tree took, rendered as a rule;
* the features that contributed most (how often the paths tested them);
* a compact text rendering for logs and review UIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..data.pairs import CandidateSet, Pair
from ..exceptions import DataError
from ..forest.forest import RandomForest
from ..forest.tree import DecisionTree, TreePath
from ..rules.predicates import Predicate
from ..rules.rule import Rule, simplify_predicates


@dataclass(frozen=True)
class TreeVote:
    """One tree's decision on one pair."""

    tree_index: int
    label: bool
    path_rule: Rule
    """The root-to-leaf path the example followed, as a rule."""
    leaf_support: int
    """Training examples that reached the same leaf."""


@dataclass(frozen=True)
class MatchExplanation:
    """Everything the forest can say about one prediction."""

    pair: Pair
    predicted_match: bool
    votes_for: int
    votes_against: int
    confidence: float
    """1 - entropy of the vote split (Section 5.3's conf(e))."""
    tree_votes: tuple[TreeVote, ...]
    feature_usage: tuple[tuple[str, int], ...]
    """(feature name, number of deciding paths that test it), sorted."""

    def to_text(self) -> str:
        """A compact multi-line rendering for logs or review."""
        verdict = "MATCH" if self.predicted_match else "NO MATCH"
        lines = [
            f"{self.pair.a_id} vs {self.pair.b_id}: {verdict} "
            f"({self.votes_for}-{self.votes_against} votes, "
            f"confidence {self.confidence:.2f})",
            "deciding features: " + ", ".join(
                f"{name} x{count}" for name, count in self.feature_usage[:5]
            ),
        ]
        for vote in self.tree_votes:
            marker = "+" if vote.label else "-"
            lines.append(
                f"  [{marker}] tree {vote.tree_index}: {vote.path_rule} "
                f"(leaf support {vote.leaf_support})"
            )
        return "\n".join(lines)


def explain_pair(forest: RandomForest, candidates: CandidateSet,
                 pair: Pair) -> MatchExplanation:
    """Explain the forest's prediction for one candidate pair."""
    row = candidates.index_of(Pair(*pair))
    vector = candidates.features[row:row + 1]
    names = candidates.feature_names
    if forest.n_features_ != len(names):
        raise DataError("forest and candidate set disagree on features")

    tree_votes = []
    usage: dict[str, int] = {}
    for index, tree in enumerate(forest.trees):
        path = _followed_path(tree, vector[0])
        predicates = simplify_predicates([
            Predicate(
                feature_index=c.feature,
                feature_name=names[c.feature],
                le=c.le,
                threshold=c.threshold,
                nan_satisfies=c.nan_satisfies,
            )
            for c in path.conditions
        ])
        if predicates:
            rule = Rule(predicates, predicts_match=path.label,
                        source=f"tree{index}")
        else:
            # An unsplit tree: represent its vote as a tautology.
            rule = Rule(
                [Predicate(0, names[0], True, float("1e308"),
                           nan_satisfies=True)],
                predicts_match=path.label, source=f"tree{index}",
            )
        tree_votes.append(TreeVote(
            tree_index=index,
            label=path.label,
            path_rule=rule,
            leaf_support=path.n_total,
        ))
        for predicate in predicates:
            usage[predicate.feature_name] = (
                usage.get(predicate.feature_name, 0) + 1
            )

    votes_for = sum(1 for vote in tree_votes if vote.label)
    votes_against = len(tree_votes) - votes_for
    confidence = float(forest.confidence(vector)[0])
    feature_usage = tuple(sorted(
        usage.items(), key=lambda item: (-item[1], item[0])
    ))
    return MatchExplanation(
        pair=Pair(*pair),
        predicted_match=votes_for * 2 >= len(tree_votes),
        votes_for=votes_for,
        votes_against=votes_against,
        confidence=confidence,
        tree_votes=tuple(tree_votes),
        feature_usage=feature_usage,
    )


def _followed_path(tree: DecisionTree, vector: np.ndarray) -> TreePath:
    """The root-to-leaf path this example follows."""
    feature = tree.feature.tolist()
    threshold = tree.threshold.tolist()
    nan_left = tree.nan_left.tolist()
    node = 0
    while feature[node] >= 0:
        value = float(vector[feature[node]])
        if value <= threshold[node] or (math.isnan(value)
                                        and nan_left[node]):
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    # paths() yields the leaves in id order, left before right.
    leaf = int(np.count_nonzero(tree.is_leaf[:node]))
    return next(islice(tree.paths(), leaf, None))


def explain_errors(forest: RandomForest, candidates: CandidateSet,
                   predictions: np.ndarray, gold: set[Pair],
                   limit: int = 10) -> dict[str, list[MatchExplanation]]:
    """Explanations for the worst mistakes (experimenter's error audit).

    Returns explanations for up to ``limit`` false positives and false
    negatives each, most-confident mistakes first — the places where the
    matcher is confidently wrong are the ones worth reading.
    """
    predictions = np.asarray(predictions, dtype=bool)
    confidence = forest.confidence(candidates.features)
    false_positive_rows = [
        row for row, pair in enumerate(candidates.pairs)
        if predictions[row] and Pair(*pair) not in gold
    ]
    false_negative_rows = [
        row for row, pair in enumerate(candidates.pairs)
        if not predictions[row] and Pair(*pair) in gold
    ]

    def worst(rows: list[int]) -> list[MatchExplanation]:
        ranked = sorted(rows, key=lambda r: -confidence[r])[:limit]
        return [
            explain_pair(forest, candidates, candidates.pairs[row])
            for row in ranked
        ]

    return {
        "false_positives": worst(false_positive_rows),
        "false_negatives": worst(false_negative_rows),
    }
