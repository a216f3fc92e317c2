"""From-scratch CART decision trees and random forests.

Corleone extracts machine-readable blocking/reduction rules from root-to-
leaf paths of its forest's trees (Figure 2), so this implementation exposes
those paths directly.  Hyper-parameter defaults mirror the Weka random
forest the paper uses (k=10 trees, 60% bagging, m = log2(n)+1 features per
split).
"""

from .tree import DecisionTree, TreeCondition, TreePath
from .forest import RandomForest, train_forest

__all__ = [
    "DecisionTree",
    "TreeCondition",
    "TreePath",
    "RandomForest",
    "train_forest",
]
