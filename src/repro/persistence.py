"""JSON persistence for rules, forests and run reports.

A production EM deployment wants to keep what a run learned: the
certified blocking rules (reusable on the next data refresh), the
trained forest (apply without re-crowdsourcing), and a machine-readable
run report.  Everything round-trips through plain JSON-compatible dicts
— no pickling, so artifacts are inspectable and portable.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Sequence
from itertools import islice
from pathlib import Path
from typing import Any

from .config import (
    BlockerConfig,
    CorleoneConfig,
    CrowdConfig,
    EstimatorConfig,
    ForestConfig,
    LocatorConfig,
    MatcherConfig,
    PlanConfig,
)
from .core.blocker import BlockerResult
from .core.budgeting import BudgetPlan
from .core.estimator import AccuracyEstimate
from .core.locator import LocatorResult
from .core.matcher import MatcherResult, MatcherTrainState
from .core.results import CorleoneResult, IterationRecord
from .data.pairs import Pair, PairRows
from .data.table import AttrType, Record, Schema, Table
from .exceptions import DataError
from .forest.forest import RandomForest
from .forest.tree import DecisionTree
from .obs import timing as _timing
from .rules.evaluation import RuleEvaluation
from .rules.predicates import Predicate
from .rules.rule import Rule

__all__ = [
    "FORMAT_VERSION",
    "ITERATION_RECORD_FIELDS",
    "MATCHER_TRAIN_STATE_SEQUENCES",
    "blocker_applied_rules",
    "blocker_result_from_dict",
    "blocker_result_to_dict",
    "budget_plan_from_dict",
    "budget_plan_to_dict",
    "config_from_dict",
    "config_to_dict",
    "estimate_from_dict",
    "estimate_to_dict",
    "forest_from_dict",
    "forest_to_dict",
    "iteration_record_from_dict",
    "iteration_record_to_dict",
    "load_forest",
    "load_report",
    "load_rules",
    "locator_result_from_dict",
    "locator_result_to_dict",
    "matcher_result_from_dict",
    "matcher_result_to_dict",
    "matcher_train_state_from_dict",
    "matcher_train_state_to_dict",
    "result_report",
    "rule_evaluation_from_dict",
    "rule_evaluation_to_dict",
    "rule_from_dict",
    "rule_to_dict",
    "save_forest",
    "save_report",
    "save_rules",
    "table_from_dict",
    "table_to_dict",
    "tree_from_dict",
    "tree_to_dict",
]

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

def rule_to_dict(rule: Rule) -> dict[str, Any]:
    """A JSON-compatible representation of one rule."""
    return {
        "predicts_match": rule.predicts_match,
        "cost": rule.cost,
        "source": rule.source,
        "predicates": [
            {
                "feature_index": p.feature_index,
                "feature_name": p.feature_name,
                "le": p.le,
                "threshold": p.threshold,
                "nan_satisfies": p.nan_satisfies,
            }
            for p in rule.predicates
        ],
    }


def rule_from_dict(data: dict[str, Any]) -> Rule:
    """Rebuild a rule saved with :func:`rule_to_dict`."""
    try:
        predicates = [
            Predicate(
                feature_index=p["feature_index"],
                feature_name=p["feature_name"],
                le=p["le"],
                threshold=p["threshold"],
                nan_satisfies=p.get("nan_satisfies", False),
            )
            for p in data["predicates"]
        ]
        return Rule(
            predicates,
            predicts_match=data["predicts_match"],
            cost=data.get("cost", 0.0),
            source=data.get("source", ""),
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed rule document: {error}") from None


def save_rules(rules: list[Rule], path: str | Path) -> None:
    """Write a rule set to a JSON file."""
    document = {
        "format": "corleone-rules",
        "version": FORMAT_VERSION,
        "rules": [rule_to_dict(rule) for rule in rules],
    }
    Path(path).write_text(json.dumps(document, indent=2))


def load_rules(path: str | Path) -> list[Rule]:
    """Load a rule set saved by :func:`save_rules`."""
    document = _load_document(path, "corleone-rules")
    return [rule_from_dict(item) for item in document["rules"]]


# ----------------------------------------------------------------------
# Forests
# ----------------------------------------------------------------------

def tree_to_dict(tree: DecisionTree) -> dict[str, Any]:
    """A JSON-compatible representation of one fitted tree."""
    return {
        "n_features": tree.n_features_,
        "max_depth": tree.max_depth,
        "min_samples_split": tree.min_samples_split,
        "min_samples_leaf": tree.min_samples_leaf,
        "max_features": tree.max_features,
        "nodes": [
            list(node) for node in zip(
                tree.feature.tolist(), tree.threshold.tolist(),
                tree.left.tolist(), tree.right.tolist(),
                tree.nan_left.tolist(), tree.label.tolist(),
                tree.n_total.tolist(), tree.n_positive.tolist(),
            )
        ],
    }


def tree_from_dict(data: dict[str, Any]) -> DecisionTree:
    """Rebuild a tree saved with :func:`tree_to_dict`."""
    try:
        tree = DecisionTree(
            max_depth=data["max_depth"],
            min_samples_split=data["min_samples_split"],
            min_samples_leaf=data["min_samples_leaf"],
            max_features=data["max_features"],
        )
        tree.n_features_ = data["n_features"]
        nodes = data["nodes"]
        if any(len(node) != 8 for node in nodes):
            raise ValueError("a node has 8 fields")
        columns = list(zip(*nodes)) or [()] * 8
        tree.set_nodes(*columns)
        return tree
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed tree document: {error}") from None


def forest_to_dict(forest: RandomForest,
                   feature_names: list[str] | None = None) -> dict[str, Any]:
    """A JSON-compatible representation of a trained forest."""
    return {
        "format": "corleone-forest",
        "version": FORMAT_VERSION,
        "feature_names": feature_names,
        "trees": [tree_to_dict(tree) for tree in forest.trees],
    }


def forest_from_dict(data: dict[str, Any]) -> RandomForest:
    """Rebuild a forest saved with :func:`forest_to_dict`."""
    if data.get("format") != "corleone-forest":
        raise DataError("not a corleone-forest document")
    trees = [tree_from_dict(item) for item in data["trees"]]
    if not trees:
        raise DataError("forest document contains no trees")
    return RandomForest(trees)


def save_forest(forest: RandomForest, path: str | Path,
                feature_names: list[str] | None = None) -> None:
    """Write a trained forest to a JSON file."""
    Path(path).write_text(
        json.dumps(forest_to_dict(forest, feature_names))
    )


def load_forest(path: str | Path) -> RandomForest:
    """Load a forest saved by :func:`save_forest`."""
    return forest_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Configuration and budget plans
# ----------------------------------------------------------------------

def config_to_dict(config: CorleoneConfig) -> dict[str, Any]:
    """A JSON-compatible representation of a full configuration."""
    return dataclasses.asdict(config)


_ONE_BLOCKING_PATH = ("blocking always runs the sharded plan executor, "
                      "sized by blocker.n_workers")

_REMOVED_CONFIG_KEYS = {
    ("blocker", "executor"): _ONE_BLOCKING_PATH,
    ("plan", "enabled"): _ONE_BLOCKING_PATH,
    ("crowd", "max_platform_retries"): (
        "the gateway (ResilientCrowd) owns retries; the labelling "
        "service asks for each answer once"),
}
"""Keys older documents may carry, each with why it went."""


def config_from_dict(data: dict[str, Any]) -> CorleoneConfig:
    """Rebuild a configuration saved with :func:`config_to_dict`.

    A document naming a removed key (see ``_REMOVED_CONFIG_KEYS``)
    raises a :class:`~repro.exceptions.DataError` that names the key
    and why it went.
    """
    try:
        for (section, key), reason in _REMOVED_CONFIG_KEYS.items():
            if key in data.get(section, ()):
                raise DataError(
                    f"config key {section}.{key} was removed: {reason}")
        return CorleoneConfig(
            forest=ForestConfig(**data["forest"]),
            blocker=BlockerConfig(**data["blocker"]),
            matcher=MatcherConfig(**data["matcher"]),
            estimator=EstimatorConfig(**data["estimator"]),
            locator=LocatorConfig(**data["locator"]),
            crowd=CrowdConfig(**data["crowd"]),
            # Documents written before the plan existed omit its key.
            plan=PlanConfig(**data.get("plan", {})),
            max_pipeline_iterations=data["max_pipeline_iterations"],
            budget=data["budget"],
            seed=data["seed"],
        )
    except (AttributeError, KeyError, TypeError) as error:
        raise DataError(f"malformed config document: {error}") from None


def budget_plan_to_dict(plan: BudgetPlan) -> dict[str, Any]:
    """A JSON-compatible representation of a phase budget plan."""
    return dataclasses.asdict(plan)


def budget_plan_from_dict(data: dict[str, Any]) -> BudgetPlan:
    """Rebuild a plan saved with :func:`budget_plan_to_dict`."""
    try:
        return BudgetPlan(**data)
    except TypeError as error:
        raise DataError(f"malformed budget plan: {error}") from None


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def table_to_dict(table: Table) -> dict[str, Any]:
    """A JSON-compatible representation of one input table."""
    return {
        "name": table.name,
        "schema": [
            [attr.name, attr.attr_type.value]
            for attr in table.schema.attributes
        ],
        "records": [
            [record.record_id, dict(record.values)] for record in table
        ],
    }


def table_from_dict(data: dict[str, Any]) -> Table:
    """Rebuild a table saved with :func:`table_to_dict`."""
    try:
        schema = Schema.from_pairs(
            (name, AttrType(kind)) for name, kind in data["schema"]
        )
        return Table(
            data["name"], schema,
            (Record(rid, values) for rid, values in data["records"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed table document: {error}") from None


# ----------------------------------------------------------------------
# Stage results (checkpointing)
# ----------------------------------------------------------------------

def rule_evaluation_to_dict(evaluation: RuleEvaluation) -> dict[str, Any]:
    """A JSON-compatible representation of one rule evaluation."""
    return {
        "rule": rule_to_dict(evaluation.rule),
        "accepted": evaluation.accepted,
        "precision": evaluation.precision,
        "error_margin": evaluation.error_margin,
        "coverage": evaluation.coverage,
        "n_labeled": evaluation.n_labeled,
        "reason": evaluation.reason,
    }


def rule_evaluation_from_dict(data: dict[str, Any]) -> RuleEvaluation:
    """Rebuild an evaluation saved with :func:`rule_evaluation_to_dict`."""
    try:
        return RuleEvaluation(
            rule=rule_from_dict(data["rule"]),
            accepted=data["accepted"],
            precision=data["precision"],
            error_margin=data["error_margin"],
            coverage=data["coverage"],
            n_labeled=data["n_labeled"],
            reason=data["reason"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed rule evaluation: {error}") from None


def estimate_to_dict(estimate: AccuracyEstimate,
                     certified: Sequence[RuleEvaluation] = (),
                     ) -> dict[str, Any]:
    """A JSON-compatible representation of an accuracy estimate.

    ``certified`` is what the estimate was given to re-apply (the
    accepted evaluations of the run's earlier estimates,
    :meth:`repro.engine.state.RunState.certified`).  Every applied rule
    is a rule of one of those or of the estimate's own accepted
    evaluations, so it is stored as an index into ``certified``
    followed by ``rule_evaluations``, never as a second copy.
    """
    return {
        "precision": estimate.precision,
        "recall": estimate.recall,
        "eps_precision": estimate.eps_precision,
        "eps_recall": estimate.eps_recall,
        "n_labeled": estimate.n_labeled,
        "n_probes": estimate.n_probes,
        "density": estimate.density,
        "converged": estimate.converged,
        "applied_rules": _evaluation_indices(
            estimate.applied_rules,
            [*certified, *estimate.rule_evaluations]),
        "rule_evaluations": [
            rule_evaluation_to_dict(e) for e in estimate.rule_evaluations
        ],
    }


def estimate_from_dict(data: dict[str, Any],
                       certified: Sequence[RuleEvaluation] = (),
                       ) -> AccuracyEstimate:
    """Rebuild an estimate saved with :func:`estimate_to_dict` (given
    the same ``certified`` evaluations, rebuilt)."""
    try:
        evaluations = [
            rule_evaluation_from_dict(e) for e in data["rule_evaluations"]
        ]
        return AccuracyEstimate(
            precision=data["precision"],
            recall=data["recall"],
            eps_precision=data["eps_precision"],
            eps_recall=data["eps_recall"],
            n_labeled=data["n_labeled"],
            n_probes=data["n_probes"],
            density=data["density"],
            converged=data["converged"],
            applied_rules=_evaluated_rules(data["applied_rules"],
                                           [*certified, *evaluations]),
            rule_evaluations=evaluations,
        )
    except (KeyError, TypeError, IndexError) as error:
        raise DataError(f"malformed estimate document: {error}") from None


def _evaluation_indices(rules: Sequence[Rule],
                        evaluations: Sequence[RuleEvaluation]) -> list[int]:
    """Each rule as the index of its accepted evaluation.

    Applied rules are always rules of accepted evaluations, so a
    document stores each rule once, inside its evaluation.  The
    evaluation holding the very rule object is preferred over one
    holding an equal rule (equality ignores cost and source).
    """
    by_object: dict[int, int] = {}
    by_value: dict[Rule, int] = {}
    for index, evaluation in enumerate(evaluations):
        if evaluation.accepted:
            by_object.setdefault(id(evaluation.rule), index)
            by_value.setdefault(evaluation.rule, index)
    indices = []
    for rule in rules:
        index = by_object.get(id(rule), by_value.get(rule))
        if index is None:
            raise DataError(f"applied rule {rule} has no accepted "
                            f"evaluation")
        indices.append(index)
    return indices


def _evaluated_rules(indices: Sequence[int],
                     evaluations: Sequence[RuleEvaluation]) -> list[Rule]:
    """The rules :func:`_evaluation_indices` stored as ``indices``."""
    return [evaluations[int(index)].rule for index in indices]


def matcher_result_to_dict(
        result: MatcherResult,
        forest_ref: Callable[[RandomForest], Any] = forest_to_dict,
) -> dict[str, Any]:
    """A JSON-compatible representation of a matcher training outcome.

    Predictions, one flag per candidate row the matcher was trained
    on, are stored bit-packed (:func:`_flags_to_dict`: a restaurants
    working set's 21,600 flags take 3.6 KB instead of 65 KB as a 0/1
    list).  ``forest_ref`` encodes the forest; the checkpoint log
    passes one that writes each forest once and refers to it by number
    afterwards (:mod:`repro.engine.checkpoint`).
    """
    return {
        "forest": forest_ref(result.forest),
        "predictions": _flags_to_dict(result.predictions),
        "labeled_rows": [
            [int(row), bool(label)]
            for row, label in result.labeled_rows.items()
        ],
        "confidence_history": [float(v) for v in result.confidence_history],
        "stop_reason": result.stop_reason,
        "n_iterations": result.n_iterations,
        "pairs_labeled": result.pairs_labeled,
    }


def matcher_result_from_dict(data: dict[str, Any]) -> MatcherResult:
    """Rebuild a matcher result saved with :func:`matcher_result_to_dict`."""
    try:
        return MatcherResult(
            forest=forest_from_dict(data["forest"]),
            predictions=_flags_from_dict(data["predictions"]),
            labeled_rows={
                int(row): bool(label) for row, label in data["labeled_rows"]
            },
            confidence_history=[float(v) for v in data["confidence_history"]],
            stop_reason=data["stop_reason"],
            n_iterations=data["n_iterations"],
            pairs_labeled=data["pairs_labeled"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed matcher result: {error}") from None


def _flags_to_dict(flags: Any) -> dict[str, Any]:
    """A boolean vector as its length and base64-packed bits."""
    import base64

    import numpy as np

    flags = np.asarray(flags, dtype=bool)
    return {"rows": int(flags.size),
            "packed": base64.b64encode(np.packbits(flags)).decode("ascii")}


def _flags_from_dict(data: dict[str, Any]) -> Any:
    """The boolean vector :func:`_flags_to_dict` packed."""
    import base64
    import binascii

    import numpy as np

    try:
        packed = np.frombuffer(base64.b64decode(data["packed"],
                                                validate=True),
                               dtype=np.uint8)
    except binascii.Error as error:
        raise TypeError(f"bad packed flags: {error}") from None
    rows = int(data["rows"])
    if packed.size != -(-rows // 8):
        raise TypeError(f"{packed.size} packed bytes for {rows} flags")
    return np.unpackbits(packed, count=rows).astype(bool)


MATCHER_TRAIN_STATE_SEQUENCES = ("labeled_rows", "monitor_rows",
                                 "confidences", "forests")
"""The fields of a :class:`MatcherTrainState` that only ever grow."""


def matcher_train_state_to_dict(
        state: MatcherTrainState,
        forest_ref: Callable[[RandomForest], Any] = forest_to_dict,
        skip: dict[str, int] | None = None,
) -> dict[str, Any]:
    """A JSON-compatible snapshot of an in-progress matcher training
    (``forest_ref`` as for :func:`matcher_result_to_dict`).

    ``skip`` maps fields of :data:`MATCHER_TRAIN_STATE_SEQUENCES` to a
    number of leading items to leave out: the checkpoint log writes
    only the items it has not written before.
    """
    skip = skip or {}

    def tail(name: str, items: Any) -> Any:
        return islice(items, skip.get(name, 0), None)

    return {
        "labeled_rows": [
            [int(row), bool(label)]
            for row, label in tail("labeled_rows",
                                   state.labeled_rows.items())
        ],
        "monitor_rows": [int(row) for row in tail("monitor_rows",
                                                  state.monitor_rows)],
        "confidences": [float(v) for v in tail("confidences",
                                               state.confidences)],
        "forests": [forest_ref(forest)
                    for forest in tail("forests", state.forests)],
        "pairs_before": state.pairs_before,
        "stop_reason": state.stop_reason,
        "rollback_index": state.rollback_index,
    }


def matcher_train_state_from_dict(data: dict[str, Any]) -> MatcherTrainState:
    """Rebuild a snapshot from :func:`matcher_train_state_to_dict`."""
    try:
        return MatcherTrainState(
            labeled_rows={
                int(row): bool(label) for row, label in data["labeled_rows"]
            },
            monitor_rows=[int(row) for row in data["monitor_rows"]],
            confidences=[float(v) for v in data["confidences"]],
            forests=[forest_from_dict(f) for f in data["forests"]],
            pairs_before=data["pairs_before"],
            stop_reason=data["stop_reason"],
            rollback_index=data["rollback_index"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed matcher train state: {error}") from None


def blocker_result_to_dict(result: BlockerResult) -> dict[str, Any]:
    """A JSON-compatible representation of the blocker's outcome.

    The internal ``matcher_result`` (the forest the blocker trained to
    derive rules from) is deliberately dropped: nothing downstream of
    the blocking stage reads it, and it would double checkpoint size.
    A restored result carries ``matcher_result=None``.  The umbrella
    pairs are dropped too: they are what the applied rules leave of
    A x B, so a resumed run applies the rules again
    (:func:`blocker_applied_rules`) to rebuild them, in the same order.
    """
    return {
        "triggered": result.triggered,
        "cartesian": result.cartesian,
        "sample_size": result.sample_size,
        "applied_rules": _evaluation_indices(result.applied_rules,
                                             result.evaluations),
        "evaluations": [
            rule_evaluation_to_dict(e) for e in result.evaluations
        ],
        "n_candidate_rules": result.n_candidate_rules,
        "pairs_labeled": result.pairs_labeled,
        "dollars": result.dollars,
    }


def blocker_applied_rules(data: dict[str, Any]) -> list[Rule]:
    """The rules a blocker result saved with
    :func:`blocker_result_to_dict` applied, in the order it applied
    them."""
    try:
        evaluations = [
            rule_evaluation_from_dict(e) for e in data["evaluations"]
        ]
        return _evaluated_rules(data["applied_rules"], evaluations)
    except (KeyError, TypeError, IndexError) as error:
        raise DataError(f"malformed blocker result: {error}") from None


def blocker_result_from_dict(data: dict[str, Any],
                             candidate_pairs: Sequence[Pair],
                             ) -> BlockerResult:
    """Rebuild a blocker result saved with :func:`blocker_result_to_dict`.

    ``candidate_pairs`` is the umbrella set, in blocking order — the
    pairs of the candidate set vectorized from it, shared as they are
    when they already are a :class:`PairRows`.
    """
    try:
        evaluations = [
            rule_evaluation_from_dict(e) for e in data["evaluations"]
        ]
        return BlockerResult(
            triggered=data["triggered"],
            candidate_pairs=PairRows.from_pairs(candidate_pairs),
            cartesian=data["cartesian"],
            sample_size=data["sample_size"],
            applied_rules=_evaluated_rules(data["applied_rules"],
                                           evaluations),
            evaluations=evaluations,
            n_candidate_rules=data["n_candidate_rules"],
            pairs_labeled=data["pairs_labeled"],
            dollars=data["dollars"],
        )
    except (KeyError, TypeError, IndexError) as error:
        raise DataError(f"malformed blocker result: {error}") from None


def locator_result_to_dict(result: LocatorResult) -> dict[str, Any]:
    """A JSON-compatible representation of a locator verdict."""
    return {
        "difficult_rows": result.difficult_rows,
        "stop_reason": result.stop_reason,
        "evaluations": [
            rule_evaluation_to_dict(e) for e in result.evaluations
        ],
        "pairs_labeled": result.pairs_labeled,
    }


def locator_result_from_dict(data: dict[str, Any]) -> LocatorResult:
    """Rebuild a verdict saved with :func:`locator_result_to_dict`.

    The accepted rules are not stored: they are the rules of the
    accepted evaluations, in order.
    """
    try:
        rows = data["difficult_rows"]
        evaluations = [
            rule_evaluation_from_dict(e) for e in data["evaluations"]
        ]
        return LocatorResult(
            difficult_rows=(None if rows is None
                            else [int(row) for row in rows]),
            stop_reason=data["stop_reason"],
            accepted_rules=[ev.rule for ev in evaluations if ev.accepted],
            evaluations=evaluations,
            pairs_labeled=data["pairs_labeled"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed locator result: {error}") from None


ITERATION_RECORD_FIELDS = (
    "index", "matcher", "predicted_pairs", "estimate",
    "estimation_pairs_labeled", "locator", "reduction_pairs_labeled",
)
"""The serialized fields of an :class:`IterationRecord`, in order."""


def iteration_record_to_dict(
        record: IterationRecord,
        forest_ref: Callable[[RandomForest], Any] = forest_to_dict,
        fields: Sequence[str] = ITERATION_RECORD_FIELDS,
        certified: Sequence[RuleEvaluation] = (),
) -> dict[str, Any]:
    """A JSON-compatible representation of one pipeline iteration.

    ``fields`` picks a subset of :data:`ITERATION_RECORD_FIELDS` (a
    checkpoint-log record carries only the fields that changed since
    the previous one); ``forest_ref`` is passed to
    :func:`matcher_result_to_dict` and ``certified`` (the accepted
    evaluations of the earlier records' estimates,
    :func:`repro.core.results.certified_evaluations`) to
    :func:`estimate_to_dict`.
    """
    encoders: dict[str, Callable[[Any], Any]] = {
        "matcher": lambda matcher: matcher_result_to_dict(matcher,
                                                          forest_ref),
        "predicted_pairs": lambda pairs: [
            [pair.a_id, pair.b_id] for pair in sorted(pairs)],
        "estimate": lambda estimate: (
            None if estimate is None
            else estimate_to_dict(estimate, certified)),
        "locator": lambda locator: (
            None if locator is None else locator_result_to_dict(locator)),
    }
    return {
        name: encoders.get(name, _plain)(getattr(record, name))
        for name in fields
    }


def _plain(value: Any) -> Any:
    """A field already JSON-compatible as it is."""
    return value


def iteration_record_from_dict(
        data: dict[str, Any],
        certified: Sequence[RuleEvaluation] = ()) -> IterationRecord:
    """Rebuild a record saved with :func:`iteration_record_to_dict`
    (given the same ``certified`` evaluations, rebuilt)."""
    try:
        return IterationRecord(
            index=data["index"],
            matcher=matcher_result_from_dict(data["matcher"]),
            predicted_pairs=frozenset(
                Pair(str(a), str(b)) for a, b in data["predicted_pairs"]
            ),
            estimate=(None if data["estimate"] is None
                      else estimate_from_dict(data["estimate"],
                                              certified)),
            estimation_pairs_labeled=data["estimation_pairs_labeled"],
            locator=(None if data["locator"] is None
                     else locator_result_from_dict(data["locator"])),
            reduction_pairs_labeled=data["reduction_pairs_labeled"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed iteration record: {error}") from None


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------

def result_report(result: CorleoneResult,
                  platform: Any = None) -> dict[str, Any]:
    """A machine-readable summary of a pipeline run.

    Predicted matches are included as sorted (a_id, b_id) pairs;
    everything else is telemetry a monitoring system would want.  Pass
    the run's platform stack to add a ``timing`` section: simulated
    elapsed time plus the retry-time totals the gateway and the timed
    wrapper accrued (timeout waits, backoff sleeps, worker time burned
    by faults), scraped by :func:`repro.obs.timing.platform_timing` —
    omitted when no wrapper in the stack tracks time, so reports from
    plain platforms are unchanged.
    """
    report: dict[str, Any] = {
        "format": "corleone-report",
        "version": FORMAT_VERSION,
        "stop_reason": result.stop_reason,
        "predicted_matches": [
            [pair.a_id, pair.b_id]
            for pair in sorted(result.predicted_matches)
        ],
        "cost": {
            "dollars": result.cost.dollars,
            "answers": result.cost.answers,
            "pairs_labeled": result.cost.pairs_labeled,
            "hits": result.cost.hits,
        },
        "blocking": {
            "triggered": result.blocker.triggered,
            "cartesian": result.blocker.cartesian,
            "umbrella": result.blocker.umbrella_size,
            "rules": [rule_to_dict(rule)
                      for rule in result.blocker.applied_rules],
        },
        "iterations": [
            {
                "index": record.index,
                "matcher_pairs_labeled": record.matcher.pairs_labeled,
                "matcher_stop_reason": record.matcher.stop_reason,
                "matcher_al_iterations": record.matcher.n_iterations,
                "confidence_history": record.matcher.confidence_history,
                "estimation_pairs_labeled": record.estimation_pairs_labeled,
                "reduction_pairs_labeled": record.reduction_pairs_labeled,
                "difficult_size": record.difficult_size,
                "estimate": None if record.estimate is None else {
                    "precision": record.estimate.precision,
                    "recall": record.estimate.recall,
                    "f1": record.estimate.f1,
                    "eps_precision": record.estimate.eps_precision,
                    "eps_recall": record.estimate.eps_recall,
                    "converged": record.estimate.converged,
                    "n_labeled": record.estimate.n_labeled,
                },
            }
            for record in result.iterations
        ],
    }
    if result.estimate is not None:
        report["estimate"] = {
            "precision": result.estimate.precision,
            "recall": result.estimate.recall,
            "f1": result.estimate.f1,
            "eps_precision": result.estimate.eps_precision,
            "eps_recall": result.estimate.eps_recall,
            "converged": result.estimate.converged,
        }
    timing = _timing.platform_timing(platform)
    if timing is not None:
        report["timing"] = timing
    return report


def save_report(result: CorleoneResult, path: str | Path) -> None:
    """Write a run report to a JSON file."""
    Path(path).write_text(json.dumps(result_report(result), indent=2))


def load_report(path: str | Path) -> dict[str, Any]:
    """Load and validate a report saved by :func:`save_report`."""
    return _load_document(path, "corleone-report")


def _load_document(path: str | Path, expected_format: str) -> dict[str, Any]:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise DataError(f"{path}: invalid JSON ({error})") from None
    if document.get("format") != expected_format:
        raise DataError(
            f"{path}: expected a {expected_format} document, got "
            f"{document.get('format')!r}"
        )
    return document
