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
from pathlib import Path
from typing import Any

from .config import (
    BlockerConfig,
    CorleoneConfig,
    CrowdConfig,
    EstimatorConfig,
    ForestConfig,
    GatewayConfig,
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
from .data.pairs import CandidateSet, Pair
from .data.table import AttrType, Record, Schema, Table
from .exceptions import DataError
from .forest.forest import RandomForest
from .forest.tree import DecisionTree, Node
from .obs import timing as _timing
from .rules.evaluation import RuleEvaluation
from .rules.predicates import Predicate
from .rules.rule import Rule

__all__ = [
    "FORMAT_VERSION",
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
    "load_candidates",
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
    "save_candidates",
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
            [node.feature, node.threshold, node.left, node.right,
             node.nan_left, node.label, node.n_total, node.n_positive]
            for node in tree.nodes
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
        tree.nodes = [
            Node(feature=f, threshold=t, left=l, right=r, nan_left=nl,
                 label=lab, n_total=nt, n_positive=np_)
            for f, t, l, r, nl, lab, nt, np_ in data["nodes"]
        ]
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
# Candidate sets
# ----------------------------------------------------------------------

def save_candidates(candidates: CandidateSet, path: str | Path,
                    external_features: str | None = None,
                    writer: Any = None) -> str:
    """Persist a vectorized candidate set as a compressed ``.npz``.

    Vectorization dominates experiment start-up time; saving the matrix
    lets repeated experiments on the same umbrella set skip it.  The
    write is durable (:func:`repro.storage.writer.atomic_write_npz`:
    tmp, fsync, atomic replace, directory fsync) and returns the
    file's sha256.  Pass the run's
    :class:`~repro.storage.writer.ArtifactWriter` as ``writer`` to
    record the artifact — and any referenced spill file — in the run
    manifest, which is what lets a resume detect bit rot.

    ``external_features`` is the spill hook: the relative path (from
    ``path``'s directory) of a memory-mapped ``.npy`` file already
    holding the feature matrix.  The ``.npz`` then stores only a
    reference plus the matrix's shape/dtype fingerprint — the spill
    file *is* the canonical bytes, so a multi-gigabyte matrix is never
    re-serialized into the checkpoint, and :func:`load_candidates`
    reopens it read-only without materializing it in RAM.  Callers
    must flush the spill file first (:meth:`repro.plan.SpillManager.
    flush` — the engine's checkpointer does).
    """
    import numpy as np

    from .storage.writer import atomic_write_npz

    path = Path(path)
    arrays = {
        "a_ids": np.array([pair.a_id for pair in candidates.pairs]),
        "b_ids": np.array([pair.b_id for pair in candidates.pairs]),
        "feature_names": np.array(candidates.feature_names),
    }
    if external_features is None:
        arrays["features"] = candidates.features
    else:
        arrays["features_file"] = np.array([external_features])
        arrays["features_shape"] = np.array(candidates.features.shape,
                                            dtype=np.int64)
        arrays["features_dtype"] = np.array(
            [str(candidates.features.dtype)])
    if writer is not None:
        writer.atomic_write_npz(path, arrays, compressed=True)
        if external_features is not None:
            # The spill .npy is the matrix's canonical serialization;
            # hashing it into the manifest closes the verification gap
            # a bit-flipped spill file would otherwise slip through.
            writer.record_file(path.parent / external_features)
        return writer.entry(path)["sha256"]
    return atomic_write_npz(path, arrays, compressed=True)


def load_candidates(path: str | Path) -> CandidateSet:
    """Load a candidate set saved by :func:`save_candidates`.

    A candidate file whose matrix was spilled (``external_features``)
    resolves the referenced ``.npy`` relative to its own directory and
    memory-maps it read-only — the working set never has to fit in
    RAM, and the mapped bytes are exactly the checkpointed ones, so
    resume stays bit-identical.
    """
    import numpy as np

    from .data.pairs import Pair

    import zipfile

    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such candidate file")
    try:
        with np.load(path, allow_pickle=False) as data:
            pairs = [
                Pair(str(a), str(b))
                for a, b in zip(data["a_ids"], data["b_ids"])
            ]
            if "features_file" in data:
                features = _load_spilled_features(path, data)
            else:
                features = data["features"]
            return CandidateSet(
                pairs,
                features,
                [str(name) for name in data["feature_names"]],
            )
    except (KeyError, ValueError, EOFError, OSError,
            zipfile.BadZipFile) as error:
        # BadZipFile/EOFError/OSError cover torn or bit-rotted archives:
        # resume must see a typed error naming the file, never a raw
        # zipfile or numpy traceback.
        raise DataError(f"{path}: malformed candidate file "
                        f"({error})") from None


def _load_spilled_features(path: Path, data) -> "Any":
    """Memory-map the spill file a candidate ``.npz`` references.

    The stored shape/dtype fingerprint is verified against the mapped
    file — a spill file swapped or truncated after the checkpoint was
    written must fail loudly, not feed wrong features to a resumed run.
    ``open_readonly`` additionally checks the file's sha256 against the
    run manifest (the candidate file's directory is the manifest root),
    so single-bit rot that preserves shape and dtype is caught too.
    """
    from .plan.spill import open_readonly

    name = str(data["features_file"][0])
    spill_file = path.parent / name
    if not spill_file.is_file():
        raise DataError(
            f"{path}: references spill file {name!r}, which does not "
            f"exist next to it")
    features = open_readonly(spill_file, manifest_root=path.parent)
    shape = tuple(int(n) for n in data["features_shape"])
    dtype = str(data["features_dtype"][0])
    if features.shape != shape or str(features.dtype) != dtype:
        raise DataError(
            f"{path}: spill file {name!r} holds {features.dtype} "
            f"{features.shape}, checkpoint recorded {dtype} {shape}")
    return features


# ----------------------------------------------------------------------
# Configuration and budget plans
# ----------------------------------------------------------------------

def config_to_dict(config: CorleoneConfig) -> dict[str, Any]:
    """A JSON-compatible representation of a full configuration."""
    return dataclasses.asdict(config)


_REMOVED_CONFIG_KEYS = (("blocker", "executor"), ("plan", "enabled"))
"""Executor switches older documents may carry; blocking has one path."""


def config_from_dict(data: dict[str, Any]) -> CorleoneConfig:
    """Rebuild a configuration saved with :func:`config_to_dict`.

    A document naming a removed key (see ``_REMOVED_CONFIG_KEYS``)
    raises a :class:`~repro.exceptions.DataError` that names the key
    and its replacement.
    """
    try:
        for section, key in _REMOVED_CONFIG_KEYS:
            if key in data.get(section, ()):
                raise DataError(
                    f"config key {section}.{key} was removed: blocking "
                    "always runs the sharded plan executor, sized by "
                    "blocker.n_workers")
        return CorleoneConfig(
            forest=ForestConfig(**data["forest"]),
            blocker=BlockerConfig(**data["blocker"]),
            matcher=MatcherConfig(**data["matcher"]),
            estimator=EstimatorConfig(**data["estimator"]),
            locator=LocatorConfig(**data["locator"]),
            crowd=CrowdConfig(**data["crowd"]),
            # Documents written before the gateway/plan existed omit
            # their keys.
            gateway=GatewayConfig(**data.get("gateway", {})),
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

def _pair_rows(pairs: Any) -> list[list[str]]:
    """Pairs as ``[a_id, b_id]`` rows, preserving order."""
    return [[pair.a_id, pair.b_id] for pair in pairs]


def _pairs_from_rows(rows: Any) -> list[Pair]:
    """Inverse of :func:`_pair_rows`."""
    return [Pair(str(a), str(b)) for a, b in rows]


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


def estimate_to_dict(estimate: AccuracyEstimate) -> dict[str, Any]:
    """A JSON-compatible representation of an accuracy estimate."""
    return {
        "precision": estimate.precision,
        "recall": estimate.recall,
        "eps_precision": estimate.eps_precision,
        "eps_recall": estimate.eps_recall,
        "n_labeled": estimate.n_labeled,
        "n_probes": estimate.n_probes,
        "density": estimate.density,
        "converged": estimate.converged,
        "applied_rules": [rule_to_dict(r) for r in estimate.applied_rules],
        "rule_evaluations": [
            rule_evaluation_to_dict(e) for e in estimate.rule_evaluations
        ],
    }


def estimate_from_dict(data: dict[str, Any]) -> AccuracyEstimate:
    """Rebuild an estimate saved with :func:`estimate_to_dict`."""
    try:
        return AccuracyEstimate(
            precision=data["precision"],
            recall=data["recall"],
            eps_precision=data["eps_precision"],
            eps_recall=data["eps_recall"],
            n_labeled=data["n_labeled"],
            n_probes=data["n_probes"],
            density=data["density"],
            converged=data["converged"],
            applied_rules=[rule_from_dict(r) for r in data["applied_rules"]],
            rule_evaluations=[
                rule_evaluation_from_dict(e)
                for e in data["rule_evaluations"]
            ],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed estimate document: {error}") from None


def matcher_result_to_dict(result: MatcherResult) -> dict[str, Any]:
    """A JSON-compatible representation of a matcher training outcome.

    Predictions are stored as a 0/1 list aligned to the candidate rows
    the matcher was trained on.
    """
    import numpy as np

    return {
        "forest": forest_to_dict(result.forest),
        "predictions": np.asarray(result.predictions, dtype=int).tolist(),
        "labeled_rows": [
            [int(row), bool(label)]
            for row, label in result.labeled_rows.items()
        ],
        "confidence_history": [float(v) for v in result.confidence_history],
        "stop_reason": result.stop_reason,
        "n_iterations": result.n_iterations,
        "pairs_labeled": result.pairs_labeled,
        "extra_labels": [
            [pair.a_id, pair.b_id, bool(label)]
            for pair, label in result.extra_labels.items()
        ],
    }


def matcher_result_from_dict(data: dict[str, Any]) -> MatcherResult:
    """Rebuild a matcher result saved with :func:`matcher_result_to_dict`."""
    import numpy as np

    try:
        return MatcherResult(
            forest=forest_from_dict(data["forest"]),
            predictions=np.asarray(data["predictions"], dtype=bool),
            labeled_rows={
                int(row): bool(label) for row, label in data["labeled_rows"]
            },
            confidence_history=[float(v) for v in data["confidence_history"]],
            stop_reason=data["stop_reason"],
            n_iterations=data["n_iterations"],
            pairs_labeled=data["pairs_labeled"],
            extra_labels={
                Pair(str(a), str(b)): bool(label)
                for a, b, label in data["extra_labels"]
            },
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed matcher result: {error}") from None


def matcher_train_state_to_dict(state: MatcherTrainState) -> dict[str, Any]:
    """A JSON-compatible snapshot of an in-progress matcher training."""
    return {
        "labeled_rows": [
            [int(row), bool(label)]
            for row, label in state.labeled_rows.items()
        ],
        "monitor_rows": [int(row) for row in state.monitor_rows],
        "confidences": [float(v) for v in state.confidences],
        "forests": [forest_to_dict(forest) for forest in state.forests],
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
    A restored result carries ``matcher_result=None``.
    """
    return {
        "triggered": result.triggered,
        "candidate_pairs": _pair_rows(result.candidate_pairs),
        "cartesian": result.cartesian,
        "sample_size": result.sample_size,
        "applied_rules": [rule_to_dict(r) for r in result.applied_rules],
        "evaluations": [
            rule_evaluation_to_dict(e) for e in result.evaluations
        ],
        "n_candidate_rules": result.n_candidate_rules,
        "pairs_labeled": result.pairs_labeled,
        "dollars": result.dollars,
    }


def blocker_result_from_dict(data: dict[str, Any]) -> BlockerResult:
    """Rebuild a blocker result saved with :func:`blocker_result_to_dict`."""
    try:
        return BlockerResult(
            triggered=data["triggered"],
            candidate_pairs=_pairs_from_rows(data["candidate_pairs"]),
            cartesian=data["cartesian"],
            sample_size=data["sample_size"],
            applied_rules=[rule_from_dict(r) for r in data["applied_rules"]],
            evaluations=[
                rule_evaluation_from_dict(e) for e in data["evaluations"]
            ],
            n_candidate_rules=data["n_candidate_rules"],
            pairs_labeled=data["pairs_labeled"],
            dollars=data["dollars"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed blocker result: {error}") from None


def locator_result_to_dict(result: LocatorResult,
                           candidates: CandidateSet) -> dict[str, Any]:
    """A JSON-compatible representation of a locator verdict.

    The difficult set is stored as row indices into ``candidates`` (the
    full candidate set it was carved from), not as a second copy of the
    feature matrix.
    """
    difficult = None
    if result.difficult is not None:
        difficult = [
            candidates.index_of(pair) for pair in result.difficult.pairs
        ]
    return {
        "difficult_rows": difficult,
        "stop_reason": result.stop_reason,
        "accepted_rules": [rule_to_dict(r) for r in result.accepted_rules],
        "evaluations": [
            rule_evaluation_to_dict(e) for e in result.evaluations
        ],
        "pairs_labeled": result.pairs_labeled,
    }


def locator_result_from_dict(data: dict[str, Any],
                             candidates: CandidateSet) -> LocatorResult:
    """Rebuild a verdict saved with :func:`locator_result_to_dict`."""
    try:
        difficult = None
        if data["difficult_rows"] is not None:
            difficult = candidates.subset(
                [int(row) for row in data["difficult_rows"]]
            )
        return LocatorResult(
            difficult=difficult,
            stop_reason=data["stop_reason"],
            accepted_rules=[
                rule_from_dict(r) for r in data["accepted_rules"]
            ],
            evaluations=[
                rule_evaluation_from_dict(e) for e in data["evaluations"]
            ],
            pairs_labeled=data["pairs_labeled"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed locator result: {error}") from None


def iteration_record_to_dict(record: IterationRecord,
                             candidates: CandidateSet) -> dict[str, Any]:
    """A JSON-compatible representation of one pipeline iteration."""
    return {
        "index": record.index,
        "matcher": matcher_result_to_dict(record.matcher),
        "matcher_pairs_labeled": record.matcher_pairs_labeled,
        "predicted_pairs": _pair_rows(sorted(record.predicted_pairs)),
        "estimate": (None if record.estimate is None
                     else estimate_to_dict(record.estimate)),
        "estimation_pairs_labeled": record.estimation_pairs_labeled,
        "locator": (None if record.locator is None
                    else locator_result_to_dict(record.locator, candidates)),
        "reduction_pairs_labeled": record.reduction_pairs_labeled,
        "difficult_size": record.difficult_size,
    }


def iteration_record_from_dict(data: dict[str, Any],
                               candidates: CandidateSet) -> IterationRecord:
    """Rebuild a record saved with :func:`iteration_record_to_dict`."""
    try:
        return IterationRecord(
            index=data["index"],
            matcher=matcher_result_from_dict(data["matcher"]),
            matcher_pairs_labeled=data["matcher_pairs_labeled"],
            predicted_pairs=frozenset(
                _pairs_from_rows(data["predicted_pairs"])
            ),
            estimate=(None if data["estimate"] is None
                      else estimate_from_dict(data["estimate"])),
            estimation_pairs_labeled=data["estimation_pairs_labeled"],
            locator=(None if data["locator"] is None
                     else locator_result_from_dict(data["locator"],
                                                   candidates)),
            reduction_pairs_labeled=data["reduction_pairs_labeled"],
            difficult_size=data["difficult_size"],
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
                "matcher_pairs_labeled": record.matcher_pairs_labeled,
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
